"""Checks for the per-dimension rule-injection inequalities and the
finite-difference machinery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hornplex import training
from hornplex.kg import Triple
from hornplex.model import EmbeddingTable, score
from hornplex.rules import HornRule
from hornplex.training import LabeledBatch
from hornplex.verify import (
    TheoremReport,
    check_sufficient_condition_composition,
    check_sufficient_condition_horn,
    counterexample_search_unrestricted,
    default_suite,
    format_report,
    gradient_check,
    numerical_gradient,
    write_reports,
)

from conftest import make_feasible_table

TRIALS = 2000


class TestCompositionCheck:
    @pytest.mark.parametrize("d", [2, 8])
    def test_zero_violations_in_proof_regime(self, d):
        report = check_sufficient_condition_composition(d, trials=TRIALS, seed=7)
        assert report.violations == 0
        assert report.max_violation == 0.0
        assert report.checked == report.trials - report.skipped

    def test_negative_control_violates(self):
        report = check_sufficient_condition_composition(
            2, trials=TRIALS, seed=7, negative_control=True
        )
        assert report.violations > 0
        assert report.max_violation > 0.0

    def test_boundary_all_real_unit_case(self):
        # one dimension, all phases zero, every modulus at the bound:
        # product/(2R)^2 = 1/4 is dominated by the head score 1/2
        table = EmbeddingTable(
            ent_re=np.ones((3, 1)),
            ent_im=np.zeros((3, 1)),
            rel_re=np.ones((3, 1)),
            rel_im=np.zeros((3, 1)),
            bound=1.0,
        )
        phi_1 = score(table, Triple(0, 0, 1))
        phi_2 = score(table, Triple(1, 1, 2))
        phi_3 = score(table, Triple(0, 2, 2))
        lhs = abs(phi_1 / 2.0) * abs(phi_2 / 2.0)
        rhs = abs(phi_3 / 2.0)
        assert lhs == 0.25 and rhs == 0.5
        assert lhs <= rhs


class TestHornCheck:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", [2, 8])
    def test_zero_violations_in_proof_regime(self, k, d):
        report = check_sufficient_condition_horn(k, d, trials=TRIALS, seed=7)
        assert report.violations == 0
        assert report.max_violation == 0.0

    def test_negative_control_violates(self):
        report = check_sufficient_condition_horn(
            3, 2, trials=TRIALS, seed=7, negative_control=True
        )
        assert report.violations > 0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            check_sufficient_condition_horn(0, 2, trials=10, seed=0)

    def test_k2_overlaps_composition_check(self):
        # same regime as the two-step checker up to the normalization of the
        # product; both report zero violations on their primary form
        horn = check_sufficient_condition_horn(2, 4, trials=TRIALS, seed=3)
        comp = check_sufficient_condition_composition(4, trials=TRIALS, seed=3)
        assert horn.violations == 0 and comp.violations == 0

    def test_k3_d4_regression(self):
        report = check_sufficient_condition_horn(3, 4, trials=TRIALS, seed=11)
        assert report.violations == 0


class TestUnrestrictedSearch:
    def test_reports_contract(self):
        report = counterexample_search_unrestricted(2, 4, trials=TRIALS, seed=3)
        assert report.trials == TRIALS
        assert 0 <= report.violations <= report.trials
        assert report.tolerance == 1e-9

    def test_aligned_subset_has_no_violations(self):
        aligned = check_sufficient_condition_horn(2, 4, trials=TRIALS, seed=3)
        assert aligned.violations == 0

    def test_hand_picked_misaligned_phases_violate(self):
        # d=1, R=1: body and head both the pure-imaginary unit relation, so the
        # entailment construction holds exactly. Entity phases sum with the
        # relation phase to pi, flipping the head score negative while the
        # body magnitude stays positive.
        c0, c1 = 0.9, 0.8
        table = EmbeddingTable(
            ent_re=np.array([[0.0], [c1]]),
            ent_im=np.array([[c0], [0.0]]),
            rel_re=np.array([[0.0], [0.0]]),
            rel_im=np.array([[1.0], [1.0]]),
            bound=1.0,
        )
        phi_body = score(table, Triple(0, 0, 1))
        phi_head = score(table, Triple(0, 1, 1))
        assert phi_body == pytest.approx(-c0 * c1)
        assert abs(phi_body) > phi_head  # |LHS| exceeds the signed RHS


class TestReports:
    def test_invariants(self):
        report = check_sufficient_condition_horn(2, 2, trials=500, seed=1)
        assert report.violations <= report.trials
        if report.violations == 0:
            assert report.max_violation == 0.0
        assert report.ok

    def test_format_and_write(self, tmp_path):
        reports = [
            check_sufficient_condition_composition(2, trials=200, seed=0),
            check_sufficient_condition_horn(1, 2, trials=200, seed=0),
        ]
        line = format_report(reports[0])
        assert "composition" in line and "violations=0" in line
        p = tmp_path / "reports.txt"
        write_reports(p, reports, extra={"suite": "unit"})
        text = p.read_text().strip().split("\n")
        assert text[0] == "# suite = unit"
        assert len(text) == 3

    def test_default_suite_small(self):
        reports, controls, passed = default_suite(trials=500, seed=5, dims=(2,), ks=(1, 2))
        assert passed
        assert all(isinstance(r, TheoremReport) for r in reports + controls)


# (kind, k, d, skipped, violations, violations_alt) of every report of
# default_suite(trials=500, seed=5, dims=(2, 8), ks=(1, 2, 3)), checks then
# controls; any change to the order or number of draws moves them.
PINNED_SUITE = [
    ("composition", 2, 2, 0, 0, 59),
    ("horn", 1, 2, 0, 0, 0),
    ("horn", 2, 2, 0, 0, 0),
    ("horn", 3, 2, 0, 0, 0),
    ("composition", 2, 8, 0, 0, 201),
    ("horn", 1, 8, 0, 0, 0),
    ("horn", 2, 8, 0, 0, 0),
    ("horn", 3, 8, 0, 0, 0),
    ("composition-control", 2, 2, 0, 270, 358),
    ("horn-control", 3, 2, 0, 171, 95),
]
# k -> (skipped, violations, violations_alt) of
# counterexample_search_unrestricted(k, 4, trials=500, seed=3)
PINNED_UNRESTRICTED = {1: (0, 223, 223), 2: (0, 252, 45), 3: (0, 140, 10)}


class TestPinnedDraws:
    def test_default_suite(self):
        reports, controls, _ = default_suite(trials=500, seed=5, dims=(2, 8), ks=(1, 2, 3))
        found = [
            (r.kind, r.k, r.d, r.skipped, r.violations, r.violations_alt)
            for r in reports + controls
        ]
        assert found == PINNED_SUITE

    @pytest.mark.parametrize("k", sorted(PINNED_UNRESTRICTED))
    def test_unrestricted_search(self, k):
        r = counterexample_search_unrestricted(k, 4, trials=500, seed=3)
        assert (r.skipped, r.violations, r.violations_alt) == PINNED_UNRESTRICTED[k]


TOTAL_RULES = [
    HornRule(body=(0,), head=2, confidence=0.9),
    HornRule(body=(0, 1), head=2, confidence=0.8),
]


def hinge_inactive_point(seed, bound):
    """A feasible table with relation bound ``bound`` and a labeled batch.
    As in acceptance criterion 2, the body relations 0 and 1 are small and
    the head relation 2 has large real parts, so every hinge of
    ``TOTAL_RULES`` is strictly inactive."""
    rng = np.random.default_rng(seed)
    table = make_feasible_table(seed=seed, num_entities=6, num_relations=3, dim=4, bound=bound)
    table.rel_re[:2] = rng.uniform(0.0, 0.25 * bound, (2, 4))
    table.rel_im[:2] = rng.uniform(0.0, 0.25 * bound, (2, 4))
    table.rel_re[2] = rng.uniform(0.6 * bound, 0.7 * bound, 4)
    table.rel_im[2] = rng.uniform(0.0, 0.3 * bound, 4)
    triples = np.column_stack([rng.integers(0, 6, 6), rng.integers(0, 3, 6), rng.integers(0, 6, 6)])
    return table, LabeledBatch(triples, np.where(rng.random(6) < 0.5, 1.0, -1.0))


class TestGradientMachinery:
    def test_quadratic_probe_is_exact(self):
        x = np.array([0.3, -1.2, 2.0, 0.0])
        grad = numerical_gradient(lambda v: float(np.sum(v * v)), x, step=1e-6)
        assert np.allclose(grad, 2 * x, atol=5e-10)

    def test_n3_gradient_away_from_origin(self):
        table = make_feasible_table(seed=21, num_entities=4, num_relations=2, dim=6)
        table.ent_re += 0.15
        table.rel_re += 0.15
        assert gradient_check("n3", table) < 1e-6

    def test_rule_penalty_gradient_hinge_inactive(self):
        table = make_feasible_table(seed=22, num_entities=2, num_relations=4, dim=6)
        table.rel_re[:3] *= 0.25  # body products stay far below the head
        table.rel_re[3] = 0.7
        rules = [
            HornRule(body=(0,), head=3, confidence=0.9),
            HornRule(body=(1, 2), head=3, confidence=0.7),
        ]
        assert gradient_check("rule_penalty", table, rules=rules) < 1e-6

    @given(
        seed=st.integers(0, 2**32 - 1),
        mu=st.sampled_from([0.0, 0.7]),
        eta=st.sampled_from([0.0, 0.05]),
        bound=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_total_gradient(self, seed, mu, eta, bound):
        table, batch = hinge_inactive_point(seed, bound)
        err = gradient_check("total", table, batch=batch, rules=TOTAL_RULES, mu=mu, eta=eta)
        assert err < 1e-5

    def test_total_differentiates_the_merge_of_a_step(self, monkeypatch):
        # a merge that drops the rule block loses the rule term of the
        # relation gradient, and the check must see it
        merge = training.merge_row_grads
        monkeypatch.setattr(
            training, "merge_row_grads", lambda terms, rule, **kw: merge(terms, None, **kw)
        )
        table, batch = hinge_inactive_point(25, 1.0)
        err = gradient_check("total", table, batch=batch, rules=TOTAL_RULES, mu=0.7, eta=0.05)
        assert err > 1e-3

    @pytest.mark.parametrize("function", ["logistic", "rule_penalty", "n3", "total"])
    def test_table_is_left_unchanged(self, function):
        table, batch = hinge_inactive_point(26, 1.0)
        arrays = (table.ent, table.rel_re, table.rel_im)
        before = [a.tobytes() for a in arrays]
        gradient_check(function, table, batch=batch, rules=TOTAL_RULES, mu=0.7, eta=0.05)
        assert [a.tobytes() for a in arrays] == before

    def test_unknown_function_rejected(self):
        table = make_feasible_table(seed=24)
        with pytest.raises(ValueError):
            gradient_check("nonsense", table)
