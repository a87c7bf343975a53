import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hornplex.evaluation import (
    evaluate,
    filtered_rank,
    mean_hinge_violation,
    rank_queries,
    read_metrics,
    relation_rule_diagnostics,
    write_diagnostics_csv,
    write_diagnostics_summary,
    write_metrics,
)
from hornplex.experiments import make_planted_kg
from hornplex.kg import Triple, build_graph
from hornplex.model import EmbeddingTable, init_table
from hornplex.rules import HornRule

from conftest import make_feasible_table, make_random_kg
from oracles import brute_force_filtered_rank, brute_force_report


U = Fraction(1, 2**53)  # the unit roundoff of float64


def gamma(k):
    return k * U / (1 - k * U)


# Zeros and normal parts of either sign, from 2**-300 to 2**300: no product
# of two or three of them overflows or falls below 2**-1022.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(2.0**-300, 2.0**300).flatmap(lambda x: st.sampled_from([x, -x])),
)


def complex_arrays(size):
    return st.lists(PARTS, min_size=2 * size, max_size=2 * size).map(
        lambda parts: np.array(parts).view(np.complex128)
    )


@given(st.integers(1, 40).flatmap(lambda size: st.tuples(complex_arrays(size), complex_arrays(size))))
def test_a_complex_product_rounds_each_part_at_most_twice(pair):
    """numpy's complex multiply, on arrays of every length its SIMD loops
    and their tails see: each part of (a + bi)(c + di) is within
    gamma_2 * (|a c| + |b d|) or gamma_2 * (|a d| + |b c|) of the exact
    value, the per-term count ``evaluation._rank_block``'s bound takes."""
    x, y = pair
    z = np.multiply(x, y)
    for (a, b), (c, d), (re, im) in zip(x.view(np.float64).reshape(-1, 2).tolist(),
                                        y.view(np.float64).reshape(-1, 2).tolist(),
                                        z.view(np.float64).reshape(-1, 2).tolist()):
        a, b, c, d = map(Fraction, (a, b, c, d))
        assert abs(Fraction(re) - (a * c - b * d)) <= gamma(2) * (abs(a * c) + abs(b * d))
        assert abs(Fraction(im) - (a * d + b * c)) <= gamma(2) * (abs(a * d) + abs(b * c))


@given(st.integers(1, 70).flatmap(lambda size: st.tuples(complex_arrays(size), complex_arrays(size))))
def test_the_real_part_of_a_complex_dot_is_a_dot_of_2d_products(pair):
    """The real part of ``np.vecdot(t, v)`` over d components is within
    gamma_2d * sum_l (|t_re v_re| + |t_im v_im|) of the exact value: at most
    2d roundings per term, whatever order BLAS sums in."""
    t, v = pair
    got = Fraction(float(np.vecdot(t, v).real))
    terms = [Fraction(p) * Fraction(q) for p, q in zip(t.view(np.float64).tolist(), v.view(np.float64).tolist())]
    assert abs(got - sum(terms)) <= gamma(2 * t.size) * sum(map(abs, terms))


def singleton_kg(num_entities=5):
    dicts = ({f"e{i}": i for i in range(num_entities)}, {"r": 0})
    return build_graph([Triple(0, 0, 1)], [], [], dicts)


def strict_max_table():
    # with r = i: tail-side scores are im_t, head-side scores are re_h, so the
    # true pair (0, r, 1) wins strictly on both sides
    return EmbeddingTable(
        ent_re=np.array([[1.0], [0.0], [0.2], [0.1], [0.05]]),
        ent_im=np.array([[0.0], [1.0], [0.0], [0.0], [0.0]]),
        rel_re=np.array([[0.0]]),
        rel_im=np.array([[1.0]]),
        bound=1.0,
    )


def test_rank_one_for_strict_maximum():
    kg = singleton_kg()
    table = strict_max_table()
    assert filtered_rank(table, kg, Triple(0, 0, 1), "tail") == 1.0
    assert filtered_rank(table, kg, Triple(0, 0, 1), "head") == 1.0


def test_full_tie_rank():
    kg = singleton_kg(num_entities=6)
    table = make_feasible_table(seed=1, num_entities=6, num_relations=1, dim=3)
    table.rel_re[0] = 0.0
    table.rel_im[0] = 0.0  # every candidate scores exactly 0
    rank = filtered_rank(table, kg, Triple(0, 0, 1), "tail")
    assert rank == 1 + (6 - 1) / 2


def test_rank_requires_known_triple():
    kg = singleton_kg()
    table = make_feasible_table(seed=2, num_entities=5, num_relations=1)
    with pytest.raises(ValueError, match="not a known triple"):
        filtered_rank(table, kg, Triple(3, 0, 4), "tail")


@pytest.mark.parametrize(
    "triple, side",
    [((65, -1, 170), "tail"), ((11, 2, -1), "head"), ((200, 0, 0), "tail"), ((0, 12, 0), "head")],
)
def test_ranking_rejects_ids_outside_the_graph(triple, side):
    """Unchecked, (65, -1, 170) took the filter code of the known (64, 11,
    170) and ranked 2.0 on the tail side, scored with relation 11; (11, 2,
    -1) ranked 7.0 on the head side, and evaluating the first gave MRR 0.5.
    The first triple out of range is named, before any ranking."""
    kg, _ = make_planted_kg(seed=0)
    table = init_table(200, 12, 8, seed=0)
    message = re.escape(f"{Triple(*triple)} has an id outside the graph's 200 entities and 12 relations")
    with pytest.raises(ValueError, match=message):
        rank_queries(table, kg, [kg.train[0], triple, (-5, 0, 0)], [side == "tail"] * 3)
    with pytest.raises(ValueError, match=message):
        filtered_rank(table, kg, triple, side)
    with pytest.raises(ValueError, match=message):
        evaluate(table, kg, [triple], side=side)


@pytest.mark.parametrize("sides", [[True], [], [False] * 6, [[True, False]] * 5])
def test_rank_queries_rejects_a_tail_side_of_another_length(sides):
    kg = make_random_kg(seed=17, num_entities=10, num_relations=2, num_test=5)
    table = make_feasible_table(seed=17, num_entities=10, num_relations=2)
    size = np.asarray(sides).size
    with pytest.raises(ValueError, match=f"^{size} tail_side values for 5 triples$"):
        rank_queries(table, kg, kg.test, sides)


@pytest.mark.parametrize("entities, relations", [(6, 2), (2, 2), (3, 1)])
def test_ranking_rejects_a_table_of_other_counts_than_the_graph(entities, relations):
    """A larger table used to rank without an error, a smaller one to fail
    with a bare IndexError."""
    dicts = ({"a": 0, "b": 1, "c": 2}, {"r": 0, "s": 1})
    kg = build_graph([Triple(0, 0, 1), Triple(1, 1, 2)], [], [], dicts)
    table = make_feasible_table(seed=4, num_entities=entities, num_relations=relations)
    message = (
        rf"^the table holds {entities} entities and {relations} relations, "
        r"but the graph has 3 entities and 2 relations$"
    )
    with pytest.raises(ValueError, match=message):
        evaluate(table, kg, kg.train)
    with pytest.raises(ValueError, match=message):
        filtered_rank(table, kg, Triple(0, 0, 1), "head")
    with pytest.raises(ValueError, match=message):
        rank_queries(table, kg, kg.train, [True, False])


def test_rank_rejects_bad_side():
    kg = singleton_kg()
    table = make_feasible_table(seed=2, num_entities=5, num_relations=1)
    with pytest.raises(ValueError, match="side"):
        filtered_rank(table, kg, Triple(0, 0, 1), "middle")


@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_brute_force_oracle(seed):
    kg = make_random_kg(seed=seed, num_entities=15, num_relations=3, num_train=40)
    table = make_feasible_table(seed=seed + 100, num_entities=15, num_relations=3, dim=4)
    for t in kg.test:
        for side in ("head", "tail"):
            fast = filtered_rank(table, kg, t, side)
            slow = brute_force_filtered_rank(table, kg, t, side)
            assert fast == slow


def test_rank_invariant_under_monotone_transform():
    kg = make_random_kg(seed=9, num_entities=12, num_relations=2, num_train=30)
    table = make_feasible_table(seed=9, num_entities=12, num_relations=2, dim=4)
    scaled = table.copy()
    scaled.ent_re *= 2.0  # doubles every score exactly, order preserved
    scaled.ent_im *= 2.0
    for t in kg.test:
        for side in ("head", "tail"):
            assert filtered_rank(table, kg, t, side) == filtered_rank(scaled, kg, t, side)


def test_evaluate_aggregates_and_sides():
    kg = make_random_kg(seed=10, num_entities=10, num_relations=2, num_test=6)
    table = make_feasible_table(seed=10, num_entities=10, num_relations=2)
    both = evaluate(table, kg, kg.test)
    assert both.count == 2 * len(kg.test)
    ranks = np.array([e.rank for e in both.entries])
    assert both.mrr == float(np.mean(1.0 / ranks))
    for k, v in both.hits_at.items():
        assert v == float(np.mean(ranks <= k))
    head_only = evaluate(table, kg, kg.test, side="head")
    assert head_only.count == len(kg.test)
    assert all(e.side == "head" for e in head_only.entries)


def test_evaluate_matches_oracle_aggregates():
    kg = make_random_kg(seed=11, num_entities=12, num_relations=2, num_test=5)
    table = make_feasible_table(seed=11, num_entities=12, num_relations=2)
    report = evaluate(table, kg, kg.test)
    _, mrr, hits_at = brute_force_report(table, kg, kg.test)
    assert report.mrr == pytest.approx(mrr)
    assert report.hits_at == pytest.approx(hits_at)


def test_perfect_model_metrics():
    kg = singleton_kg()
    report = evaluate(strict_max_table(), kg, kg.train)
    assert report.mrr == 1.0
    assert report.hits_at[1] == 1.0


def test_evaluate_rejects_empty_split():
    kg = singleton_kg()
    table = make_feasible_table(seed=3, num_entities=5, num_relations=1)
    with pytest.raises(ValueError):
        evaluate(table, kg, [])


@pytest.mark.parametrize(
    "array, value, message",
    [("ent_re", np.nan, "entity"), ("ent_im", np.inf, "entity"), ("rel_im", -np.inf, "relation")],
)
def test_evaluate_rejects_non_finite_table(array, value, message):
    kg = make_random_kg(seed=16, num_entities=10, num_relations=2, num_test=4)
    table = make_feasible_table(seed=16, num_entities=10, num_relations=2)
    getattr(table, array)[1, 1] = value
    with pytest.raises(ValueError, match=f"the {message} table holds a NaN or infinite component"):
        evaluate(table, kg, kg.test)


def test_hits_threshold_counting():
    kg = make_random_kg(seed=13, num_entities=18, num_relations=2, num_test=8)
    table = make_feasible_table(seed=13, num_entities=18, num_relations=2)
    report = evaluate(table, kg, kg.test, hits=(1, 3, 10, 10**6))
    ranks = np.array([e.rank for e in report.entries])
    assert report.hits_at[10] == pytest.approx(float(np.mean(ranks <= 10)))
    assert report.hits_at[10**6] == 1.0
    ks = sorted(report.hits_at)
    values = [report.hits_at[k] for k in ks]
    assert values == sorted(values)  # nondecreasing in k


class Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


class TestDiagnostics:
    def table_with_rows(self, rows_re, rows_im, bound=1.0):
        rows_re = np.asarray(rows_re, dtype=float)
        rows_im = np.asarray(rows_im, dtype=float)
        return EmbeddingTable(
            ent_re=np.ones((2, rows_re.shape[1])),
            ent_im=np.zeros((2, rows_re.shape[1])),
            rel_re=rows_re,
            rel_im=rows_im,
            bound=bound,
        )

    def test_satisfied_rule_has_no_violation(self):
        table = self.table_with_rows([[0.2, 0.1], [0.5, 0.4]], [[0.3, 0.2], [0.3, 0.2]])
        rule = HornRule(body=(0,), head=1, confidence=1.0)
        (diag,) = relation_rule_diagnostics(table, [rule])
        assert np.all(diag.delta_re <= 0.0)
        assert np.all(diag.delta_im == 0.0)
        assert diag.hinge_sum == 0.0

    def test_identity_rule_zero_deltas(self):
        table = self.table_with_rows([[0.4, 0.2], [0.4, 0.2]], [[0.1, 0.3], [0.1, 0.3]])
        rule = HornRule(body=(0,), head=1, confidence=1.0)
        (diag,) = relation_rule_diagnostics(table, [rule])
        assert np.all(diag.delta_re == 0.0)
        assert np.all(diag.delta_im == 0.0)

    def test_summary_fields(self):
        table = self.table_with_rows([[0.8], [0.5]], [[0.4], [0.1]])
        rule = HornRule(body=(0,), head=1, confidence=1.0)
        (diag,) = relation_rule_diagnostics(table, [rule])
        assert diag.max_delta_re == pytest.approx(0.3)
        assert diag.mean_sq_delta_im == pytest.approx(0.09)
        assert diag.hinge_sum == pytest.approx(0.3)
        assert mean_hinge_violation([diag]) == pytest.approx(0.3)

    def test_csv_outputs(self, tmp_path):
        table = self.table_with_rows([[0.8, 0.2], [0.5, 0.5]], [[0.4, 0.0], [0.1, 0.0]])
        rules = [HornRule(body=(0,), head=1, confidence=1.0)]
        diags = relation_rule_diagnostics(table, rules)
        long_path = tmp_path / "diag.csv"
        write_diagnostics_csv(long_path, diags)
        lines = long_path.read_text().strip().split("\n")
        assert lines[0] == "rule_id,dim,delta_re,delta_im"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert int(row[0]) == 0 and int(row[1]) == 0
        assert float(row[2]) == pytest.approx(0.3)
        summary_path = tmp_path / "summary.csv"
        write_diagnostics_summary(summary_path, diags)
        assert "rule_id,max_delta_re,mean_sq_delta_im,hinge_sum" in summary_path.read_text()

    @pytest.mark.parametrize("write", [write_diagnostics_csv, write_diagnostics_summary])
    def test_failed_write_keeps_previous_file(self, tmp_path, write):
        table = self.table_with_rows([[0.8], [0.5]], [[0.4], [0.1]])
        diags = relation_rule_diagnostics(table, [HornRule(body=(0,), head=1, confidence=1.0)])
        p = tmp_path / "diagnostics.csv"
        write(p, diags)
        previous = p.read_text()
        with pytest.raises(RuntimeError, match="cannot format"):
            write(p, diags, extra={"a": 1, "b": Unprintable()})
        assert p.read_text() == previous
        assert sorted(tmp_path.iterdir()) == [p]


def test_metrics_file_round_trip(tmp_path):
    kg = make_random_kg(seed=14, num_test=4)
    table = make_feasible_table(seed=14)
    report = evaluate(table, kg, kg.test)
    p = tmp_path / "metrics.txt"
    write_metrics(p, report, extra={"seed": 14})
    text = p.read_text()
    assert "# seed = 14" in text
    values = read_metrics(p)
    assert values["mrr"] == pytest.approx(report.mrr)
    assert values["hits@10"] == pytest.approx(report.hits_at[10])
    assert values["count"] == report.count


def test_read_metrics_names_the_file_and_line_of_a_malformed_line(tmp_path):
    p = tmp_path / "metrics.txt"
    for bad in ("hits@1 = many", "count"):
        p.write_text(f"# seed = 1\nmrr = 0.5\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_metrics(p)
        assert str(err.value) == f"{p}:3: expected 'key = number', got {bad!r}"


def test_failed_metrics_write_keeps_previous_file(tmp_path):
    kg = make_random_kg(seed=15, num_test=4)
    report = evaluate(make_feasible_table(seed=15), kg, kg.test)
    p = tmp_path / "metrics.txt"
    write_metrics(p, report)
    previous = p.read_text()

    with pytest.raises(RuntimeError, match="cannot format"):
        write_metrics(p, report, extra={"a": 1, "b": Unprintable()})
    assert p.read_text() == previous
    assert sorted(tmp_path.iterdir()) == [p]
