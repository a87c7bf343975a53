"""The blocked rule kernel against the per-rule loops in ``oracles``.

The kernel multiplies and sums in the same order as the loops, so losses,
gradients and gaps must be equal, not merely close.
"""

import tracemalloc

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import oracles
from hornplex.evaluation import relation_rule_diagnostics
from hornplex.model import init_table, project
from hornplex.rules import HornRule
from hornplex.training import compile_rules, rule_penalty


@st.composite
def rule_sets(draw):
    """A feasible table and 1-30 rules of length 1-4 over a few relations,
    so bodies repeat relations and heads often appear in their own body."""
    num_relations = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 8))
    bound = draw(st.sampled_from([0.5, 1.0, 2.0]))
    table = project(init_table(2, num_relations, dim, bound, seed=draw(st.integers(0, 2**32 - 1))))
    relation = st.integers(0, num_relations - 1)
    rules = []
    for _ in range(draw(st.integers(1, 30))):
        body = draw(st.lists(relation, min_size=1, max_size=4))
        head = draw(st.one_of(st.sampled_from(body), relation))
        confidence = draw(st.sampled_from([1.0, 0.9, 0.5, 0.25, 0.1]))
        rules.append(HornRule(body=tuple(body), head=head, confidence=confidence))
    return table, rules


@given(rule_sets())
def test_rule_penalty_equals_per_rule_loop(case):
    table, rules = case
    loss, grads = rule_penalty(table, rules)
    expected_loss, expected = oracles.rule_penalty(table, rules)
    assert loss == expected_loss
    assert np.array_equal(grads.rows, expected.rows)
    assert np.array_equal(grads.re, expected.re)
    assert np.array_equal(grads.im, expected.im)


@given(rule_sets())
def test_diagnostics_equal_per_rule_products(case):
    table, rules = case
    diagnostics = relation_rule_diagnostics(table, rules)
    assert [d.rule_id for d in diagnostics] == list(range(len(rules)))
    for diag, rule in zip(diagnostics, rules):
        delta_re, delta_im = oracles.rule_deltas(table, rule)
        assert diag.rule is rule
        assert np.array_equal(diag.delta_re, delta_re)
        assert np.array_equal(diag.delta_im, delta_im)


def test_empty_rule_list():
    table = project(init_table(2, 3, 4, 1.0, seed=0))
    loss, grads = rule_penalty(table, [])
    assert loss == 0.0
    assert grads.rows.size == 0 and grads.re.shape == (0, 4) and grads.im.shape == (0, 4)
    assert relation_rule_diagnostics(table, []) == []


def _penalty_peak_bytes(table, num_rules):
    rng = np.random.default_rng(num_rules)
    m = table.num_relations
    rules = compile_rules(
        HornRule(body=tuple(rng.integers(0, m, rng.integers(1, 5))), head=int(rng.integers(m)),
                 confidence=0.8)
        for _ in range(num_rules)
    )
    tracemalloc.start()
    try:
        rule_penalty(table, rules)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rule_penalty_memory_does_not_grow_with_rule_count():
    table = project(init_table(2, 24, 64, 1.0, seed=0))
    at_500 = _penalty_peak_bytes(table, 500)
    at_5000 = _penalty_peak_bytes(table, 5000)
    assert at_5000 <= 1.1 * at_500
    assert at_5000 < 4 * 2**20
