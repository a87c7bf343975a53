"""The rule kernel, in windows and length groups, against the per-rule
loops in ``oracles``.

The kernel multiplies and sums in the same order as the loops, so losses,
gradients and gaps must be equal, not merely close.
"""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import make_random_kg
from hornplex import evaluation, kernel
from hornplex.evaluation import relation_rule_diagnostics
from hornplex.model import init_table, project
from hornplex.rules import HornRule
from hornplex.training import TrainConfig, rule_penalty, train


@st.composite
def rule_sets(draw):
    """A feasible table and 1-30 rules of length 1-6 over a few relations,
    so bodies repeat relations and heads often appear in their own body."""
    num_relations = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 8))
    # 0.7 and 1.3 are not powers of two, so lam / R^k as one coefficient
    # would round differently from lam * (...) / R^k.
    bound = draw(st.sampled_from([0.5, 1.0, 2.0, 0.7, 1.3]))
    table = project(init_table(2, num_relations, dim, bound, seed=draw(st.integers(0, 2**32 - 1))))
    relation = st.integers(0, num_relations - 1)
    rules = []
    for _ in range(draw(st.integers(1, 30))):
        body = draw(st.lists(relation, min_size=1, max_size=6))
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


@given(rule_sets(), st.sampled_from([8, 64]))
def test_small_windows_change_nothing(case, budget):
    """A budget of 8 or 64 elements cuts the rules into windows of one to a
    few rules, which end inside length groups and hold several of them."""
    table, rules = case
    with mock.patch.object(kernel, "WINDOW_ELEMENTS", budget):
        loss, grads = rule_penalty(table, rules)
        diagnostics = relation_rule_diagnostics(table, rules)
    expected_loss, expected = oracles.rule_penalty(table, rules)
    assert loss == expected_loss
    for part in ("rows", "re", "im"):
        assert np.array_equal(getattr(grads, part), getattr(expected, part))
    for diag, rule in zip(diagnostics, rules, strict=True):
        delta_re, delta_im = oracles.rule_deltas(table, rule)
        assert np.array_equal(diag.delta_re, delta_re)
        assert np.array_equal(diag.delta_im, delta_im)


def test_windows_cut_the_length_groups_in_rule_order():
    lengths = [1, 2, 1, 3, 3, 1, 4, 2, 2, 1, 6]
    with mock.patch.object(kernel, "WINDOW_ELEMENTS", 6 * 2):
        arrays = kernel.RuleArrays.from_rules(
            (HornRule(body=(0,) * k, head=1, confidence=1.0) for k in lengths), 2, 2
        )
    windows = arrays.windows
    seen = []
    for first, count, parts in windows:
        ids = sorted(i for group, lo, hi in parts for i in group.rules[lo:hi].tolist())
        assert first == arrays.starts[ids[0]]
        assert count == sum(lengths[i] + 1 for i in ids)
        assert count <= 6 or len(ids) == 1
        seen += ids
    assert seen == list(range(len(lengths)))
    cut = [(group.length, lo, hi) for _, _, parts in windows for group, lo, hi in parts]
    assert any(lo > 0 for _, lo, _ in cut)  # a group split between windows
    assert any(len(parts) > 1 for _, _, parts in windows)  # a window of several lengths
    assert windows[-1][1] == 7 and len(windows[-1][2]) == 1  # rule 10 alone, over budget


def test_a_packing_is_for_one_relation_count_and_dimension():
    """A packing checked its ids against, and cut its windows for, one table
    shape; a table of another relation count or dimension is refused."""
    rules = [HornRule(body=(0, 1), head=2, confidence=1.0)]
    arrays = kernel.RuleArrays.from_rules(rules, 3, 2)
    table = project(init_table(2, 3, 2, 1.0, seed=0))
    assert rule_penalty(table, arrays)[0] == rule_penalty(table, rules)[0]
    for relations, dim in [(4, 2), (2, 2), (3, 3)]:
        other = project(init_table(2, relations, dim, 1.0, seed=0))
        message = re.escape(f"rules packed for (relations, dim) (3, 2), the table is {(relations, dim)}")
        with pytest.raises(ValueError, match=message):
            rule_penalty(other, arrays)


@given(rule_sets(), st.sampled_from([8, 1000]))
def test_no_group_slice_asks_the_arena_for_more_than_it_holds(case, terms):
    """For arenas of rows of ``dim`` elements that hold 1-3 rules of a
    length the rules have, or a row less, and windows of at most ``terms``
    terms, every request of a length group's slice of a window, and of the
    window's scatter index, fits the arena, a window of one rule over the
    budgets included; the penalty is that of the per-rule loop."""
    table, rules = case
    dim = table.dim
    expected_loss, expected = oracles.rule_penalty(table, rules)
    need = kernel._arena_rows
    rule_terms = kernel._rule_terms
    at = []  # the first rule of each group slice so far

    def recorded(table, group, lo, hi, losses, alloc):
        at.append(int(group.rules[lo]))
        return rule_terms(table, group, lo, hi, losses, alloc)

    class Fits(kernel.Scratch):
        def __call__(self, shape):
            fits = self.used + math.prod(shape) <= self.buffer.size
            assert fits, f"no room for {shape} at rule {at[-1]}"
            return super().__call__(shape)

    lengths = {len(rule.body) for rule in rules}
    for rows in sorted({need(k) * r - less for k in lengths for r in (1, 2, 3) for less in (0, 1)}):
        with (
            mock.patch.object(kernel, "WINDOW_ELEMENTS", terms * dim),
            mock.patch.object(kernel, "ARENA_ELEMENTS", rows * dim),
            mock.patch.object(kernel, "Scratch", Fits),
            mock.patch.object(kernel, "_rule_terms", recorded),
        ):
            arrays = kernel.RuleArrays.from_rules(rules, table.num_relations, dim)
            loss, grads = rule_penalty(table, arrays)
        assert loss == expected_loss
        for part in ("rows", "re", "im"):
            assert np.array_equal(getattr(grads, part), getattr(expected, part))


@pytest.mark.parametrize("where", ["head", "body"])
@pytest.mark.parametrize("bad", ["-1", "m"])
def test_relation_ids_outside_the_table_are_rejected(where, bad):
    kg = make_random_kg(num_relations=3)
    table = project(init_table(kg.num_entities, 3, 4, 1.0, seed=0))
    bad_id = -1 if bad == "-1" else 3
    odd = (
        HornRule(body=(0, 1), head=bad_id, confidence=0.5)
        if where == "head"
        else HornRule(body=(0, bad_id), head=1, confidence=0.5)
    )
    rules = [HornRule(body=(0,), head=1, confidence=1.0), odd]
    message = rf"rule 1: relation id {bad_id} outside \[0, 3\)"
    with pytest.raises(ValueError, match=message):
        rule_penalty(table, rules)
    with pytest.raises(ValueError, match=message):
        relation_rule_diagnostics(table, rules)
    with pytest.raises(ValueError, match=message):
        train(kg, rules, TrainConfig(epochs=1, dim=4, mu=1.0))


def test_empty_rule_list():
    table = project(init_table(2, 3, 4, 1.0, seed=0))
    loss, grads = rule_penalty(table, [])
    assert loss == 0.0
    assert grads.rows.size == 0 and grads.re.shape == (0, 4) and grads.im.shape == (0, 4)
    assert relation_rule_diagnostics(table, []) == []


def _random_rules(num_rules, num_relations, seed, max_length=4):
    """``num_rules`` rules with bodies of 1 to ``max_length`` relations."""
    rng = np.random.default_rng(seed)
    m = num_relations
    return [
        HornRule(body=tuple(rng.integers(0, m, rng.integers(1, max_length + 1))),
                 head=int(rng.integers(m)), confidence=0.8)
        for _ in range(num_rules)
    ]


def _penalty_peak_bytes(table, num_rules):
    rules = kernel.RuleArrays.from_rules(
        _random_rules(num_rules, table.num_relations, num_rules), table.num_relations, table.dim
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


@pytest.mark.parametrize("bound", [1.0, 1.3])
@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_diagnostic_chunks_change_nothing(bound, chunk):
    """Chunks of 1, 3 or 7 rules cut 40 rules of length 1-6 inside their
    length groups, and each chunk groups its own rules."""
    table = project(init_table(2, 5, 4, bound, seed=chunk))
    rules = _random_rules(40, 5, seed=chunk, max_length=6)
    with mock.patch.object(evaluation, "DIAGNOSTIC_ELEMENTS", chunk * table.dim):
        diagnostics = relation_rule_diagnostics(table, rules)
    for i, (diag, rule) in enumerate(zip(diagnostics, rules, strict=True)):
        delta_re, delta_im = oracles.rule_deltas(table, rule)
        assert diag.rule_id == i and diag.rule is rule
        assert np.array_equal(diag.delta_re, delta_re)
        assert np.array_equal(diag.delta_im, delta_im)


def test_a_relation_outside_the_table_in_a_later_chunk_names_the_rule():
    table = project(init_table(2, 3, 4, 1.0, seed=0))
    rules = [HornRule(body=(0, 2), head=1, confidence=1.0)] * 9
    rules[7] = HornRule(body=(0, 3), head=1, confidence=1.0)  # second of chunk 6:9
    with mock.patch.object(evaluation, "DIAGNOSTIC_ELEMENTS", 3 * table.dim):
        with pytest.raises(ValueError, match=r"^rule 7: relation id 3 outside \[0, 3\)$"):
            relation_rule_diagnostics(table, rules)


def _diagnostics_memory(table, num_rules):
    """(bytes still held with the records alive, peak bytes) of one call."""
    rules = _random_rules(num_rules, table.num_relations, num_rules)
    tracemalloc.start()
    try:
        diagnostics = relation_rule_diagnostics(table, rules)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(diagnostics) == num_rules
    return held, peak


@pytest.mark.parametrize("bound", [1.0, 1.3])
def test_diagnostics_hold_two_vectors_per_rule(bound):
    """At d=64 the records of 5,000 rules hold their 4.9 MiB of gaps and
    little more, and the call's other arrays are a chunk's, as at 500
    rules."""
    table = project(init_table(2, 24, 64, bound, seed=0))
    held_500, peak_500 = _diagnostics_memory(table, 500)
    held, peak = _diagnostics_memory(table, 5000)
    assert held <= 7.5 * 2**20
    assert peak <= 10 * 2**20
    assert peak - held <= 1.1 * (peak_500 - held_500)
