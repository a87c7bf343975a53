"""Block-wise filtered ranking against the brute-force oracle.

``evaluate`` scores a block of queries with one matrix product and scores
again, with the arithmetic of ``model.score``, only the candidates that the
product cannot order against the true score. Its ranks must therefore equal
those of ``oracles.brute_force_filtered_rank``, which scores every candidate
with ``model.score``, exactly: also where scores tie, as they do for
duplicated rows, constant tables and rows clipped to the box.
"""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hornplex import evaluation
from hornplex.kg import Triple, build_graph
from hornplex.model import init_table, project

from oracles import brute_force_filtered_rank, split_rows

KINDS = ("random", "duplicates", "zero", "constant", "clipped")


def make_case(seed, num_entities, num_relations, dim, kind):
    """A dense random graph, up to 8 of its facts to rank, and a table of
    ``kind``: random; random with the evaluated rows copied onto other
    entities (known and unknown candidates alike); all zero, so every score
    is 0; all 0.5; or d=1 rows drawn wide and clipped to the box, so most
    rows sit on its corners."""
    rng = np.random.default_rng(seed)
    n, m = num_entities, num_relations
    codes = rng.choice(n * n * m, size=min(n * n * m, 3 * n), replace=False)
    facts = [Triple(int(c // (n * m)), int(c // n % m), int(c % n)) for c in codes]
    dicts = ({f"e{i}": i for i in range(n)}, {f"r{i}": i for i in range(m)})
    kg = build_graph(facts, [], [], dicts)
    split = facts[:8]

    if kind == "clipped":
        dim = 1
    table = init_table(n, m, dim, seed=seed)
    if kind == "duplicates":
        evaluated = np.array([(t.head, t.tail) for t in split]).ravel()
        targets = rng.integers(0, n, size=evaluated.size)
        table.ent[targets] = table.ent[evaluated]
    elif kind == "zero":
        table.ent[:] = 0.0
    elif kind == "constant":
        table.ent[:] = 0.5
    elif kind == "clipped":
        table.ent[:] = rng.normal(0.5, 1.0, table.ent.shape)
        project(table)
    return kg, split, table


def rank_and_compare(
    seed, num_entities, num_relations, dim, kind, per_block, compare_rows, side="both"
):
    """Evaluate ``side`` with blocks of ``per_block`` queries and row
    comparisons of ``compare_rows`` rows, require the oracle's ranks, and
    return what the case covered."""
    kg, split, table = make_case(seed, num_entities, num_relations, dim, kind)
    with mock.patch.object(evaluation, "BLOCK_ELEMENTS", per_block * num_entities), \
            mock.patch.object(evaluation, "COMPARE_ELEMENTS", compare_rows * 2 * table.dim):
        report = evaluation.evaluate(table, kg, split, side=side)

    covered = dict.fromkeys(("several_blocks", "tie_with_true", "known_tie_with_true"), False)
    covered["several_blocks"] = report.count > per_block
    known = set(split_rows(kg))
    for entry in report.entries:
        assert entry.rank == brute_force_filtered_rank(table, kg, entry.triple, entry.side)
        h, r, t = entry.triple
        true_entity = t if entry.side == "tail" else h
        for c in np.flatnonzero((table.ent == table.ent[true_entity]).all(axis=1)):
            if c == true_entity:
                continue
            candidate = Triple(h, r, int(c)) if entry.side == "tail" else Triple(int(c), r, t)
            covered["known_tie_with_true" if candidate in known else "tie_with_true"] = True
    return covered


@given(
    seed=st.integers(0, 2**32 - 1),
    num_entities=st.integers(2, 25),
    num_relations=st.integers(1, 3),
    dim=st.integers(1, 4),
    kind=st.sampled_from(KINDS),
    per_block=st.integers(1, 20),
    compare_rows=st.integers(1, 30),
    side=st.sampled_from(("both", "head", "tail")),
)
def test_evaluate_ranks_equal_brute_force_oracle(**case):
    rank_and_compare(**case)


def assert_rank_queries_equal_oracle(kg, table, triples, tail_side, per_block):
    """rank_queries with blocks of ``per_block`` queries gives every query
    the oracle's rank."""
    with mock.patch.object(evaluation, "BLOCK_ELEMENTS", per_block * kg.num_entities):
        ranks = evaluation.rank_queries(table, kg, triples, tail_side)
    assert len(ranks) == len(triples)
    for triple, tail, rank in zip(triples, tail_side, ranks.tolist()):
        assert rank == brute_force_filtered_rank(table, kg, triple, "tail" if tail else "head")


@given(
    seed=st.integers(0, 2**32 - 1),
    num_entities=st.integers(2, 25),
    num_relations=st.integers(1, 3),
    dim=st.integers(1, 4),
    kind=st.sampled_from(KINDS),
    per_block=st.integers(1, 20),
    data=st.data(),
)
def test_rank_queries_with_any_side_mask_equal_brute_force_oracle(
    seed, num_entities, num_relations, dim, kind, per_block, data
):
    """Any order of queries and any mask of sides: a block may hold one side
    only, or both in any pattern."""
    kg, split, table = make_case(seed, num_entities, num_relations, dim, kind)
    picks = data.draw(st.lists(st.integers(0, len(split) - 1), min_size=1, max_size=24))
    tail_side = data.draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    assert_rank_queries_equal_oracle(kg, table, [split[i] for i in picks], tail_side, per_block)


@pytest.mark.parametrize("mask", ["all-tail", "all-head", "one-side-blocks", "uneven"])
@pytest.mark.parametrize("kind", ["random", "duplicates"])
def test_rank_queries_blocks_of_one_side_and_uneven_masks(mask, kind):
    kg, split, table = make_case(11, 15, 2, 3, kind)
    triples = split * 3
    q = len(triples)
    tail_side = {
        "all-tail": [True] * q,
        "all-head": [False] * q,
        "one-side-blocks": [(i // 4) % 2 == 0 for i in range(q)],  # per_block=4 below
        "uneven": (np.random.default_rng(3).random(q) < 0.3).tolist(),
    }[mask]
    assert_rank_queries_equal_oracle(kg, table, triples, tail_side, per_block=4)


@pytest.mark.parametrize("kind", KINDS)
def test_rank_cases_cover_ties_with_the_true_entity_and_block_splits(kind):
    covered = rank_and_compare(
        seed=5, num_entities=12, num_relations=2, dim=2, kind=kind, per_block=3, compare_rows=2
    )
    ties = kind != "random"
    assert covered == {"several_blocks": True, "tie_with_true": ties, "known_tie_with_true": ties}


def test_one_query_per_block_when_a_block_holds_less_than_one_row():
    kg, split, table = make_case(7, 20, 2, 3, "duplicates")
    with mock.patch.object(evaluation, "BLOCK_ELEMENTS", 5):
        report = evaluation.evaluate(table, kg, split)
    for e in report.entries:
        assert e.rank == brute_force_filtered_rank(table, kg, e.triple, e.side)


def test_constant_table_costs_at_most_three_random_tables():
    """Every candidate of a constant table ties with the true entity, so
    every one is in the band; equal rows are scored once per query, so the
    table costs a few passes over the entities, not a Python loop over
    them."""
    n, m, d = 20_000, 8, 64
    rng = np.random.default_rng(0)
    facts = {Triple(*map(int, row)) for row in rng.integers(0, [n, m, n], size=(60_000, 3))}
    dicts = ({f"e{i}": i for i in range(n)}, {f"r{i}": i for i in range(m)})
    kg = build_graph(sorted(facts), [], [], dicts)
    split = sorted(facts)[:16]
    table = init_table(n, m, d, seed=0)

    def seconds_per_call():
        evaluation.evaluate(table, kg, split)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            evaluation.evaluate(table, kg, split)
            times.append(time.perf_counter() - start)
        return min(times)

    random_s = seconds_per_call()
    table.ent[:] = 0.5
    constant_s = seconds_per_call()
    assert constant_s <= 3 * random_s, (constant_s, random_s)
