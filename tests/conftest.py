import hypothesis
import numpy as np
import pytest

from hornplex.kg import Triple, build_graph
from hornplex.model import init_table, project

# "ci" is the default; select "thorough" with --hypothesis-profile=thorough.
hypothesis.settings.register_profile("ci", max_examples=40, deadline=None)
hypothesis.settings.register_profile("thorough", max_examples=500, deadline=None)
hypothesis.settings.load_profile("ci")


def make_random_kg(seed=0, num_entities=12, num_relations=3, num_train=30, num_valid=5, num_test=5):
    """Small random graph with dense indices, shared dictionaries, and
    disjoint splits (distinct triples partitioned into train/valid/test)."""
    rng = np.random.default_rng(seed)
    total = num_train + num_valid + num_test
    triples = []
    seen = set()
    while len(triples) < total:
        t = Triple(
            int(rng.integers(0, num_entities)),
            int(rng.integers(0, num_relations)),
            int(rng.integers(0, num_entities)),
        )
        if t not in seen:
            seen.add(t)
            triples.append(t)

    dicts = (
        {f"e{i}": i for i in range(num_entities)},
        {f"r{i}": i for i in range(num_relations)},
    )
    return build_graph(
        triples[:num_train],
        triples[num_train : num_train + num_valid],
        triples[num_train + num_valid :],
        dicts,
    )


def make_feasible_table(seed=0, num_entities=12, num_relations=3, dim=4, bound=1.0):
    table = init_table(num_entities, num_relations, dim, bound, seed=seed)
    project(table)
    return table


def assert_row_slices(whole, ent, rel, num_entities):
    """``ent`` and ``rel`` are the C-contiguous entity and relation row
    slices of the one C-contiguous matrix ``whole``: ``ent`` at its start
    and ``rel`` n * 2d * 8 bytes in."""
    start = whole.__array_interface__["data"][0]
    assert whole.flags.c_contiguous and ent.flags.c_contiguous and rel.flags.c_contiguous
    assert np.shares_memory(whole, ent) and np.shares_memory(whole, rel)
    assert ent.__array_interface__["data"][0] == start
    assert rel.__array_interface__["data"][0] == start + num_entities * whole.shape[1] * 8
    assert ent.shape[0] == num_entities and ent.shape[0] + rel.shape[0] == whole.shape[0]


@pytest.fixture
def random_kg():
    return make_random_kg


@pytest.fixture
def feasible_table():
    return make_feasible_table
