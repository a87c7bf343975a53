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


@pytest.fixture
def random_kg():
    return make_random_kg


@pytest.fixture
def feasible_table():
    return make_feasible_table
