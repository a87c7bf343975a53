"""The planted-rule graph generator."""

from unittest import mock

import numpy as np
import pytest

from hornplex import experiments
from hornplex.experiments import _sample_block_pairs, make_planted_kg

default_rng = np.random.default_rng


class Budgeted:
    """A numpy Generator whose ``integers`` fails the test after ``calls``
    calls, so that a draw that never ends fails instead of hanging."""

    def __init__(self, seed, calls=1000):
        self.rng = default_rng(seed)
        self.calls = calls

    def integers(self, *args, **kwargs):
        self.calls -= 1
        assert self.calls >= 0, "the draw does not end"
        return self.rng.integers(*args, **kwargs)

    def permutation(self, *args):
        return self.rng.permutation(*args)


@pytest.mark.parametrize(
    "entities, message",
    [
        # 200 base edges among 10 x 10 pairs
        (10, "blocks 0 x 1 hold 100 free entity pairs, too few for the 200 asked"),
        # composition noise needs more pairs than the joined facts leave free
        (30, "blocks 0 x 2 hold 182 free entity pairs, too few for the 538 asked"),
    ],
)
def test_a_graph_too_small_for_its_edges_is_rejected(entities, message):
    with (
        mock.patch.object(experiments.np.random, "default_rng", Budgeted),
        pytest.raises(ValueError, match=f"^{message}$"),
    ):
        make_planted_kg(num_entities=entities)


def test_taken_pairs_are_not_free():
    blocks = [range(0, 2), range(2, 4)]
    taken = [(0, 2), (1, 3), (2, 0)]  # (2, 0) lies outside blocks 0 x 1
    rng = Budgeted(0)
    assert sorted(_sample_block_pairs(rng, blocks, 0, 1, 2, taken)) == [(0, 3), (1, 2)]
    with pytest.raises(ValueError, match="hold 2 free entity pairs, too few for the 3 asked"):
        _sample_block_pairs(rng, blocks, 0, 1, 3, taken)


def test_graphs_that_fit_are_built():
    kg, rules = make_planted_kg(num_entities=40, edges_per_relation=20)
    assert kg.num_entities == 40 and len(rules) == 8
