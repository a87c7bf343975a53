import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hornplex import training
from hornplex.config import load_run_config
from hornplex.kg import Triple, build_graph
from hornplex.model import EmbeddingTable, init_table, is_feasible
from hornplex.rules import HornRule
from hornplex.training import (
    AdagradState,
    LabeledBatch,
    RowGrads,
    TrainConfig,
    TrainingDiverged,
    adagrad_step,
    load_checkpoint,
    logistic_loss,
    n3_regularization,
    read_training_log,
    rule_penalty,
    sample_negatives,
    save_checkpoint,
    train,
    write_training_log,
)
from hornplex.verify import gradient_check

from oracles import naive_contains
from conftest import assert_row_slices, make_feasible_table, make_random_kg


def relation_table(rel_re, rel_im, bound=1.0):
    rel_re = np.atleast_2d(np.asarray(rel_re, dtype=float))
    rel_im = np.atleast_2d(np.asarray(rel_im, dtype=float))
    return EmbeddingTable(
        ent_re=np.ones((2, rel_re.shape[1])),
        ent_im=np.zeros((2, rel_re.shape[1])),
        rel_re=rel_re,
        rel_im=rel_im,
        bound=bound,
    )


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(mu=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(negatives_per_positive=0)

    @pytest.mark.parametrize(
        "field", ["batch_size", "epochs", "validate_every", "negatives_per_positive", "dim", "seed"]
    )
    @pytest.mark.parametrize("value", [2.5, math.inf, True], ids=["fraction", "inf", "bool"])
    def test_integer_field_rejects_a_non_integer(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            TrainConfig(seed=-1)

    def test_negative_validate_every_is_rejected(self):
        with pytest.raises(ValueError, match="validate_every must be non-negative"):
            TrainConfig(validate_every=-3)
        assert TrainConfig(validate_every=0).validate_every == 0  # never validate

    def test_negative_validate_every_in_a_config_file_names_the_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nvalidate_every = -3\n")
        with pytest.raises(ValueError) as err:
            load_run_config(path)
        assert str(err.value) == f"{path}: [train] validate_every must be non-negative"

    def test_integer_fields_take_numpy_integers(self):
        assert TrainConfig(epochs=np.int64(2), dim=np.int32(4)).dim == 4

    @pytest.mark.parametrize("field", ["learning_rate", "mu", "eta", "bound"])
    def test_nan_is_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: math.nan})

    @pytest.mark.parametrize("field", ["learning_rate", "mu", "eta", "bound"])
    def test_nan_in_a_config_file_names_the_file(self, tmp_path, field):
        path = tmp_path / "run.ini"
        path.write_text(f"[train]\n{field} = nan\n")
        with pytest.raises(ValueError) as err:
            load_run_config(path)
        assert str(err.value).startswith(f"{path}: [train] ")
        assert field in str(err.value)

    @pytest.mark.parametrize("field", ["learning_rate", "mu", "eta", "bound"])
    def test_inf_is_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: math.inf})

    @pytest.mark.parametrize("field", ["learning_rate", "mu", "eta", "bound"])
    def test_inf_in_a_config_file_names_the_file(self, tmp_path, field):
        path = tmp_path / "run.ini"
        path.write_text(f"[train]\n{field} = inf\n")
        with pytest.raises(ValueError) as err:
            load_run_config(path)
        assert str(err.value).startswith(f"{path}: [train] ")
        assert field in str(err.value)

    def test_labeled_batch_validation(self):
        with pytest.raises(ValueError):
            LabeledBatch(np.zeros((2, 3), dtype=int), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            LabeledBatch(np.zeros((2, 3), dtype=int), np.array([1.0]))

    @pytest.mark.parametrize("label", [0.5, 0.0, -2.0, math.nan, math.inf])
    def test_a_caller_batch_rejects_labels_other_than_plus_or_minus_one(self, label):
        with pytest.raises(ValueError, match="labels must be"):
            LabeledBatch(np.zeros((2, 3), dtype=int), np.array([1.0, label]))

    def test_train_builds_its_batches_through_the_label_check(self, monkeypatch):
        checked = []
        post_init = LabeledBatch.__post_init__
        monkeypatch.setattr(
            LabeledBatch, "__post_init__", lambda batch: checked.append(1) or post_init(batch)
        )
        kg = make_random_kg(seed=11, num_train=40)
        train(kg, [], TrainConfig(batch_size=16, epochs=2, validate_every=0, dim=4))
        assert len(checked) == 6  # batches of 16, 16 and 8 positives, twice


class TestLogisticLoss:
    def test_zero_scores_give_log2_each(self):
        table = make_feasible_table(seed=1, dim=4)
        table.rel_re[0] = 0.0
        table.rel_im[0] = 0.0
        batch = LabeledBatch(
            np.array([[0, 0, 1], [2, 0, 3], [4, 0, 5]]), np.array([1.0, -1.0, 1.0])
        )
        loss, _ = logistic_loss(table, batch)
        assert loss == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_large_positive_score_is_stable(self):
        table = relation_table([[1.0]], [[0.0]])
        table.ent_re[0, 0] = 50.0
        batch = LabeledBatch(np.array([[0, 0, 1]]), np.array([1.0]))
        loss, _ = logistic_loss(table, batch)
        assert 0.0 < loss < 1e-20

    def test_large_negative_score_no_overflow(self):
        table = relation_table([[1.0]], [[0.0]])
        table.ent_re[0, 0] = 500.0
        batch = LabeledBatch(np.array([[0, 0, 1]]), np.array([-1.0]))
        loss, _ = logistic_loss(table, batch)
        assert loss == pytest.approx(500.0, rel=1e-12)

    def test_empty_batch_rejected(self):
        table = make_feasible_table()
        with pytest.raises(ValueError):
            logistic_loss(table, LabeledBatch(np.zeros((0, 3), dtype=int), np.zeros(0)))

    def test_gradient_matches_finite_differences(self):
        table = make_feasible_table(seed=2, num_entities=8, num_relations=3, dim=4)
        batch = LabeledBatch(
            np.array([[0, 0, 1], [2, 1, 3], [4, 2, 5], [1, 0, 6], [0, 0, 1]]),
            np.array([1.0, -1.0, 1.0, -1.0, -1.0]),
        )
        err = gradient_check("logistic", table, batch=batch)
        assert err < 1e-6

    @pytest.mark.parametrize(
        "triple, what",
        [([0, 0, 12], "entity"), ([-1, 0, 1], "entity"), ([0, 3, 1], "relation"), ([0, -1, 1], "relation")],
    )
    def test_ids_outside_the_table_are_index_errors(self, triple, what):
        table = make_feasible_table(seed=3)  # 12 entities, 3 relations
        with pytest.raises(IndexError, match=f"{what} index out of range"):
            logistic_loss(table, LabeledBatch(np.array([triple]), np.array([1.0])))

    def test_gradients_touch_only_batch_rows(self):
        table = make_feasible_table(seed=3)
        batch = LabeledBatch(np.array([[0, 1, 2]]), np.array([1.0]))
        _, grads = logistic_loss(table, batch)
        assert set(grads.rows[:2]) == {0, 2}
        assert set(grads.rows[2:] - table.num_entities) == {1}


class TestRulePenalty:
    def test_hierarchy_example(self):
        table = relation_table([[0.8], [0.5]], [[0.3], [0.3]])
        rule = HornRule(body=(0,), head=1, confidence=1.0)
        loss, _ = rule_penalty(table, [rule])
        assert loss == pytest.approx(0.3, abs=1e-12)

    def test_composition_satisfied_example(self):
        table = relation_table([[0.6], [0.5], [0.4]], [[0.0], [0.0], [0.0]])
        rule = HornRule(body=(0, 1), head=2, confidence=1.0)
        loss, _ = rule_penalty(table, [rule])
        assert loss == 0.0

    def test_head_equal_to_normalized_product_gives_zero(self):
        rng = np.random.default_rng(5)
        bound = 1.0
        body_re = rng.uniform(0, 0.5, (2, 6))
        body_im = rng.uniform(0, 0.5, (2, 6))
        prod = (body_re[0] + 1j * body_im[0]) * (body_re[1] + 1j * body_im[1])
        head = prod / bound  # R^(k-1) with k=2
        table = relation_table(
            np.vstack([body_re, head.real]), np.vstack([body_im, head.imag]), bound
        )
        rule = HornRule(body=(0, 1), head=2, confidence=0.7)
        loss, _ = rule_penalty(table, [rule])
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_zero_iff_constraints_hold(self):
        # real part above the product, imaginary mismatched -> both terms positive
        table = relation_table([[0.2], [0.9]], [[0.4], [0.1]])
        rule = HornRule(body=(0,), head=1, confidence=1.0)
        loss, _ = rule_penalty(table, [rule])
        assert loss == pytest.approx((0.4 - 0.1) ** 2, abs=1e-12)

    def test_confidence_scales_penalty(self):
        table = relation_table([[0.8], [0.5]], [[0.3], [0.3]])
        full, _ = rule_penalty(table, [HornRule(body=(0,), head=1, confidence=1.0)])
        half, _ = rule_penalty(table, [HornRule(body=(0,), head=1, confidence=0.5)])
        assert half == pytest.approx(0.5 * full)

    def test_satisfied_rule_has_zero_gradient(self):
        table = relation_table([[0.2], [0.9]], [[0.3], [0.3]])
        rule = HornRule(body=(0,), head=1, confidence=1.0)
        loss, grads = rule_penalty(table, [rule])
        assert loss == 0.0
        assert np.all(grads.re == 0.0) and np.all(grads.im == 0.0)

    def test_gradient_matches_finite_differences(self):
        table = make_feasible_table(seed=6, num_entities=2, num_relations=5, dim=4)
        rules = [
            HornRule(body=(0,), head=1, confidence=0.8),
            HornRule(body=(0, 2), head=3, confidence=0.6),
            HornRule(body=(2, 2, 4), head=0, confidence=0.9),
        ]
        err = gradient_check("rule_penalty", table, rules=rules)
        assert err < 1e-6

    def test_duplicate_body_relation_gradient(self):
        table = make_feasible_table(seed=7, num_entities=2, num_relations=3, dim=4)
        rules = [HornRule(body=(1, 1), head=2, confidence=1.0)]
        err = gradient_check("rule_penalty", table, rules=rules)
        assert err < 1e-6


class TestN3:
    def test_single_component(self):
        table = relation_table([[0.3]], [[0.4]])
        loss, _ = n3_regularization(table, np.array([2]))  # relation 0 of 2 entities
        assert loss == pytest.approx(0.125, abs=1e-15)

    def test_zero_row(self):
        table = relation_table([[0.0]], [[0.0]])
        loss, relations = n3_regularization(table, np.array([2]))
        assert loss == 0.0
        assert np.all(relations.re == 0.0)

    @pytest.mark.parametrize("rows", [[-1, 5], [0, 8]])
    def test_rows_outside_the_table_are_index_errors(self, rows):
        table = make_feasible_table(seed=8, num_entities=5, num_relations=3)
        with pytest.raises(IndexError, match="index out of range"):
            n3_regularization(table, np.array(rows))

    def test_gradient_matches_finite_differences(self):
        table = make_feasible_table(seed=8, num_entities=5, num_relations=3, dim=8)
        table.ent_re += 0.1  # keep moduli away from the origin
        table.rel_re += 0.1
        err = gradient_check("n3", table)
        assert err < 1e-6


# Below this modulus the squares' sum is subnormal or 0, so sqrt(re*re +
# im*im) keeps only an absolute accuracy, sqrt(2**-1074) = 2**-537 (twice
# that here, for the rounding of the sum).
N3_UNDERFLOW = 2.0**-511


@st.composite
def n3_cases(draw):
    """A feasible table at bound 1.0 or 1.3 and a run of its rows, ascending
    with repeats. Some rows are set to 0, some components to the box's edge
    (1 for an entity, re or im = bound for a relation) or to values whose
    squares underflow, subnormals included. Then some components change
    sign: N3 reads magnitudes, which stay feasible."""
    n, m, d = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    bound = draw(st.sampled_from([1.0, 1.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    table = make_feasible_table(seed, n, m, d, bound)
    row, col = st.integers(0, n + m - 1), st.integers(0, d - 1)
    tiny = st.one_of(
        st.floats(2.0**-1074, 2.0**-1022, exclude_max=True),  # subnormal
        st.floats(0.0, N3_UNDERFLOW / 2),
    )
    for r in draw(st.lists(row, max_size=2)):
        table.matrix[r] = 0.0
    for r, c in draw(st.lists(st.tuples(row, col), max_size=3)):
        edges = [(1.0, 1.0)] if r < n else [(bound, 0.0), (0.0, bound)]
        table.matrix[r, [c, d + c]] = draw(st.sampled_from(edges))
    for r, c in draw(st.lists(st.tuples(row, col), max_size=3)):
        table.matrix[r, [c, d + c]] = draw(tiny), draw(tiny)
    assert is_feasible(table)
    flip = np.random.default_rng(seed).random(table.matrix.shape) < 0.5
    table.matrix[flip] *= -1.0
    rows = np.sort(draw(st.lists(row, min_size=1, max_size=12)))
    return table, rows


@given(case=n3_cases())
@example(case=(relation_table(
    [[0.0, 0.0, 0.0], [5e-324, 1e-170, -1.3]], [[0.0, 0.0, 0.0], [2.2e-308, -1e-160, 0.0]], bound=1.3
), np.array([0, 2, 2, 3, 3])))
def test_n3_takes_the_modulus_as_sqrt_of_squares_close_to_hypot_and_complex_abs(case):
    table, rows = case
    d = table.dim
    re, im = table.matrix[rows, :d], table.matrix[rows, d:]
    loss, grads = n3_regularization(table, rows)

    hypot = np.hypot(re, im)
    mod = training._modulus(np.stack((re, im)), np.empty(re.shape), np.empty(re.shape))
    assert (np.abs(mod - hypot) <= np.maximum(np.spacing(hypot), 2.0**-536)).all()
    assert (np.abs(mod - hypot) <= np.spacing(hypot))[hypot >= N3_UNDERFLOW].all()

    # Each gradient element rounds 3 * mod * re twice, and the reference's
    # modulus and ours lie within about 1 ulp of |z|: a few ulps in all, so
    # rtol 1e-14 (about 45 ulps) bounds it. Below N3_UNDERFLOW the gradient
    # is under 3 * 2**-1022 on both sides, hence atol 2**-1020. The loss sums
    # nonnegative cubes of a few ulps' error each: rtol 1e-13.
    z = re + 1j * im
    reference = 3.0 * np.abs(z) * z
    np.testing.assert_allclose(grads.values[0], reference.real, rtol=1e-14, atol=2.0**-1020)
    np.testing.assert_allclose(grads.values[1], reference.imag, rtol=1e-14, atol=2.0**-1020)
    assert loss == pytest.approx(float(np.sum(np.abs(z) ** 3)), rel=1e-13, abs=2.0**-1020)

    assert not np.isnan(grads.values).any()
    zero = ~table.matrix[rows].any(axis=1)
    assert (grads.values[:, zero] == 0.0).all()


class TestAdagrad:
    def make(self, dim=1):
        table = relation_table(np.zeros((1, dim)), np.zeros((1, dim)))
        state = AdagradState.zeros(2, 1, dim)
        return table, state

    def grads(self, value, dim=1):
        re = np.full((1, dim), float(value))
        return RowGrads(np.array([2]), np.stack((re, np.zeros((1, dim)))))  # relation 0

    def test_first_step(self):
        table, state = self.make()
        adagrad_step(table, self.grads(1.0), state, lr=0.5)
        assert table.rel_re[0, 0] == pytest.approx(-0.5, abs=1e-9)
        assert state.acc[2, 0] == 1.0  # relation 0's re half

    def test_zero_gradient_is_noop(self):
        table, state = self.make()
        adagrad_step(table, self.grads(0.0), state, lr=0.5)
        assert table.rel_re[0, 0] == 0.0
        assert state.acc[2, 0] == 0.0

    def test_accumulation_shrinks_steps(self):
        table, state = self.make()
        adagrad_step(table, self.grads(1.0), state, lr=0.5)
        first = table.rel_re[0, 0]
        adagrad_step(table, self.grads(1.0), state, lr=0.5)
        second = table.rel_re[0, 0] - first
        assert abs(second) == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("row", [3, -1])
    def test_rows_outside_the_table_are_index_errors(self, row):
        table, state = self.make()
        grads = RowGrads(np.array([row]), np.ones((2, 1, 1)))
        with pytest.raises(IndexError, match="row index out of range"):
            adagrad_step(table, grads, state, lr=0.5)
        assert table.rel_re[0, 0] == 0.0 and state.acc[2, 0] == 0.0

    def test_accumulators_monotone(self):
        table, state = self.make(dim=3)
        for value in (0.5, -1.0, 2.0):
            before = state.acc[2:, :3].copy()  # the relation's re half
            adagrad_step(table, self.grads(value, dim=3), state, lr=0.1)
            assert np.all(state.acc[2:, :3] >= before)


class TestNegativeSampling:
    def test_exact_count_and_one_slot_difference(self):
        kg = make_random_kg(seed=1)
        rng = np.random.default_rng(0)
        positive = Triple(*kg.train[0].tolist())
        negs = sample_negatives(kg, positive, 5, rng)
        assert len(negs) == 5
        for neg in negs:
            assert neg.relation == positive.relation
            changed = (neg.head != positive.head) + (neg.tail != positive.tail)
            assert changed == 1

    def test_deterministic_under_seed(self):
        kg = make_random_kg(seed=2)
        a = sample_negatives(kg, kg.train[0], 8, np.random.default_rng(7))
        b = sample_negatives(kg, kg.train[0], 8, np.random.default_rng(7))
        assert a == b

    def test_avoids_filter_index_when_possible(self):
        kg = make_random_kg(seed=3, num_entities=20, num_train=10)
        rng = np.random.default_rng(1)
        for neg in sample_negatives(kg, kg.train[0], 20, rng):
            assert not naive_contains(kg, neg)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("count", [1, 4])
    def test_batch_equals_a_slot_by_slot_loop(self, seed, count):
        """Each round draws one entity per pending negative, in row-major
        order, and keeps pending those that are known facts. The graph is
        dense, so negatives take several rounds."""
        kg = make_random_kg(seed=seed, num_entities=5, num_train=20)
        positives = kg.train[:6]
        got = training.sample_negatives_batch(kg, positives, count, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        coins = rng.integers(0, 2, size=(len(positives), count))
        want = [[list(p) for _ in range(count)] for p in positives.tolist()]
        pending = [(i, j) for i in range(len(positives)) for j in range(count)]
        for _ in range(training.NEGATIVE_ROUNDS):
            if not pending:
                break
            draws = rng.integers(0, kg.num_entities - 1, size=len(pending)).tolist()
            still = []
            for (i, j), draw in zip(pending, draws):
                end = 0 if coins[i, j] else 2
                want[i][j][end] = draw + (draw >= positives[i, end])
                if naive_contains(kg, want[i][j]):
                    still.append((i, j))
            pending = still
        assert got.tolist() == want

    def test_a_one_entity_graph_gives_the_positive_back(self):
        kg = build_graph([Triple(0, 0, 0)], [], [], ({"a": 0}, {"r": 0}))
        negs = sample_negatives(kg, Triple(0, 0, 0), 3, np.random.default_rng(0))
        assert negs == [Triple(0, 0, 0)] * 3

    def test_saturated_graph_falls_back(self):
        # every corruption of (0, r, 0) is itself a known triple
        dicts = ({"a": 0, "b": 1}, {"r": 0})
        triples = [Triple(h, 0, t) for h in range(2) for t in range(2)]
        kg = build_graph(triples, [], [], dicts)
        negs = sample_negatives(kg, Triple(0, 0, 0), 3, np.random.default_rng(0))
        assert len(negs) == 3
        for neg in negs:
            assert naive_contains(kg, neg)  # documented fallback


class TestTrainLoop:
    def config(self, **kw):
        base = dict(
            learning_rate=0.5,
            batch_size=16,
            epochs=5,
            validate_every=0,
            mu=0.0,
            eta=0.0,
            negatives_per_positive=2,
            bound=1.0,
            dim=8,
            seed=0,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_loss_decreases_on_random_kg(self):
        kg = make_random_kg(seed=4, num_entities=50, num_relations=4, num_train=200)
        _, records, _ = train(kg, [], self.config())
        assert records[-1].logistic < records[0].logistic

    def test_zero_epochs_returns_untouched_init(self):
        kg = make_random_kg(seed=5)
        table, records, state = train(kg, [], self.config(epochs=0))
        assert records == []
        assert is_feasible(table)
        assert np.all(state.acc[: kg.num_entities, : table.dim] == 0.0)

    def test_deterministic_bit_identical(self):
        kg = make_random_kg(seed=6, num_train=40)
        rules = [HornRule(body=(0,), head=1, confidence=0.9)]
        cfg = self.config(mu=0.5, eta=0.01, epochs=3)
        t1, r1, _ = train(kg, rules, cfg)
        t2, r2, _ = train(kg, rules, cfg)
        assert np.array_equal(t1.ent_re, t2.ent_re)
        assert np.array_equal(t1.rel_im, t2.rel_im)
        assert r1 == r2

    def test_invariants_hold_after_every_step(self):
        kg = make_random_kg(seed=7, num_train=60)
        rules = [HornRule(body=(0, 1), head=2, confidence=0.8)]
        steps = []

        def check(table, epoch, step):
            assert is_feasible(table)
            steps.append((epoch, step))

        train(kg, rules, self.config(mu=1.0, eta=0.01, epochs=3), step_callback=check)
        assert len(steps) > 0

    def test_mu_zero_logs_zero_rule_penalty(self):
        kg = make_random_kg(seed=8)
        rules = [HornRule(body=(0,), head=1, confidence=0.9)]
        _, records, _ = train(kg, rules, self.config(mu=0.0))
        assert all(rec.rule_penalty == 0.0 for rec in records)

    def test_validation_mrr_recorded(self):
        kg = make_random_kg(seed=9, num_valid=6)
        _, records, _ = train(kg, [], self.config(epochs=4, validate_every=2))
        assert records[1].valid_mrr is not None and records[0].valid_mrr is None
        assert 0.0 < records[1].valid_mrr <= 1.0

    def test_non_finite_loss_aborts_with_diagnostic(self):
        kg = make_random_kg(seed=10, num_train=40)

        def poison(table, epoch, step):
            table.ent_re[0, 0] = np.nan

        with pytest.raises(TrainingDiverged, match="epoch"):
            train(kg, [], self.config(epochs=2), step_callback=poison)


def test_checkpoint_round_trip(tmp_path):
    kg = make_random_kg(seed=11, num_train=30)
    cfg = TrainConfig(epochs=2, batch_size=8, dim=4, eta=0.01, seed=3)
    table, _, state = train(kg, [], cfg)
    p = tmp_path / "ckpt.bin"
    save_checkpoint(p, table, state)
    table2, state2 = load_checkpoint(p)
    assert np.array_equal(table.ent_re, table2.ent_re)
    rel_im = np.s_[kg.num_entities :, cfg.dim :]
    assert np.array_equal(state.acc[rel_im], state2.acc[rel_im])
    assert state2.epsilon == state.epsilon


@st.composite
def misfit_states(draw):
    """A table of random (n, m, d) and an AdaGrad state whose ``acc`` does
    not fit it: the table's element count in another shape, float32, or
    not C-contiguous."""
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = (n + m, 2 * d)
    values = np.arange(math.prod(shape)) / 8
    kind = draw(st.sampled_from(["shape", "float32", "strided"]))
    if kind == "shape":
        other = [(values.size,), (1, values.size), (2 * (n + m), d), (n + m, 2, d), (2 * d, n + m)]
        acc = values.reshape(draw(st.sampled_from(other).filter(lambda s: s != shape)))
    elif kind == "float32":
        acc = values.astype(np.float32).reshape(shape)
    else:
        acc = np.repeat(values, 2).reshape(n + m, 4 * d)[:, ::2]
    table = init_table(n, m, d, seed=draw(st.integers(0, 2**32 - 1)))
    return table, AdagradState(acc)


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    return tmp_path_factory.mktemp("misfit") / "ckpt.bin"


@given(misfit=misfit_states(), row=st.integers(0, 9))
@example(misfit=(init_table(5, 2, 3), AdagradState(np.arange(42).reshape(7, 6))), row=3)
@example(misfit=(init_table(5, 2, 3), AdagradState(np.zeros((21, 2)))), row=6)
def test_a_state_that_does_not_fit_its_table_is_refused_before_any_write(checkpoint_path, misfit, row):
    table, state = misfit
    checkpoint_path.write_bytes(b"an earlier checkpoint")
    row %= len(table.matrix)
    grads = RowGrads(np.array([row]), np.ones((2, 1, table.dim)))
    before = table.matrix.tobytes(), state.acc.tobytes(), state.epsilon
    calls = (
        lambda: adagrad_step(table, grads, state, 0.5),
        lambda: save_checkpoint(checkpoint_path, table, state),
    )
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert f" {state.acc.shape} " in str(err.value), str(err.value)
        assert str(err.value).endswith(f" {table.matrix.shape}"), str(err.value)
        assert (table.matrix.tobytes(), state.acc.tobytes(), state.epsilon) == before
        assert checkpoint_path.read_bytes() == b"an earlier checkpoint"
        assert [p.name for p in checkpoint_path.parent.iterdir()] == ["ckpt.bin"]


def test_checkpoint_loads_into_one_row_space_each_and_saves_the_same_bytes(tmp_path):
    table = make_feasible_table(seed=14, num_entities=5, num_relations=3, dim=2, bound=1.3)
    state = AdagradState.zeros(5, 3, 2)
    state.acc[:] = np.arange(state.acc.size).reshape(state.acc.shape) / 8
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    save_checkpoint(first, table, state)
    table2, state2 = load_checkpoint(first)
    for whole, ent, rel in (
        (state.acc, state.acc[:5], state.acc[5:]),
        (table2.matrix, table2.ent, table2.rel),
        (state2.acc, state2.acc[:5], state2.acc[5:]),
    ):
        assert_row_slices(whole, ent, rel, 5)
    assert table2.matrix.tobytes() == table.matrix.tobytes()
    assert state2.acc.tobytes() == state.acc.tobytes()
    save_checkpoint(second, table2, state2)
    assert second.read_bytes() == first.read_bytes()


def test_checkpoint_bytes_are_the_header_then_each_half_in_file_order(tmp_path):
    n, m, d, bound, epsilon = 3, 2, 2, 1.3, 1e-7
    ent_re, ent_im, rel_re, rel_im = (
        np.arange(rows * d).reshape(rows, d) / 16 + offset
        for rows, offset in ((n, 0.0), (n, 0.5), (m, 0.125), (m, 0.625))
    )
    acc = [
        np.arange(rows * d).reshape(rows, d) + offset
        for rows, offset in ((n, 100.0), (n, 200.0), (m, 300.0), (m, 400.0))
    ]
    table = EmbeddingTable(ent_re, ent_im, rel_re, rel_im, bound)
    state = AdagradState(np.vstack((np.hstack(acc[:2]), np.hstack(acc[2:]))), epsilon)
    p = tmp_path / "ckpt.bin"
    save_checkpoint(p, table, state)
    expected = (
        b"HPX1"
        + struct.pack("<qqqd", n, m, d, bound)
        + b"".join(half.tobytes() for half in (ent_re, ent_im, rel_re, rel_im))
        + struct.pack("<d", epsilon)
        + b"".join(half.tobytes() for half in acc)
    )
    assert p.read_bytes() == expected
    table2, state2 = load_checkpoint(p)
    assert table2.ent.tobytes() == table.ent.tobytes()
    assert table2.rel.tobytes() == table.rel.tobytes()
    assert state2.acc[:n].tobytes() == state.acc[:n].tobytes()
    assert state2.acc[n:].tobytes() == state.acc[n:].tobytes()


def checkpoint_at_20k(path):
    """A table and AdaGrad state at n = 20k, d = 64, and ``path``, after a
    tiny checkpoint has been written to it and read back (so that first-use
    allocations fall outside a measurement)."""
    table = init_table(20_000, 12, 64, seed=1)
    state = AdagradState(np.vstack((table.ent * 3.0, table.rel + 0.5)))
    save_checkpoint(path, init_table(2, 1, 2), AdagradState.zeros(2, 1, 2))
    load_checkpoint(path)
    return table, state


def test_save_checkpoint_copies_no_half_whole(tmp_path):
    p = tmp_path / "ckpt.bin"
    table, state = checkpoint_at_20k(p)
    tracemalloc.start()
    try:
        save_checkpoint(p, table, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak


def test_load_checkpoint_allocates_little_beyond_its_matrices(tmp_path):
    p = tmp_path / "ckpt.bin"
    table, state = checkpoint_at_20k(p)
    save_checkpoint(p, table, state)
    tracemalloc.start()
    try:
        table2, state2 = load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = table.num_entities
    matrices = (table2.ent, table2.rel, state2.acc[:n], state2.acc[n:])
    assert peak - sum(a.nbytes for a in matrices) <= 2**20, peak
    for got, want in zip(matrices, (table.ent, table.rel, state.acc[:n], state.acc[n:])):
        assert got.tobytes() == want.tobytes()


def test_checkpoint_with_cut_accumulators_names_file_and_offset(tmp_path):
    table = make_feasible_table(seed=12, num_entities=4, num_relations=2, dim=3)
    p = tmp_path / "ckpt.bin"
    save_checkpoint(p, table, AdagradState.zeros(4, 2, 3))
    # 36-byte header, 12 rows of 24 bytes, epsilon, then 4 accumulator rows
    p.write_bytes(p.read_bytes()[: 36 + 12 * 24 + 8 + 4 * 24 + 5])
    with pytest.raises(ValueError) as err:
        load_checkpoint(p)
    assert str(err.value) == f"{p}: truncated at byte 433: ent_im_acc needs 96 bytes from byte 428"


@pytest.mark.parametrize(
    "patch, message",
    [
        # 36-byte header, 12 rows of 24 bytes, epsilon at byte 324, then the
        # accumulators: ent_re_acc at 332, ent_im_acc at 428, rel_re_acc at
        # 524, rel_im_acc at 572, and the end at byte 620
        ((324, struct.pack("<d", math.nan)), "bad AdaGrad epsilon at byte 324: nan is not finite and positive"),
        ((324, struct.pack("<d", -1e-10)), "bad AdaGrad epsilon at byte 324: -1e-10 is not finite and positive"),
        (
            (524 + 8 * 5, struct.pack("<d", -0.5)),
            "rel_re_acc holds the negative value -0.5 at byte 564 "
            "(accumulators are finite and non-negative)",
        ),
        ((620, b"junk1234"), "8 trailing bytes from byte 620; a checkpoint ends after rel_im_acc"),
    ],
    ids=["nan-epsilon", "negative-epsilon", "negative-accumulator", "trailing-bytes"],
)
def test_checkpoint_with_corrupt_optimizer_state_names_file_and_offset(tmp_path, patch, message):
    table = make_feasible_table(seed=12, num_entities=4, num_relations=2, dim=3)
    p = tmp_path / "ckpt.bin"
    save_checkpoint(p, table, AdagradState.zeros(4, 2, 3))
    blob = bytearray(p.read_bytes())
    assert len(blob) == 620
    at, value = patch
    blob[at : at + len(value)] = value
    p.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_checkpoint(p)
    assert str(err.value) == f"{p}: {message}"


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    table = make_feasible_table(seed=13, num_entities=4, num_relations=2, dim=3)
    p = tmp_path / "ckpt.bin"
    save_checkpoint(p, table, AdagradState.zeros(4, 2, 3))
    previous = p.read_bytes()

    def fail_midway(handle, table):
        handle.write(b"HPX1 partial")
        raise OSError("disk full")

    monkeypatch.setattr(training, "save_table", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(p, table, AdagradState.zeros(4, 2, 3))
    assert p.read_bytes() == previous
    assert sorted(tmp_path.iterdir()) == [p]


def test_failed_training_log_write_keeps_previous_file(tmp_path):
    kg = make_random_kg(seed=12, num_train=30)
    cfg = TrainConfig(epochs=2, batch_size=8, dim=4, seed=1, validate_every=0)
    _, records, _ = train(kg, [], cfg)
    p = tmp_path / "log.jsonl"
    write_training_log(p, records, config_echo={"seed": 1})
    previous = p.read_text()
    with pytest.raises(TypeError):
        write_training_log(p, records + [object()], config_echo={"seed": 2})
    assert p.read_text() == previous
    assert sorted(tmp_path.iterdir()) == [p]


def test_training_log_round_trip(tmp_path):
    kg = make_random_kg(seed=12, num_train=30)
    cfg = TrainConfig(epochs=3, batch_size=8, dim=4, seed=1, validate_every=0)
    _, records, _ = train(kg, [], cfg)
    p = tmp_path / "log.jsonl"
    write_training_log(p, records, config_echo={"seed": 1})
    loaded, echo = read_training_log(p)
    assert loaded == records
    assert echo == {"seed": 1}


def test_read_training_log_names_the_file_and_line_of_a_bad_record(tmp_path):
    p = tmp_path / "log.jsonl"
    good = '{"config": {"seed": 1}}\n\n'
    for bad in ('{"epoch": 1, "logistic": ', '{"epoch": 1, "speed": 2}', "[1, 2]", "3"):
        p.write_text(good + bad + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_training_log(p)
        assert str(err.value).startswith(f"{p}:3: not a training-log record: ")
