"""The fused optimizer step against the term-by-term step in ``oracles``.

The fused step sums each row's terms in the same order as the oracle and
projects only the rows it touched, which were the only rows a whole-table
projection could move. Tables and AdaGrad accumulators must therefore be
equal byte for byte, not merely close.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from hornplex.kernel import RowGrads, RuleArrays, Scratch
from hornplex.model import init_table, project
from hornplex.rules import HornRule
from hornplex.training import (
    AdagradState,
    LabeledBatch,
    Workspace,
    adagrad_step,
    logistic_loss,
    merge_row_grads,
    n3_regularization,
    step_gradients,
)

ARRAYS = ("ent_re", "ent_im", "rel_re", "rel_im")
ACCUMULATORS = ("ent_re_acc", "ent_im_acc", "rel_re_acc", "rel_im_acc")


def fused_step(table, state, batch, rules, mu, eta, lr):
    """One step as ``train`` takes it; ``rules`` is a rule list."""
    _, grads = step_gradients(
        table, batch, RuleArrays.from_rules(rules, table.num_relations, table.dim), mu, eta
    )
    adagrad_step(table, grads, state, lr)
    project(table, grads.rows)


def random_batch(rng, num_entities, batch_relations, size):
    """``size`` triples over few ids, so rows repeat within the batch."""
    triples = np.column_stack(
        [
            rng.integers(0, num_entities, size),
            rng.integers(0, batch_relations, size),
            rng.integers(0, num_entities, size),
        ]
    )
    return LabeledBatch(triples, np.where(rng.random(size) < 0.5, 1.0, -1.0))


def random_rules(rng, num_relations, count):
    """``count`` rules of length 1-3; the first has the last relation as its
    head, which no batch of ``run_both`` holds."""
    rules = []
    for i in range(count):
        body = tuple(int(r) for r in rng.integers(0, num_relations, rng.integers(1, 4)))
        head = num_relations - 1 if i == 0 else int(rng.integers(0, num_relations))
        rules.append(HornRule(body=body, head=head, confidence=float(rng.uniform(0.2, 1.0))))
    return rules


def run_both(seed, num_entities, num_relations, dim, bound, num_rules, mu, eta, lr, steps):
    """Take ``steps`` steps with the fused and the oracle step from the same
    start and require byte-identical tables and accumulators after each. The
    first batch starts with (n - 1, 0, n - 1), so the first step touches
    rows n - 1 and n of the row space, the last entity and the first
    relation. Returns what the inputs covered: repeated rows in a batch,
    rule rows absent from the batch, pre-projection entity components above
    1 and relation moduli above the bound, relation rows whose clipped
    components still lie outside the bound (rescaled radially), and a step
    that changed both boundary rows."""
    rng = np.random.default_rng(seed)
    fused = init_table(num_entities, num_relations, dim, bound, seed=seed)
    slow = fused.copy()
    fused_state = AdagradState.zeros(num_entities, num_relations, dim)
    slow_state = AdagradState.zeros(num_entities, num_relations, dim)
    rules = random_rules(rng, num_relations, num_rules)
    covered = dict.fromkeys(
        ("repeats", "rule_rows_off_batch", "above_one", "above_bound", "rescaled", "boundary_rows"),
        False,
    )
    boundary = [num_entities - 1, num_entities]
    for step in range(steps):
        batch = random_batch(rng, num_entities, max(num_relations - 1, 1), int(rng.integers(1, 30)))
        if step == 0:
            batch.triples[0] = (num_entities - 1, 0, num_entities - 1)
        edge = fused.matrix[boundary].copy()
        fused_step(fused, fused_state, batch, rules, mu, eta, lr)
        before = oracles.sparse_step(slow, slow_state, batch, rules, mu, eta, lr)
        for name in ARRAYS:
            assert getattr(fused, name).tobytes() == getattr(slow, name).tobytes(), name
        halves = (oracles.accumulator_halves(s, num_entities) for s in (fused_state, slow_state))
        for name, got, want in zip(ACCUMULATORS, *halves):
            assert got.tobytes() == want.tobytes(), name

        ents = batch.triples[:, (0, 2)].ravel()
        covered["repeats"] |= np.unique(ents).size < ents.size
        covered["rule_rows_off_batch"] |= bool(
            rules and mu > 0 and num_relations - 1 not in batch.triples[:, 1]
        )
        covered["above_one"] |= bool((before.ent_re > 1.0).any() or (before.ent_im > 1.0).any())
        covered["above_bound"] |= bool((np.hypot(before.rel_re, before.rel_im) > bound).any())
        clipped = np.clip(before.rel_re, 0.0, bound), np.clip(before.rel_im, 0.0, bound)
        covered["rescaled"] |= bool((np.hypot(*clipped) > bound).any())
        covered["boundary_rows"] |= bool((fused.matrix[boundary] != edge).any(axis=1).all())
    return covered


@given(
    seed=st.integers(0, 2**32 - 1),
    num_entities=st.integers(1, 12),
    num_relations=st.integers(1, 6),
    dim=st.integers(1, 5),
    bound=st.sampled_from([0.5, 1.0, 1.3, 2.0]),
    num_rules=st.integers(0, 4),
    mu=st.sampled_from([0.0, 0.5, 1.0]),
    eta=st.sampled_from([0.0, 0.02, 1.0]),
    lr=st.sampled_from([0.05, 0.5, 5.0]),
    steps=st.integers(1, 4),
)
@example(
    seed=11, num_entities=7, num_relations=3, dim=4, bound=1.3, num_rules=2,
    mu=1.0, eta=0.02, lr=5.0, steps=2,
)
def test_fused_step_equals_term_by_term_step(**kw):
    run_both(**kw)


@pytest.mark.parametrize("bound", [1.0, 1.3])
@pytest.mark.parametrize("mu, eta", [(1.0, 0.02), (0.0, 0.02), (1.0, 0.0), (0.0, 0.0)])
def test_fused_step_covers_repeats_off_batch_rules_and_infeasible_updates(mu, eta, bound):
    covered = run_both(
        seed=3, num_entities=6, num_relations=4, dim=4, bound=bound, num_rules=3,
        mu=mu, eta=eta, lr=5.0, steps=4,
    )
    assert covered == {
        "repeats": True,
        "rule_rows_off_batch": mu > 0,
        "above_one": True,
        "above_bound": True,
        "rescaled": True,
        "boundary_rows": True,
    }


def test_step_leaves_untouched_rows_byte_identical():
    """Rows outside the batch and the rules keep every byte, even when they
    lie outside the feasible set, in the table and in the accumulators."""
    rng = np.random.default_rng(4)
    table = init_table(10, 6, 4, 1.0, seed=4)
    state = AdagradState.zeros(10, 6, 4)
    for half in oracles.accumulator_halves(state, 10):
        half[:] = rng.random(half.shape)
    table.ent_re[7:] = 1.5  # infeasible, untouched
    table.rel_re[5] = table.rel_im[5] = 0.9  # modulus above the bound, untouched
    batch = random_batch(rng, 6, 3, 40)  # entities 0-5, relations 0-2
    rules = [HornRule(body=(1, 3), head=2, confidence=0.8)]  # touches relation 3
    before = table.copy()
    acc_before = [half.copy() for half in oracles.accumulator_halves(state, 10)]

    fused_step(table, state, batch, rules, mu=1.0, eta=0.02, lr=0.5)

    untouched = {"ent": np.arange(6, 10), "rel": np.array([4, 5])}
    for name in ARRAYS:
        rows = untouched[name[:3]]
        assert getattr(table, name)[rows].tobytes() == getattr(before, name)[rows].tobytes()
    for name, half, half_before in zip(ACCUMULATORS, oracles.accumulator_halves(state, 10), acc_before):
        rows = untouched[name[:3]]
        assert half[rows].tobytes() == half_before[rows].tobytes()
    touched = np.unique(batch.triples[:, (0, 2)])
    assert not np.array_equal(table.ent_re[touched], before.ent_re[touched])


def test_ids_outside_their_range_raise_before_any_byte_changes():
    """Entity i is row i and relation r row n + r of one matrix, so an entity
    id in [n, n+m) would read a relation row. ``logistic_loss`` checks entity
    ids against n and relation ids against m. N3, AdaGrad and the projection
    take row-space ids, in which row n is relation 0, and check them against
    n + m. Each raises IndexError before a byte of the table or of the
    accumulators changes."""
    n, m, dim = 5, 3, 4
    rng = np.random.default_rng(9)
    table = init_table(n, m, dim, 1.3, seed=9)
    table.ent[0] = 2.0  # infeasible, so a projection that ran would move it
    table.rel_re[0] = 5.0
    state = AdagradState.zeros(n, m, dim)
    state.acc[:] = rng.random(state.acc.shape)
    before = table.matrix.tobytes(), state.acc.tobytes()

    def logistic(triple):
        return lambda: logistic_loss(table, LabeledBatch([triple], [1.0]))

    cases = [
        ("entity", logistic([0, 0, n])),  # row n, relation 0
        ("entity", logistic([n + m - 1, 0, 0])),
        ("entity", logistic([-1, 0, 0])),
        ("relation", logistic([0, m, 0])),
        ("relation", logistic([0, -1, 0])),
    ]
    for rows in (np.array([-1, 0, n]), np.array([0, n, n + m])):  # n + m: relation m
        grads = RowGrads(rows, np.ones((rows.size, dim), dtype=complex))
        cases += [
            ("row", lambda rows=rows: n3_regularization(table, rows)),
            ("row", lambda grads=grads: adagrad_step(table, grads, state, 0.5)),
            ("row", lambda rows=rows: project(table, rows)),
        ]
    for what, call in cases:
        with pytest.raises(IndexError, match=f"{what} index out of range"):
            call()
        assert (table.matrix.tobytes(), state.acc.tobytes()) == before

    loss, _ = n3_regularization(table, np.array([n - 1, n]))
    ent_cubes = np.hypot(table.ent_re[n - 1], table.ent_im[n - 1]) ** 3
    rel_cubes = np.hypot(table.rel_re[0], table.rel_im[0]) ** 3
    assert loss == pytest.approx(float(np.sum(ent_cubes)) + float(np.sum(rel_cubes)), rel=1e-15)


class Exact(Scratch):
    """A ``Scratch`` whose every request must fit its buffer."""

    def __call__(self, shape):
        assert self.used + math.prod(shape) <= self.buffer.size, f"no room for {shape}"
        return super().__call__(shape)


def workspace_step(table, state, batch, rules, mu, eta, lr, workspace):
    """One step as ``train`` takes it, through ``workspace``."""
    _, grads = step_gradients(table, batch, rules, mu, eta, workspace=workspace)
    adagrad_step(table, grads, state, lr, workspace=workspace)
    project(table, grads.rows)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_entities=st.integers(1, 12),
    num_relations=st.integers(1, 6),
    dim=st.integers(1, 5),
    bound=st.sampled_from([0.5, 1.0, 2.0]),
    num_rules=st.integers(0, 4),
    mu=st.sampled_from([0.0, 0.5, 1.0]),
    eta=st.sampled_from([0.0, 0.02, 1.0]),
    lr=st.sampled_from([0.05, 0.5, 5.0]),
    rows=st.integers(1, 30),
    steps=st.integers(2, 5),
)
def test_steps_through_one_workspace_equal_term_by_term_steps(
    seed, num_entities, num_relations, dim, bound, num_rules, mu, eta, lr, rows, steps
):
    """``steps`` steps of ``rows`` triples through one workspace sized as
    ``train`` sizes it, the last batch shorter (when rows > 1), leave the
    table and accumulators byte-identical to the oracle's after each step,
    and no step needs more room than the workspace's sizes give."""
    rng = np.random.default_rng(seed)
    fast = init_table(num_entities, num_relations, dim, bound, seed=seed)
    slow = fast.copy()
    fast_state = AdagradState.zeros(num_entities, num_relations, dim)
    slow_state = AdagradState.zeros(num_entities, num_relations, dim)
    rules = random_rules(rng, num_relations, num_rules)
    packed = RuleArrays.from_rules(rules, num_relations, dim)
    workspace = Workspace(rows, dim, num_relations)
    workspace.step = Exact(workspace.step.buffer.size)
    workspace.temp = Exact(workspace.temp.buffer.size)
    for i in range(steps):
        size = rows if i < steps - 1 else int(rng.integers(1, rows)) if rows > 1 else 1
        batch = random_batch(rng, num_entities, max(num_relations - 1, 1), size)
        workspace_step(fast, fast_state, batch, packed, mu, eta, lr, workspace)
        oracles.sparse_step(slow, slow_state, batch, rules, mu, eta, lr)
        for name in ARRAYS:
            assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
        halves = (oracles.accumulator_halves(s, num_entities) for s in (fast_state, slow_state))
        for name, got, want in zip(ACCUMULATORS, *halves):
            assert got.tobytes() == want.tobytes(), name


def test_a_step_through_a_workspace_allocates_little():
    """Once the workspace exists, a step of 128 triples at d=64, with rules
    and N3, allocates at most 400 KiB at its peak; a step that allocated its
    gathered halves, their products and concatenated gradients took 1.2 MiB."""
    rows, dim, num_entities, num_relations = 128, 64, 2000, 12
    rng = np.random.default_rng(5)
    table = init_table(num_entities, num_relations, dim, 1.0, seed=5)
    state = AdagradState.zeros(num_entities, num_relations, dim)
    rules = RuleArrays.from_rules(random_rules(rng, num_relations, 8), num_relations, dim)
    workspace = Workspace(rows, dim, num_relations)
    batches = [random_batch(rng, num_entities, num_relations, rows) for _ in range(2)]
    workspace_step(table, state, batches[0], rules, 1.0, 0.02, 0.2, workspace)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        workspace_step(table, state, batches[1], rules, 1.0, 0.02, 0.2, workspace)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 400 * 1024, f"{peak / 1024:.0f} KiB"


# Term counts of a row from 1 to 300, more often around 8 and 128, where
# numpy's pairwise sum changes its order (8 accumulators above 8 terms, and
# halving above 128): a merge that summed a row pairwise, not in turn, would
# give other bits there.
TERM_COUNTS = st.one_of(st.integers(1, 10), st.integers(126, 131), st.integers(1, 300))
# Signed zeros and subnormals, put in place of a fifth of the terms.
SPECIAL_TERMS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308])


def random_block(rng, dim, counts, strided, unique):
    """RowGrads with ``counts[row]`` terms on each row, in random order, or
    one term per row in sorted order if ``unique``; its values a strided
    view, every other column of (k, 2d) complex rows, if ``strided``.
    Normal terms of magnitudes 1e-3 to 1e3, a fifth replaced by signed zeros
    and subnormals, and some rows all zeros of either sign."""
    if unique:
        rows = np.array(sorted(counts), dtype=np.int64)
    else:
        rows = rng.permutation(np.repeat(list(counts), list(counts.values())))
    values = rng.standard_normal((2, rows.size, dim)) * 10.0 ** rng.integers(-3, 4, (2, rows.size, 1))
    special = rng.random(values.shape) < 0.2
    values[special] = rng.choice(SPECIAL_TERMS, np.count_nonzero(special))
    for row in counts:
        if rng.random() < 0.2:
            zeros = values[:, rows == row]
            values[:, rows == row] = rng.choice(SPECIAL_TERMS[:2], zeros.shape)
    values = oracles._complex(*values)
    if strided:
        wide = np.zeros((rows.size, 2 * dim), dtype=complex)
        wide[:, ::2] = values
        values = wide[:, ::2]
    return RowGrads(rows, values)


def term_by_term_merge(blocks):
    """The merge one term at a time: each term added to its row's total,
    which starts at +0.0, block after block, each block in its own order."""
    rows = np.unique(np.concatenate([b.rows for b in blocks]))
    total = np.zeros((2, rows.size, blocks[0].values.shape[1]))
    for block in blocks:
        for row, re, im in zip(block.rows, block.re, block.im):
            slot = np.searchsorted(rows, row)
            total[0, slot] = total[0, slot] + re
            total[1, slot] = total[1, slot] + im
    return RowGrads(rows, oracles._complex(*total))


ROWS = st.dictionaries(st.integers(0, 9), TERM_COUNTS, min_size=1, max_size=5)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    terms=st.tuples(ROWS, st.booleans(), st.booleans()),
    rule=st.one_of(st.none(), st.tuples(ROWS, st.booleans())),
)
@example(
    seed=0,
    dim=3,
    terms=({0: 8, 1: 9, 2: 1, 3: 128, 5: 129}, False, False),
    rule=({2: 1, 4: 3}, True),
)
def test_merge_row_grads_equals_a_term_by_term_merge(seed, dim, terms, rule):
    """``merge_row_grads`` gives the bits of the term-by-term merge, with and
    without a workspace, for a terms block whose rows have 1-300 terms and
    no rule block, or a rule block whose rows may repeat and come unsorted,
    some missing from the terms, either block passed as a strided view."""
    rng = np.random.default_rng(seed)
    block = random_block(rng, dim, *terms)
    rule = None if rule is None else random_block(rng, dim, *rule, False)
    made = [block] if rule is None else [block, rule]
    want = term_by_term_merge(made)
    for workspace in (None, Workspace(sum(b.rows.size for b in made), dim)):
        got = merge_row_grads(block, rule, workspace=workspace)
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("rows", [[3, 1], [1, 1, 2], [2, 0, 5]])
def test_a_rule_block_whose_rows_do_not_ascend_is_merged_term_by_term(rows):
    """A rule block of descending, repeated or unsorted rows, one of them
    missing from the terms, merges to the term-by-term bits through a
    workspace whose buffers hold stale values from an earlier use."""
    rng = np.random.default_rng(7)
    terms = random_block(rng, 2, {0: 3, 1: 2}, False, False)
    rule = RowGrads(np.array(rows), oracles._complex(*rng.standard_normal((2, len(rows), 2))))
    workspace = Workspace(10, 2)
    workspace.step.buffer[:] = workspace.temp.buffer[:] = 7.0
    want = term_by_term_merge([terms, rule])
    got = merge_row_grads(terms, rule, workspace=workspace)
    assert got.rows.tobytes() == want.rows.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


# Values of either sign across the range: signed zeros, subnormals, normals
# of any exponent and infinities, so that sums overflow, cancel to zero and
# meet inf + -inf.
SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308, math.inf, -math.inf]),
    st.floats(allow_nan=False),
)


@given(
    rows=st.lists(st.integers(0, 5), min_size=1, max_size=40),
    dim=st.integers(1, 3),
    data=st.data(),
)
def test_complex_scatter_adds_each_part_as_two_float_scatters(rows, dim, data):
    """One ``np.add.at`` on the flat complex128 view, as ``merge_row_grads``
    and the rule penalty take it, gives the bits of two float64 ones, one
    per part, over repeated and unsorted rows: a complex add is two
    independent float adds, on whatever SIMD target numpy dispatches to."""

    def draw(count):
        return np.array(data.draw(st.lists(SCATTER_VALUES, min_size=count, max_size=count)))

    terms = oracles._complex(*draw(2 * len(rows) * dim).reshape(2, len(rows), dim))
    total = oracles._complex(*draw(12 * dim).reshape(2, 6, dim))
    index = (np.array(rows)[:, None] * dim + np.arange(dim)).reshape(-1)

    parts = [total.real.copy(), total.imag.copy()]
    with np.errstate(invalid="ignore", over="ignore"):
        for part, term in zip(parts, (terms.real, terms.imag)):
            np.add.at(part.reshape(-1), index, np.ascontiguousarray(term).reshape(-1))
        np.add.at(total.reshape(-1), index, terms.reshape(-1))
    assert total.real.tobytes() == parts[0].tobytes()
    assert total.imag.tobytes() == parts[1].tobytes()
