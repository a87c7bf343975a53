"""Training: logistic loss, N3 regularization, AdaGrad, and the step that adds
the Horn-rule penalty (``kernel.rule_penalty``, imported here).

The objective per optimizer step is

    sum_batch log(1 + exp(-y * score))                       (logistic)
  + mu * sum_rules lam * ( sum_l [Re(hb_l)/R^k - Re(r_l)/R]_+
                         + sum_l (Im(hb_l)/R^k - Im(r_l)/R)^2 )   (rule penalty)
  + eta * sum_touched_rows sum_l |c_l|^3                     (N3)

where hb is the element-wise complex product of the rule's body relation
vectors, R the relation modulus bound, and lam the rule confidence. The rule
penalty is zero exactly when every rule satisfies the real-part entailment
inequality component-wise and the imaginary parts match. After every AdaGrad
step the embeddings are projected back onto the feasible set, so the
constraints hold exactly throughout training.

A step's arrays are (u, d) complex128 rows of the table's row space, or
their (u, 2d) float64 views. Its complex products are numpy's complex
ufuncs: the score is ``np.vecdot(t, h * r).real``, and the gradients in
the head, tail and relation rows are conj(r) * t, h * r and conj(h) * t.
Real coefficients scale the float64 views; N3 and AdaGrad work on them.
"""

import io
import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .evaluation import evaluate
from .kernel import (
    RowGrads,
    RuleArrays,
    Scratch,
    _check_ids,
    _check_rows,
    complex_array,
    rule_penalty,
)
from .kg import Triple, read_lines
from .model import (
    init_table,
    load_table,
    project,
    read_array,
    replacing,
    save_table,
    _read_rows,
    _write_rows,
)

__all__ = [
    "TrainConfig",
    "LabeledBatch",
    "AdagradState",
    "RowGrads",
    "Workspace",
    "EpochRecord",
    "TrainingDiverged",
    "sample_negatives",
    "sample_negatives_batch",
    "logistic_loss",
    "rule_penalty",
    "n3_regularization",
    "merge_row_grads",
    "step_gradients",
    "adagrad_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "write_training_log",
    "read_training_log",
]

ADAGRAD_EPS = 1e-10
NEGATIVE_ROUNDS = 100  # resampling rounds of sample_negatives_batch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 100
    epochs: int = 100
    validate_every: int = 20
    mu: float = 0.0
    eta: float = 0.001
    negatives_per_positive: int = 10
    bound: float = 1.0
    dim: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.type is int):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        # Each check is written so that NaN and inf fail it.
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be at least 1")
        if not self.epochs >= 0:
            raise ValueError("epochs must be non-negative")
        if not self.validate_every >= 0:
            raise ValueError("validate_every must be non-negative")
        if not (0 <= self.mu < math.inf and 0 <= self.eta < math.inf):
            raise ValueError("mu and eta must be non-negative and finite")
        if not self.negatives_per_positive >= 1:
            raise ValueError("negatives_per_positive must be at least 1")
        if not 0 < self.bound < math.inf:
            raise ValueError("bound must be positive and finite")
        if not self.dim >= 1:
            raise ValueError("dim must be at least 1")
        if not self.seed >= 0:
            raise ValueError("seed must be non-negative")


@dataclass
class LabeledBatch:
    triples: np.ndarray  # (B, 3) int
    labels: np.ndarray  # (B,) in {+1, -1}

    def __post_init__(self):
        self.triples = np.asarray(self.triples, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.triples.shape[0] != self.labels.shape[0]:
            raise ValueError("triples and labels must have equal length")
        if not (np.abs(self.labels) == 1.0).all():
            raise ValueError("labels must be +1 or -1")

    def __len__(self):
        return self.triples.shape[0]


class Workspace:
    """The float arrays of optimizer steps, reused from step to step so that
    the step functions allocate no large array (``train`` makes one per
    call).

    ``step`` holds what a step keeps: the logistic gradient terms and the
    merged gradients, so the RowGrads that ``step_gradients`` returns alias
    it until its next call. ``temp`` holds a function's intermediates, and
    each function resets it on entry. Both are ``kernel.Scratch`` arenas, in
    which a request that does not fit gets a fresh array: ``Workspace()``
    has no room, so a function called without a workspace allocates as it
    goes. ``triples`` and ``labels`` hold the batches ``train`` builds.

    The sizes fit a step of up to ``rows`` triples over ``relations``
    relations in dimension ``dim``, with B = rows and m = relations, in
    units of ``dim`` float64s; a complex128 row of d components takes 2. A
    step touches at most u = 2B + m rows of the row space
    (``EmbeddingTable``), 2B entity and m relation rows:
    - step: the logistic terms of heads, tails and relations, 6B, and the
      merged gradients, 2u: 10B + 2m in all;
    - temp: at most 4u = 8B + 4m, for N3 (complex rows, moduli and cubes)
      and AdaGrad (accumulators, then parameters, and steps), 4 per row
      each. Less for logistic (6B for the 3B complex rows, and 2B float64s,
      not rows, for the scores), a merge (one int64 index row per term,
      3B + m) and the projection ``train`` makes after AdaGrad (2 per row).
    """

    def __init__(self, rows=0, dim=0, relations=0):
        self.step = Scratch((10 * rows + 2 * relations) * dim)
        self.temp = Scratch((8 * rows + 4 * relations) * dim)
        self.triples = np.empty((rows, 3), dtype=np.int64)
        self.labels = np.empty(rows)


@dataclass
class AdagradState:
    """The AdaGrad accumulators ``acc``, laid out as the table's ``matrix``
    (a C-contiguous float64 array of its shape, whose rows the table's
    entity count splits), and the ``epsilon`` of the update."""

    acc: np.ndarray
    epsilon: float = ADAGRAD_EPS

    @classmethod
    def zeros(cls, num_entities, num_relations, dim):
        return cls(np.zeros((num_entities + num_relations, 2 * dim)))


def _check_state(table, state):
    """A ValueError naming both shapes unless ``state.acc`` is laid out as
    ``table.matrix``: a C-contiguous float64 array of its shape."""
    acc, matrix = state.acc, table.matrix
    if acc.shape != matrix.shape or acc.dtype != np.float64 or not acc.flags.c_contiguous:
        layout = "C-contiguous" if acc.flags.c_contiguous else "non-contiguous"
        raise ValueError(
            f"AdaGrad accumulators {acc.shape} ({layout} {acc.dtype}) do not fit "
            f"the table's C-contiguous float64 matrix {matrix.shape}"
        )


class TrainingDiverged(RuntimeError):
    pass


def sample_negatives_batch(kg, positives, count, rng):
    """Corrupt each positive ``count`` times: fair coin per negative picks the
    head or tail slot, the slot entity is replaced by a uniform entity that
    differs from the original, and proposals colliding with the filter index
    are resampled up to NEGATIVE_ROUNDS rounds (then accepted as-is).

    Returns an (B, count, 3) int array. Deterministic for a given ``rng``.
    """
    positives = np.asarray(positives, dtype=np.int64)
    B = positives.shape[0]
    n = kg.num_entities
    # One row per negative, row-major over (B, count), and the column of the
    # entity it replaces: 0 (head) where the coin reads 1, else 2 (tail).
    out = np.repeat(positives, count, axis=0)
    slots = np.arange(B * count)
    column = 2 - 2 * rng.integers(0, 2, size=B * count)
    orig = out[slots, column]
    # A one-entity graph has no other entity, so its negatives stay positives.
    pending = slots if n > 1 else slots[:0]
    for _ in range(NEGATIVE_ROUNDS):
        if pending.size == 0:
            break
        prop = rng.integers(0, n - 1, size=pending.size)
        prop += prop >= orig[pending]
        out[pending, column[pending]] = prop
        trial = out[pending]
        pending = pending[kg.contains(trial[:, 0], trial[:, 1], trial[:, 2])]
    return out.reshape(B, count, 3)


def sample_negatives(kg, positive, count, rng):
    """Negatives for one positive triple; see ``sample_negatives_batch``."""
    if count < 1:
        raise ValueError("count must be at least 1")
    out = sample_negatives_batch(kg, np.asarray([positive]), count, rng)
    return [Triple(int(h), int(r), int(t)) for h, r, t in out[0]]


def logistic_loss(table, batch, *, workspace=None):
    """Sum of log(1 + exp(-y * score)) over the batch, with one gradient term
    per occurrence: returns (loss, RowGrads over the heads, then the tails,
    then the relations, as rows of the table's row space: relation r is row
    n + r). Stable for large |y * score|. The gradients are a
    ``workspace.step`` array (``Workspace``). An entity id outside [0, n) or
    a relation id outside [0, m) is an IndexError."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    ws = Workspace() if workspace is None else workspace
    ws.temp.reset()
    triples, labels = batch.triples, batch.labels
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
    size, dim, n = len(batch), table.dim, table.num_entities
    _check_ids(table, (h, t), (r,))
    rows = np.concatenate((h, t, r))
    rows[2 * size :] += n
    # Every row the batch reads, in one gather: the heads, the tails and the
    # relations.
    values = complex_array(ws.temp, (3 * size, dim))
    table.cmatrix.take(rows, axis=0, out=values, mode="clip")
    head, tail, rel = values.reshape(3, size, dim)
    # The score's gradients in the heads', the tails' and the relations'
    # rows: conj(r) * t, the tail factors v = h * r, and conj(h) * t.
    grads = complex_array(ws.step, (3, size, dim))
    dh, v, dr = grads

    # The score Re(sum_l conj(t_l) * v_l), as in ``model.score_triples``.
    np.multiply(head, rel, out=v)
    phi = np.vecdot(tail, v, out=complex_array(ws.temp, (size,))).real
    z = labels * phi
    exp_neg = np.exp(-np.abs(z))
    loss = float(np.sum(np.maximum(-z, 0.0) + np.log1p(exp_neg)))
    sigma_neg = np.where(z >= 0, exp_neg / (1.0 + exp_neg), 1.0 / (1.0 + exp_neg))
    coeff = (-labels * sigma_neg)[:, None]

    # The head and relation factors, the head's as ``model.query_factors``
    # makes it; the gathered rows are spent.
    np.multiply(np.conjugate(rel, out=rel), tail, out=dh)
    np.multiply(np.conjugate(head, out=head), tail, out=dr)
    np.multiply(grads.view(np.float64), coeff, out=grads.view(np.float64))
    return loss, RowGrads(rows, grads.reshape(3 * size, dim))


def n3_regularization(table, rows, *, workspace=None):
    """Sum of cubed component moduli over the given rows of the table's row
    space (ascending ids, as ``merge_row_grads`` returns them); the gradient
    of |c|^3 is 3|c|*(re, im), zero at the origin. Returns (loss, RowGrads
    over the rows), as ``workspace.temp`` arrays. The loss is one sum over
    every row's cubes. The caller applies eta. A row outside the table is an
    IndexError.

    |c| is ``_modulus``'s sqrt(re*re + im*im), and |c|^3 is two multiplies.
    Multiply, add and sqrt are correctly rounded, so N3's bits depend on no
    libm, and |c| is within 1 ulp of ``np.hypot`` wherever the squares' sum
    is normal (|c| >= 2**-511). Below that the squares underflow, but |c|^3
    rounds to 0 and 3|c|*(re, im) lies below 2**-1020 either way. A
    feasible table's components lie in [0, 1] (entities) and [0, bound]
    (relations), so the sum is finite for any bound below 2**511. Past that
    it overflows only where the larger square does, and there hypot's
    gradient 3|c|*(re, im) overflows too; |c|^3 already does past 2**341.
    ``project_relation_components``, ``is_feasible`` and ``load_table`` keep
    ``np.hypot``: a modulus 1 ulp above it could rescale a component that
    hypot finds feasible, or refuse a table saved before."""
    ws = Workspace() if workspace is None else workspace
    ws.temp.reset()
    rows = _check_rows(rows, len(table.matrix), "row")
    values = complex_array(ws.temp, (rows.size, table.dim))
    table.cmatrix.take(rows, axis=0, out=values, mode="clip")
    parts = (values.real, values.imag)
    mod, cube = ws.temp(values.shape), ws.temp(values.shape)
    _modulus(parts, mod, cube)
    np.multiply(np.multiply(mod, mod, out=cube), mod, out=cube)  # mod**3
    loss = float(np.sum(cube))
    # 3.0 * mod * (re, im), written over the rows' values
    np.multiply(mod, 3.0, out=cube)
    for part in parts:
        np.multiply(cube, part, out=part)
    return loss, RowGrads(rows, values)


def _modulus(values, mod, spare):
    """sqrt(re*re + im*im) of ``values`` = (re, im) into ``mod``, with
    ``spare``, of its shape, for im*im; returns ``mod``."""
    np.multiply(values[0], values[0], out=mod)
    np.add(mod, np.multiply(values[1], values[1], out=spare), out=mod)
    return np.sqrt(mod, out=mod)


def merge_row_grads(terms, rule, *, workspace=None):
    """The gradient of each row that a step's two RowGrads blocks touch, as
    RowGrads over the sorted unique rows, in ``workspace.step`` arrays. Each
    row adds its terms in turn to +0.0: first those of ``terms``, then those
    of ``rule`` (None, or the rule penalty's terms), each block in its own
    order. Rows may repeat and come in any order in either block."""
    ws = Workspace() if workspace is None else workspace
    ws.temp.reset()
    both = terms.rows if rule is None else np.concatenate((terms.rows, rule.rows))
    rows, inverse = np.unique(both, return_inverse=True)
    count, dim = terms.rows.size, terms.values.shape[1]
    total = complex_array(ws.step, (rows.size, dim))
    total.fill(0.0)
    # Each term's d positions in the total, viewed flat: np.add.at runs far
    # faster on 1-d arrays, and adds in index order all the same. A complex
    # sum adds each part on its own, so one call per block does both.
    index = ws.temp((both.size, dim)).view(np.int64)
    np.multiply(inverse[:, None], dim, out=index)
    index += np.arange(dim)
    index = index.reshape(-1)
    flat = total.reshape(-1)
    np.add.at(flat, index[: count * dim], terms.values.reshape(-1))
    if rule is not None:
        np.add.at(flat, index[count * dim :], rule.values.reshape(-1))
    return RowGrads(rows, total)


def step_gradients(table, batch, rules, mu, eta, *, workspace=None):
    """Losses and gradients of one step on logistic + mu * rule_penalty +
    eta * N3 over ``batch``; ``rules`` is a ``RuleArrays`` packing, or
    None. Returns ((logistic, rule, N3) losses, RowGrads over the sorted
    unique rows of the table's row space that the step touches): each row
    adds its logistic terms, then mu times its rule term, in turn to +0.0 in
    one merge of the two blocks, then eta times its N3 term. Every block is
    in row-space rows. N3 covers every touched row. The gradients alias
    ``workspace``, whose ``step`` arena this resets."""
    ws = Workspace() if workspace is None else workspace
    ws.step.reset()
    l_loss, terms = logistic_loss(table, batch, workspace=ws)
    r_loss, rule = 0.0, None
    if mu > 0 and rules:
        r_loss, rule = rule_penalty(table, rules)
        rule.values.view(np.float64)[...] *= mu
    grads = merge_row_grads(terms, rule, workspace=ws)
    n_loss = 0.0
    if eta > 0:
        n_loss, n3 = n3_regularization(table, grads.rows, workspace=ws)
        n3.values.view(np.float64)[...] *= eta
        grads.values += n3.values
    return (l_loss, r_loss, n_loss), grads


def adagrad_step(table, grads, state, lr, *, workspace=None):
    """Sparse AdaGrad on summed gradients, RowGrads with unique rows of the
    table's row space: per coordinate, acc += g^2 then p -= lr * g /
    (sqrt(acc) + eps). The rows are checked, then gathered and put back
    once, in the table and in the accumulators. A row outside the table is
    an IndexError, and a state that does not fit the table a ValueError
    (``_check_state``), raised before any write."""
    _check_state(table, state)
    ws = Workspace() if workspace is None else workspace
    ws.temp.reset()
    rows = _check_rows(grads.rows, len(table.matrix), "row")
    # The accumulators share the table's layout, so the rows serve both.
    g = grads.values.view(np.float64)
    total, step = ws.temp((2,) + g.shape)
    state.acc.take(rows, axis=0, out=total, mode="clip")
    total += np.multiply(g, g, out=step)
    state.acc[rows] = total
    np.sqrt(total, out=total)
    total += state.epsilon
    np.multiply(g, lr, out=step)
    step /= total
    # ``total`` is spent: the rows' parameters go there.
    p = table.matrix.take(rows, axis=0, out=total, mode="clip")
    p -= step
    table.matrix[rows] = p


@dataclass
class EpochRecord:
    epoch: int
    logistic: float
    rule_penalty: float
    n3: float
    total: float
    valid_mrr: float | None = None


def train(kg, rules, config: TrainConfig, step_callback=None):
    """Full training loop; returns (table, [EpochRecord, ...], AdagradState).

    Per epoch the train triples are shuffled (seeded), split into batches,
    each batch is extended with sampled negatives, and one AdaGrad step plus
    projection is taken on logistic + mu*rule_penalty + eta*N3, on only the
    rows the step touches, in one ``Workspace`` for every step.
    ``step_callback(table, epoch, step)`` runs after each projection.
    Deterministic for fixed inputs and seed. With mu > 0, a rule relation id
    outside the graph is a ValueError naming the rule.
    """
    if config.mu > 0:
        rules = RuleArrays.from_rules(rules, kg.num_relations, config.dim)
    else:
        rules = None
    ss = np.random.SeedSequence(config.seed)
    init_ss, loop_ss = ss.spawn(2)
    table = init_table(
        kg.num_entities, kg.num_relations, config.dim, config.bound, seed=init_ss
    )
    state = AdagradState.zeros(kg.num_entities, kg.num_relations, config.dim)
    rng = np.random.default_rng(loop_ss)

    num_train = len(kg.train)
    records = []
    per_positive = 1 + config.negatives_per_positive
    workspace = Workspace(config.batch_size * per_positive, config.dim, kg.num_relations)

    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(num_train)
        sums = {"logistic": 0.0, "rule": 0.0, "n3": 0.0}
        for step, start in enumerate(range(0, num_train, config.batch_size)):
            # The positives, then their negatives; the last batch of an
            # epoch may be short.
            picked = perm[start : start + config.batch_size]
            positives = picked.size
            size = positives * per_positive
            triples, labels = workspace.triples[:size], workspace.labels[:size]
            triples[:positives] = kg.train[picked]
            triples[positives:] = sample_negatives_batch(
                kg, triples[:positives], config.negatives_per_positive, rng
            ).reshape(-1, 3)
            labels[:positives] = 1.0
            labels[positives:] = -1.0
            batch = LabeledBatch(triples, labels)

            (l_loss, r_loss, n_loss), grads = step_gradients(
                table, batch, rules, config.mu, config.eta, workspace=workspace
            )
            total = l_loss + config.mu * r_loss + config.eta * n_loss
            if not np.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} batch {step}: "
                    f"logistic={l_loss} rule_penalty={r_loss} n3={n_loss}"
                )

            # Only the rows the step touched can have left the feasible set.
            adagrad_step(table, grads, state, config.learning_rate, workspace=workspace)
            workspace.temp.reset()
            project(table, grads.rows, alloc=workspace.temp)
            if step_callback is not None:
                step_callback(table, epoch, step)

            sums["logistic"] += l_loss
            sums["rule"] += r_loss
            sums["n3"] += n_loss

        valid_mrr = None
        if config.validate_every >= 1 and epoch % config.validate_every == 0 and len(kg.valid):
            valid_mrr = evaluate(table, kg, kg.valid).mrr
        records.append(
            EpochRecord(
                epoch=epoch,
                logistic=sums["logistic"],
                rule_penalty=sums["rule"],
                n3=sums["n3"],
                total=sums["logistic"] + config.mu * sums["rule"] + config.eta * sums["n3"],
                valid_mrr=valid_mrr,
            )
        )
    return table, records, state


def save_checkpoint(path, table, state):
    """Embedding dump, then the AdaGrad epsilon and the accumulators split
    by the table's entity count (ent_re_acc ... rel_im_acc), written to a
    temporary file that then replaces ``path``. A state that does not fit
    the table is a ValueError (``_check_state``), raised before any write."""
    _check_state(table, state)
    with replacing(path, "wb") as handle:
        save_table(handle, table)
        handle.write(struct.pack("<d", state.epsilon))
        _write_rows(handle, state.acc, table.num_entities)


def load_checkpoint(path):
    """The table and AdaGrad state of ``save_checkpoint``. A bad or short
    file, an epsilon that is not finite and positive, an accumulator value
    that is NaN, infinite or negative, and bytes after the accumulators are
    ValueErrors that name the file and the byte offset."""
    with open(path, "rb") as handle:
        table = load_table(handle)
        name, offset = handle.name, handle.tell()
        epsilon = float(read_array(handle, (), "the AdaGrad epsilon"))
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ValueError(
                f"{name}: bad AdaGrad epsilon at byte {offset}: {epsilon} is not finite and positive"
            )
        acc = _read_rows(handle, table.dim, [
            (
                rows, (f"{what}_re_acc", f"{what}_im_acc"),
                lambda values, re: (values >= 0.0) & (values < math.inf),
                "negative", "accumulators are finite and non-negative",
            )
            for rows, what in ((table.num_entities, "ent"), (table.num_relations, "rel"))
        ])
        offset, end = handle.tell(), handle.seek(0, io.SEEK_END)
        if end > offset:
            raise ValueError(
                f"{name}: {end - offset} trailing bytes from byte {offset}; "
                "a checkpoint ends after rel_im_acc"
            )
    return table, AdagradState(acc, epsilon)


def write_training_log(path, records, config_echo=None):
    """Newline-delimited JSON: an optional config record then one per epoch.
    Written to a temporary file that then replaces ``path``."""
    with replacing(path, encoding="utf-8") as handle:
        if config_echo is not None:
            handle.write(json.dumps({"config": config_echo}, sort_keys=True) + "\n")
        for rec in records:
            handle.write(json.dumps(asdict(rec), sort_keys=True) + "\n")


def read_training_log(path):
    """The epoch records and the config echo of a ``write_training_log``
    file. A line that is not such a record is a ValueError naming the file
    and the line."""
    records = []
    config = None
    for lineno, line in enumerate(read_lines(path, ValueError), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if "config" in obj:
                config = obj["config"]
            else:
                records.append(EpochRecord(**obj))
        except (ValueError, TypeError) as err:
            raise ValueError(f"{path}:{lineno}: not a training-log record: {err}") from None
    return records, config
