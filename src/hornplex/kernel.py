"""Array kernel for the complex products of Horn-rule bodies.

A rule list is packed once into index arrays (``RuleArrays``), with one
``LengthGroup`` per body length k (``length_groups``). A group holds, in
rule order, the ids of its rules, their relation ids as a (k+1, r) array
(the heads, then each body position), their confidences, and the rows their
gradient terms take in the rule-major term sequence of the whole list: each
rule's head term, then one term per body position. Nothing is padded, so a
group of length k does only the products its bodies need.

A list is packed for a table of m relations of dimension d: the packing
checks the relation ids against m (``check_relations``), cuts the rules
into windows of consecutive rules (``_cut_windows``) and records the sizes
of the penalty's buffers. A window is the slice of each length group that
falls into it. It ends where its Σ(k+1)·d gradient terms would pass
``WINDOW_ELEMENTS``, or where one group's slice would need more of an arena
of ``ARENA_ELEMENTS`` than it holds, as ``_arena_rows`` counts that need per
rule; a rule that breaks a limit on its own gets a window to itself. The
penalty (``rule_penalty``, which ``training`` imports for its step) checks
only the table's shape and works a window at a time: each group's slice
takes its arrays from the arena (``_rule_terms``), and the window's scatter
index, one int64 row a term, takes the arena once the groups are done. One
set of buffers is sized to the largest window's need, so the memory a call
needs does not grow with the rule count. The arrays a slice takes, their
count, the cut that uses the count and the sizes taken from it all live in
this module. The rule
diagnostics (``evaluation.relation_rule_diagnostics``) group a chunk of
rules at a time with ``length_groups``, take each group's vectors on their
own and write its ``rule_gaps`` into the rows of their one output array.

Products follow the per-rule formulas: the body product is
((b[0] x b[1]) x b[2]) x ..., and the factor of body position j in its
gradient is the prefix b[0] x ... x b[j-1], multiplied left to right, times
the suffix b[j+1] x ... x b[k-1], multiplied right to left. Where a formula
multiplies by the identity 1+0i (the empty prefix of position 0, the empty
suffix of position k-1, both of them when k = 1), the kernel takes the other
factor as it is. That can change at most the sign of a zero, and the
penalty's gradient sums start at +0, where +0 + (-0) is +0, so no summed
byte changes. A division by a bound or power that is exactly 1.0 is
skipped, since x / 1.0 is x. Complex arrays are stacked [re, im] on their
first axis, so one call works on both parts.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WINDOW_ELEMENTS",
    "ARENA_ELEMENTS",
    "cmul",
    "cmul_into",
    "LengthGroup",
    "RuleArrays",
    "RowGrads",
    "length_groups",
    "check_relations",
    "Scratch",
    "body_product",
    "gradient_factors",
    "rule_gaps",
    "rule_penalty",
]

WINDOW_ELEMENTS = 1 << 16
ARENA_ELEMENTS = 3 << 16


def cmul(a_re, a_im, b_re, b_im):
    """Element-wise complex product, on separate real and imaginary parts."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def cmul_into(a, b, out, scratch):
    """The products of ``cmul`` for complex arrays stacked as [re, im] on
    the first axis, written to ``out``. ``scratch`` has the shape of ``out``;
    neither may overlap ``a`` or ``b``."""
    np.multiply(a, b, out=scratch)  # a_re*b_re, a_im*b_im
    np.subtract(scratch[0], scratch[1], out=out[0])
    np.multiply(a, b[::-1], out=scratch)  # a_re*b_im, a_im*b_re
    np.add(scratch[0], scratch[1], out=out[1])
    return out


_HALF = np.arange(2)


def _check_rows(rows, count, what):
    """``rows``, an int or an int array, as int64; an IndexError unless each
    id lies in [0, count), the ids of ``what`` (entity, relation or row)
    rows. As uint64, a negative id exceeds any count."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and rows.view(np.uint64).max() >= count:
        raise IndexError(f"{what} index out of range for {count} {what} ids")
    return rows


def _check_ids(space, entities, relations):
    """``_check_rows`` of each of ``entities`` and ``relations`` against the
    ``num_entities`` and ``num_relations`` of ``space``, a table or a graph."""
    for ids in entities:
        _check_rows(ids, space.num_entities, "entity")
    for ids in relations:
        _check_rows(ids, space.num_relations, "relation")


def _halves(matrix, rows):
    """``matrix``, a C-contiguous (n, 2d) array of ``[re | im]`` rows, as
    (2n, d) rows, row 2i the re half of row i and row 2i+1 its im half, and
    the indices in it of the halves of the int64 ``rows``, stacked [re, im]
    on a new first axis: taking them copies no whole half, as taking from
    the strided half views would. ``rows`` must lie in [0, n)
    (``_check_rows``, or ``check_relations`` for the relation ids of rules),
    so the indices may be taken with mode="clip", which needs no buffer."""
    index = np.add.outer(_HALF, 2 * rows)
    return matrix.reshape(2 * matrix.shape[0], matrix.shape[1] // 2), index


def length_groups(rules, start=0, stop=None):
    """``rules[start:stop]`` grouped by body length k, shortest first, as
    (ids, groups). Each group is (its rules' indices in ``rules``, in rule
    order, and a (k+1, r) int64 array of their relation ids, each rule's
    head above its body); the arrays are views, one after another, of the
    flat array ``ids``."""
    members = {}
    for i, rule in enumerate(rules[start:stop], start):
        members.setdefault(len(rule.body), []).append(i)
    flat = []
    for _, group in sorted(members.items()):
        for position in zip(*[(rules[i].head, *rules[i].body) for i in group]):
            flat.extend(position)
    ids = np.array(flat, dtype=np.int64)
    groups = []
    at = 0
    for k, group in sorted(members.items()):
        end = at + (k + 1) * len(group)
        groups.append((np.array(group), ids[at:end].reshape(k + 1, len(group))))
        at = end
    return ids, groups


def check_relations(ids, groups, num_relations):
    """Raise ValueError naming the first rule, in rule order, that has a
    relation id outside [0, num_relations). ``ids`` is an int64 array of
    every relation id the rules hold (a negative id, as uint64, exceeds any
    count); ``groups`` are as ``length_groups`` returns them."""
    if ids.size == 0 or ids.view(np.uint64).max() < num_relations:
        return
    bad = []
    for members, group_ids in groups:
        wrong = (group_ids < 0) | (group_ids >= num_relations)
        if wrong.any():
            column = int(np.flatnonzero(wrong.any(axis=0))[0])
            bad.append((int(members[column]), int(group_ids[wrong[:, column], column][0])))
    rule, relation = min(bad)
    raise ValueError(f"rule {rule}: relation id {relation} outside [0, {num_relations})")


@dataclass(frozen=True)
class LengthGroup:
    """The rules of one body length k, in rule order."""

    rules: np.ndarray  # (r,) int64 rule indices, ascending
    ids: np.ndarray  # (k+1, r) int64 relation ids: the head, then each body position
    confidences: np.ndarray  # (r, 1) float64
    terms: np.ndarray  # (k+1, r) int64 rows of the same terms in the term sequence

    @property
    def length(self):
        return self.ids.shape[0] - 1


@dataclass(frozen=True)
class RuleArrays:
    """Horn rules packed for a table of ``shape`` (relations, dimension):
    where each rule's terms start in the rule-major term sequence (a rule's
    head, then its body), the sorted relation ids the rules touch with, per
    term, the position of its relation among them, and their windows
    (``_cut_windows``), which hold their length groups, and buffer sizes."""

    starts: np.ndarray  # (n+1,) int64; rule i's terms are rows starts[i]:starts[i+1]
    rows: np.ndarray  # (u,) int64 sorted relation ids of heads and bodies
    slots: np.ndarray  # (starts[n],) int64 position in rows of each term's relation
    shape: tuple  # (num_relations, dim) of the table
    windows: list  # (first, count, parts) per window, in rule order
    width: int  # the terms of the largest window
    arena: int  # the rows of dim elements of the largest need of a window

    @classmethod
    def from_rules(cls, rules, num_relations, dim):
        """``rules`` packed for a table of ``num_relations`` relations of
        dimension ``dim``; a relation id outside the table is a ValueError
        naming the first rule that has one."""
        rules = list(rules)
        lengths = np.fromiter((len(rule.body) for rule in rules), np.int64, len(rules))
        starts = np.zeros(len(rules) + 1, dtype=np.int64)
        np.cumsum(lengths + 1, out=starts[1:])
        relations = np.empty(starts[-1], dtype=np.int64)
        groups = []
        for members, ids in length_groups(rules)[1]:
            terms = starts[members] + np.arange(ids.shape[0])[:, None]
            relations[terms] = ids
            confidences = np.array([[rules[i].confidence] for i in members.tolist()])
            groups.append(LengthGroup(members, ids, confidences, terms))
        rows, slots = np.unique(relations, return_inverse=True)
        check_relations(rows, [(group.rules, group.ids) for group in groups], num_relations)
        windows = _cut_windows(groups, starts, dim)
        # The penalty's buffers: the rule-major gradient terms of a window,
        # [re, im], and an arena for the arrays of one length group in a
        # window, then for the window's scatter index, one row a term.
        width = max((count for _, count, _ in windows), default=0)
        need = [_arena_rows(group.length) * (hi - lo) for _, _, parts in windows for group, lo, hi in parts]
        shape, arena = (num_relations, dim), max([width] + need)
        return cls(starts, rows, slots.reshape(-1), shape, windows, width, arena)

    def __len__(self):
        return self.starts.size - 1


def _cut_windows(groups, starts, dim):
    """Rules, as length groups and term starts, cut into windows of
    consecutive rules for a table of dimension ``dim``, in rule order, as
    (first, count, parts): the window's terms are rows first:first+count of
    the term sequence, and ``parts`` lists (group, lo, hi) for each group
    with rules lo:hi in it. A window holds at most WINDOW_ELEMENTS // dim
    terms, each group's slice of it needs at most the rows of ``dim``
    elements that an arena of ARENA_ELEMENTS holds (``_arena_rows`` per
    rule), and so does the window's scatter index, one row a term. A rule
    that breaks a limit on its own gets a window to itself."""
    rows = ARENA_ELEMENTS // dim
    cap = max(1, min(WINDOW_ELEMENTS // dim, rows))
    most = [rows // _arena_rows(group.length) for group in groups]
    cuts = [0]
    while cuts[-1] < starts.size - 1:
        lo = cuts[-1]
        hi = int(np.searchsorted(starts, starts[lo] + cap, side="right")) - 1
        for group, count in zip(groups, most):
            at = int(np.searchsorted(group.rules, lo)) + count
            if at < group.rules.size:
                hi = min(hi, int(group.rules[at]))
        cuts.append(max(hi, lo + 1))
    bounds = [np.searchsorted(group.rules, cuts).tolist() for group in groups]
    return [
        (
            int(starts[lo]),
            int(starts[hi] - starts[lo]),
            [(group, at[w], at[w + 1]) for group, at in zip(groups, bounds) if at[w] < at[w + 1]],
        )
        for w, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]


@dataclass
class RowGrads:
    """Gradient terms for rows of a table's row space (entity i is row i,
    relation r is row n + r), as every loss of a step gives them. Rows may
    repeat; a row's gradient is the sum of its terms (``training.merge_row_grads``)."""

    rows: np.ndarray  # (u,) int64 row-space ids
    values: np.ndarray  # (2, u, d): [re, im]

    re = property(lambda self: self.values[0])
    im = property(lambda self: self.values[1])


class Scratch:
    """Arrays carved in turn from one flat buffer of ``size`` elements;
    ``reset`` hands the whole buffer out again. A request that no longer fits
    gets a fresh array."""

    def __init__(self, size):
        self.buffer = np.empty(size)
        self.used = 0

    def __call__(self, shape):
        size = math.prod(shape)
        if self.used + size > self.buffer.size:
            return np.empty(shape)
        self.used += size
        return self.buffer[self.used - size : self.used].reshape(shape)

    def reset(self):
        self.used = 0


def body_product(b, out=None):
    """b[0] x ... x b[k-1] of (2, k, r, d) body vectors, multiplied left to
    right; a (2, r, d) array: for k = 1 the view b[:, 0], else ``out`` if
    given. The products share one scratch array."""
    k = b.shape[1]
    hb = b[:, 0]
    if k == 1:
        return hb
    scratch = np.empty(hb.shape)
    for i in range(1, k):
        last = i == k - 1 and out is not None
        hb = cmul_into(hb, b[:, i], out if last else np.empty(hb.shape), scratch)
    return hb


def gradient_factors(b, alloc):
    """The body product of (2, k, r, d) body vectors, k >= 2, multiplied as
    in ``body_product``, and for each position j the product of the other
    factors: the prefix pre[j] = b[0] x ... x b[j-1] times the suffix
    suf[j+1] = b[j+1] x ... x b[k-1]. Returns (hb, c): hb a (2, r, d) array,
    c a (2, k, r, d) one whose c[:, 0] is suf[1] and c[:, k-1] is pre[k-1].
    New arrays come from ``alloc(shape)``."""
    k = b.shape[1]
    shape = (2,) + b.shape[2:]
    scratch = alloc(shape)

    def product(x, y, out=None):
        return cmul_into(x, y, alloc(shape) if out is None else out, scratch)

    if k == 2:
        return product(b[:, 0], b[:, 1]), b[:, ::-1]
    c = alloc(b.shape)
    pre = [None, b[:, 0]]
    for i in range(2, k):
        pre.append(product(pre[i - 1], b[:, i - 1], c[:, k - 1] if i == k - 1 else None))
    hb = product(pre[k - 1], b[:, k - 1])
    suf = {k - 1: b[:, k - 1]}
    for i in range(k - 2, 0, -1):
        suf[i] = product(b[:, i], suf[i + 1], c[:, 0] if i == 1 else None)
    for j in range(1, k - 1):
        product(pre[j], suf[j + 1], c[:, j])
    return hb, c


def rule_gaps(table, head, hb, rk, out):
    """Per-dimension gaps Re(hb)/R^k - Re(r)/R and Im(hb)/R^k - Im(r)/R of
    rules with (2, r, d) head vectors r, which this overwrites, and body
    products hb, rk = R**k, written to the (2, r, d) array ``out``, which
    may be ``hb``."""
    if table.bound != 1.0:  # x / 1.0 is x
        head /= table.bound
    if rk != 1.0:
        hb = np.divide(hb, rk, out=out)
    return np.subtract(hb, head, out=out)


def rule_penalty(table, rules):
    """Hinge + squared penalty for a collection of Horn rules.

    Per rule with confidence lam, body product hb and head r:
      lam * sum_l max(0, Re(hb_l)/R^k - Re(r_l)/R)      (real part, hinge)
    + lam * sum_l (Im(hb_l)/R^k - Im(r_l)/R)^2          (imaginary part)

    ``rules`` is a list of HornRule, packed here, or its ``RuleArrays``
    packing for a table of this shape, whose ids that packing checked; a
    packing for another shape is a ValueError naming both shapes. The caller
    applies the global coefficient mu. The subgradient of the hinge at zero
    is taken as zero, so exactly satisfied rules contribute no gradient.
    Returns (loss, RowGrads over the touched relations' rows, n + r for r,
    ascending). A relation id outside the table is a ValueError naming the rule.

    Rules run a window at a time, and within a window one body length at a
    time, in one set of buffers of the sizes the packing records (see the
    module docstring). Per-rule losses are added in rule order, and each
    row's gradient sums its terms in rule order (head, then body positions),
    so the result does not depend on the windows.
    """
    dim = table.dim
    shape = (table.num_relations, dim)
    if not isinstance(rules, RuleArrays):
        rules = RuleArrays.from_rules(rules, *shape)
    elif rules.shape != shape:
        raise ValueError(f"rules packed for (relations, dim) {rules.shape}, the table is {shape}")
    # The terms and the row sums keep each re beside its im, so that the
    # scatter can take the pair as one complex128, whose sum adds each part
    # on its own: one np.add.at call per window does both halves.
    pairs = np.empty((rules.width, dim, 2))
    terms = pairs.transpose(2, 0, 1)
    scratch = Scratch(rules.arena * dim)
    span = np.arange(dim)
    losses = np.empty(len(rules))
    sums = np.zeros((rules.rows.size, dim, 2))
    acc = sums.transpose(2, 0, 1)

    for first, count, parts in rules.windows:
        for group, lo, hi in parts:
            scratch.reset()
            terms[:, group.terms[:, lo:hi] - first] = _rule_terms(table, group, lo, hi, losses, scratch)
        # Scatter in rule order through flat indices: np.add.at runs far
        # faster on 1-d arrays, and adds in index order all the same.
        scratch.reset()
        index = scratch((count, dim)).view(np.int64)
        np.multiply(rules.slots[first : first + count, None], dim, out=index)
        index += span
        np.add.at(
            sums.view(np.complex128).reshape(-1),
            index.reshape(-1),
            pairs[:count].view(np.complex128).reshape(-1),
        )

    loss = 0.0
    for term in losses.tolist():
        loss += term
    return loss, RowGrads(rules.rows + table.num_entities, acc)


def _arena_rows(k):
    """The rows of ``dim`` elements that ``_rule_terms`` takes from its arena
    per rule of body length k:
    - for every k, the (2, k+1) body vectors (heads included), the (2, k+1)
      gradient terms and the (2,) active and 2v arrays: 4k + 6;
    - for k = 2, the scratch and body product of ``gradient_factors`` and
      the (2, 2) products with c: 8 more, 22 in all;
    - for k >= 3, ``gradient_factors``' scratch (2), c (2k), body product
      (2) and the prefixes and suffixes that do not go into c (4k - 12):
      6k - 8 more, 10k - 2 in all.
    The gaps overwrite the body product. ``_cut_windows`` cuts the windows
    by this count and ``RuleArrays.from_rules`` sizes the penalty's arena by
    it, so any change to the arrays ``_rule_terms`` takes must change it
    too."""
    return 10 if k == 1 else 22 if k == 2 else 10 * k - 2


def _rule_terms(table, group, lo, hi, losses, alloc):
    """The penalty of rules lo:hi of a length group: their losses go into
    ``losses`` at their rule ids, and their gradient terms are returned as a
    (2, k+1, r, d) array, [re, im] of the head's term and then of each body
    position's. Arrays come from ``alloc(shape)``: ``_arena_rows`` rows of
    d elements per rule."""
    R = table.bound
    k = group.length
    rk = R**k
    lam = group.confidences[lo:hi]
    halves, index = _halves(table.rel, group.ids[:, lo:hi])  # ids checked at packing
    b = halves.take(index, axis=0, out=alloc(index.shape + halves.shape[1:]), mode="clip")
    body = b[:, 1:]
    hb, c = (body[:, 0], None) if k == 1 else gradient_factors(body, alloc)
    u, v = rule_gaps(table, b[:, 0], hb, rk, out=hb)
    g = alloc((2, k + 1) + u.shape)
    aw = alloc((2,) + u.shape)  # active = [u > 0], then w = 2v
    np.greater(u, 0.0, out=aw[0], casting="unsafe")
    np.multiply(u, aw[0], out=g[0, 0])
    np.multiply(v, v, out=g[1, 0])
    sums = g[:, 0].sum(axis=2)
    losses[group.rules[lo:hi]] = lam[:, 0] * (sums[0] + sums[1])

    # The head's term is lam * (-active/R, -2v/R), taken as (active, 2v) /
    # -R, the same bits. Body position j's is lam * (active*c_re + 2v*c_im,
    # -active*c_im + 2v*c_re) / R^k, with c the product of the other
    # factors: 1+0i when k = 1.
    np.multiply(v, 2.0, out=aw[1])
    np.divide(aw, -R, out=g[:, 0])
    if c is None:
        g[:, 1] = aw
    else:
        t = body if k > 2 else alloc(c.shape)  # spent once c is made, unless k = 2
        np.multiply(c, aw[:, None], out=t)  # c_re*active, c_im*w
        np.add(t[0], t[1], out=g[0, 1:])
        np.multiply(c, aw[::-1, None], out=t)  # c_re*w, c_im*active
        np.subtract(t[0], t[1], out=g[1, 1:])
    g *= lam
    if rk != 1.0:
        g[:, 1:] /= rk
    return g
