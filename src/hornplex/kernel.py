"""Array kernel for the complex products of Horn-rule bodies.

A rule list is packed once into index arrays (``RuleArrays``), with one
``LengthGroup`` per body length k (``length_groups``). A group holds, in
rule order, the ids of its rules, their relation ids as a (k+1, r) array
(the heads, then each body position) and their confidences. Nothing is
padded, so a group of length k does only the products its bodies need.

A list is packed for a table of m relations of dimension d: the packing
checks the relation ids against m (``check_relations``), cuts each length
group into slices of consecutive rules that fit an arena of
``ARENA_ELEMENTS``, as ``_arena_rows`` counts the need per rule (a rule
that needs more on its own gets a slice to itself), and holds each slice's
scatter index. The penalty's gradient sums lie in a (K+1, u, d) array, K
the longest body and u the relations the rules touch: plane 0 for the
heads' terms and plane j for body position j's. A slice's index holds, for
each element of its (k+1, r, d) terms, its flat position in those sums:
one int64 a term element, 8·d bytes a term. The penalty (``rule_penalty``,
which ``training`` imports for its step) checks only the table's shape and
works a slice at a time, shortest body first: the slice's arrays come from
the arena (``_rule_terms``), sized to the largest slice's need, so the
memory a call needs does not grow with the rule count. The arrays a slice
takes, their count, the cut that uses the count and the sizes taken from
it all live in this module. The rule diagnostics
(``evaluation.relation_rule_diagnostics``) group a chunk of rules at a time
with ``length_groups``, take each group's vectors on their own and write
its ``rule_gaps`` into the rows of their one output array.

Products follow the per-rule formulas: the body product is
((b[0] x b[1]) x b[2]) x ..., and the factor of body position j in its
gradient is the prefix b[0] x ... x b[j-1], multiplied left to right, times
the suffix b[j+1] x ... x b[k-1], multiplied right to left. Where a formula
multiplies by the identity 1+0i (the empty prefix of position 0, the empty
suffix of position k-1, both of them when k = 1), the kernel takes the other
factor as it is. That can change at most the sign of a zero, and the
penalty's gradient sums start at +0, where +0 + (-0) is +0, so no summed
byte changes. A division by a bound or power that is exactly 1.0 is
skipped, since x / 1.0 is x.

Vectors are complex128 arrays, and each product is one ``np.multiply``.
numpy rounds a complex product as a fused multiply-add would: the real part
is fma(a, c, -(b*d)) and the imaginary part fma(a, d, b*c), two roundings
each, so its bits follow the SIMD target numpy dispatches to. A real factor
(a bound, a confidence) scales the float64 view of a complex array, so that
each part is multiplied or divided on its own, as a real number.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ARENA_ELEMENTS",
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

ARENA_ELEMENTS = 3 << 16
LOSS_CHUNK = 1 << 10


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


def complex_array(alloc, shape):
    """A complex128 array of ``shape`` from ``alloc``, which hands out
    float64 arrays (``Scratch``, or ``np.empty``): the complex view of a
    float array of twice the last axis."""
    return alloc(shape[:-1] + (2 * shape[-1],)).view(np.complex128)


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

    @property
    def length(self):
        return self.ids.shape[0] - 1


@dataclass(frozen=True)
class RuleArrays:
    """Horn rules packed for a table of ``shape`` (relations, dimension):
    the sorted relation ids the rules touch, the slices of their length
    groups, shortest body first, each with its scatter index into the
    penalty's ``planes`` planes of sums, and the arena rows of the largest
    slice's need."""

    rows: np.ndarray  # (u,) int64 sorted relation ids of heads and bodies
    shape: tuple  # (num_relations, dim) of the table
    slices: list  # (group, lo, hi, index) per slice: rules lo:hi of a group
    planes: int  # K+1 for the longest body length K; 1 for no rules
    arena: int  # the rows of dim elements of the largest slice's need

    @classmethod
    def from_rules(cls, rules, num_relations, dim):
        """``rules`` packed for a table of ``num_relations`` relations of
        dimension ``dim``; a relation id outside the table is a ValueError
        naming the first rule that has one. Each length group is cut into
        slices of consecutive rules whose ``_arena_rows`` fit an arena of
        ARENA_ELEMENTS; a rule that needs more gets a slice to itself. A
        slice's index is int64, (k+1)·r·d entries: for term
        element (p, i, l), the flat position of relation ids[p, i]'s row,
        element l, in plane p of the (planes, u, d) sums."""
        rules = list(rules)
        ids, groups = length_groups(rules)
        check_relations(ids, groups, num_relations)
        rows, slots = np.unique(ids, return_inverse=True)
        slices, at = [], 0
        for members, group_ids in groups:
            confidences = np.array([[rules[i].confidence] for i in members.tolist()])
            group = LengthGroup(members, group_ids, confidences)
            # Each term's row of the sums: its relation's slot, in its position's plane.
            slot = slots[at : at + group_ids.size].reshape(group_ids.shape)
            at += group_ids.size
            flat = (slot + rows.size * np.arange(group.length + 1)[:, None]) * dim
            step = max(1, ARENA_ELEMENTS // dim // _arena_rows(group.length))
            for lo in range(0, members.size, step):
                index = (flat[:, lo : lo + step, None] + np.arange(dim)).reshape(-1)
                slices.append((group, lo, min(lo + step, members.size), index))
        planes = groups[-1][1].shape[0] if groups else 1
        arena = max((_arena_rows(group.length) * (hi - lo) for group, lo, hi, _ in slices), default=0)
        return cls(rows, (num_relations, dim), slices, planes, arena)

    def __len__(self):
        return sum(hi - lo for _, lo, hi, _ in self.slices)


@dataclass
class RowGrads:
    """Gradient terms for rows of a table's row space (entity i is row i,
    relation r is row n + r), as every loss of a step gives them. Rows may
    repeat; a row's gradient is the sum of its terms (``training.merge_row_grads``)."""

    rows: np.ndarray  # (u,) int64 row-space ids
    values: np.ndarray  # (u, d) complex128

    re = property(lambda self: self.values.real)
    im = property(lambda self: self.values.imag)


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
    """b[0] x ... x b[k-1] of (k, r, d) complex body vectors, multiplied
    left to right; an (r, d) array: for k = 1 the view b[0], else ``out`` if
    given. No product writes over one of its factors: numpy multiplies a
    one-element array in place without the fused rounding."""
    hb = b[0]
    for i in range(1, len(b)):
        hb = np.multiply(hb, b[i], out=out if i == len(b) - 1 else None)
    return hb


def gradient_factors(b, alloc):
    """The body product of (k, r, d) complex body vectors, k >= 2,
    multiplied as in ``body_product``, and for each position j the product
    of the other factors: the prefix pre[j] = b[0] x ... x b[j-1] times the
    suffix suf[j+1] = b[j+1] x ... x b[k-1]. Returns (hb, c): hb an (r, d)
    array, c a (k, r, d) one whose c[0] is suf[1] and c[k-1] is pre[k-1].
    New arrays come from ``complex_array(alloc, shape)``."""
    k = len(b)

    def product(x, y, out=None):
        return np.multiply(x, y, out=complex_array(alloc, x.shape) if out is None else out)

    if k == 2:
        return product(b[0], b[1]), b[::-1]
    c = complex_array(alloc, b.shape)
    pre = [None, b[0]]
    for i in range(2, k):
        pre.append(product(pre[i - 1], b[i - 1], c[k - 1] if i == k - 1 else None))
    hb = product(pre[k - 1], b[k - 1])
    suf = {k - 1: b[k - 1]}
    for i in range(k - 2, 0, -1):
        suf[i] = product(b[i], suf[i + 1], c[0] if i == 1 else None)
    for j in range(1, k - 1):
        product(pre[j], suf[j + 1], c[j])
    return hb, c


def rule_gaps(table, head, hb, rk, out):
    """Per-dimension gaps hb/R^k - r/R, Re(hb)/R^k - Re(r)/R in the real
    part and Im(hb)/R^k - Im(r)/R in the imaginary one, of rules with
    (r, d) complex head vectors r, which this overwrites, and body products
    hb, rk = R**k, written to the (r, d) complex array ``out``, which may be
    ``hb``. Each part is divided on its own."""
    if table.bound != 1.0:  # x / 1.0 is x
        np.divide(head.view(np.float64), table.bound, out=head.view(np.float64))
    if rk != 1.0:
        hb = np.divide(hb.view(np.float64), rk, out=out.view(np.float64)).view(np.complex128)
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

    Rules run a slice at a time, shortest body first, in one arena of the
    size the packing records (see the module docstring). Per-rule losses
    are added in rule order. Each row's gradient is A_0 + A_1 + ... + A_K,
    added in that order, where A_p sums, from +0.0 and in turn, the terms
    of body position p (p = 0: the head's) of the rules taken shortest body
    first and in rule order within one body length. So the gradient does
    not depend on d, the arena or the slices, nor on how rules of different
    body lengths interleave in the list.
    """
    dim = table.dim
    shape = (table.num_relations, dim)
    if not isinstance(rules, RuleArrays):
        rules = RuleArrays.from_rules(rules, *shape)
    elif rules.shape != shape:
        raise ValueError(f"rules packed for (relations, dim) {rules.shape}, the table is {shape}")
    scratch = Scratch(rules.arena * dim)
    losses = np.empty(len(rules))
    # One plane of sums per body position, the heads' first. A slice's terms
    # go to theirs in one np.add.at through its flat index: np.add.at runs
    # far faster on 1-d arrays, and adds in index order all the same, each
    # part of a complex term on its own.
    sums = np.zeros((rules.planes, rules.rows.size, dim), dtype=np.complex128)
    flat = sums.reshape(-1)
    for group, lo, hi, index in rules.slices:
        scratch.reset()
        np.add.at(flat, index, _rule_terms(table, group, lo, hi, losses, scratch).reshape(-1))
    for plane in sums[1:]:
        sums[0] += plane

    # In chunks, so that no list of a Python float per rule is held.
    loss = 0.0
    for at in range(0, losses.size, LOSS_CHUNK):
        for term in losses[at : at + LOSS_CHUNK].tolist():
            loss += term
    return loss, RowGrads(rules.rows + table.num_entities, sums[0])


def _arena_rows(k):
    """The rows of ``dim`` float64 elements that ``_rule_terms`` takes from
    its arena per rule of body length k, two per complex vector:
    - for every k, the k+1 body vectors (heads included), the k+1 gradient
      terms and the active + 2vi array: 4k + 6;
    - for k = 2, the body product of ``gradient_factors``: 2 more, 16 in all;
    - for k >= 3, ``gradient_factors``' c (2k), body product (2) and the
      prefixes and suffixes that do not go into c (4k - 12): 6k - 10 more,
      10k - 4 in all.
    The gaps overwrite the body product, and the hinges and squares of the
    loss the body terms' rows before those are written.
    ``RuleArrays.from_rules`` cuts the slices by this count and sizes the
    penalty's arena by it, so any change to the arrays ``_rule_terms`` takes
    must change it too."""
    return 10 if k == 1 else 16 if k == 2 else 10 * k - 4


def _rule_terms(table, group, lo, hi, losses, alloc):
    """The penalty of rules lo:hi of a length group: their losses go into
    ``losses`` at their rule ids, and their gradient terms are returned as a
    (k+1, r, d) complex array, the head's term and then each body
    position's. Arrays come from ``alloc(shape)``: ``_arena_rows`` rows of
    d float64 elements per rule."""
    R = table.bound
    k = group.length
    rk = R**k
    lam = group.confidences[lo:hi]
    ids = group.ids[:, lo:hi]  # checked at packing
    b = complex_array(alloc, ids.shape + (table.dim,))
    table.crel.take(ids, axis=0, out=b, mode="clip")
    body = b[1:]
    hb, c = (body[0], None) if k == 1 else gradient_factors(body, alloc)
    gap = rule_gaps(table, b[0], hb, rk, out=hb)
    u, v = gap.real, gap.imag
    g = complex_array(alloc, b.shape)
    aw = complex_array(alloc, gap.shape)  # active + 2vi, active = [u > 0]
    active, w = aw.real, aw.imag
    # The hinges u * active and the squares v * v, each a contiguous row
    # per rule for its sum, in rows of g that the body terms fill later.
    hinge_square = g[1].view(np.float64).reshape((2,) + gap.shape)
    np.greater(u, 0.0, out=active, casting="unsafe")
    np.multiply(u, active, out=hinge_square[0])
    np.multiply(v, v, out=hinge_square[1])
    sums = hinge_square.sum(axis=2)
    losses[group.rules[lo:hi]] = lam[:, 0] * (sums[0] + sums[1])

    # lam scales aw = active + 2vi once. The head's term is then aw / -R,
    # and body position j's is aw * conj(c_j) / R^k, with c_j the product
    # of the other factors: 1+0i when k = 1.
    np.multiply(v, 2.0, out=w)
    np.multiply(aw.view(np.float64), lam, out=aw.view(np.float64))
    np.divide(aw.view(np.float64), -R, out=g[0].view(np.float64))
    if c is None:
        g[1] = aw
    else:
        np.multiply(aw, np.conjugate(c, out=c), out=g[1:])  # c is spent
    if rk != 1.0:
        np.divide(g[1:].view(np.float64), rk, out=g[1:].view(np.float64))
    return g
