"""Array kernel for the complex products of Horn-rule bodies.

A rule list is packed once into index arrays (``RuleArrays``), with one
``LengthGroup`` per body length k (``length_groups``). A group holds, in
rule order, the ids of its rules, their relation ids as a (k+1, r) array
(the heads, then each body position), their confidences, and the rows their
gradient terms take in the rule-major term sequence of the whole list: each
rule's head term, then one term per body position. Nothing is padded, so a
group of length k does only the products its bodies need.

For a table of dimension d the rules are cut into windows of consecutive
rules (``RuleArrays.windows``). A window is the slice of each length group
that falls into it. It ends where its Σ(k+1)·d gradient terms would pass
``WINDOW_ELEMENTS``, or where one group's slice would need more of an arena
of ``ARENA_ELEMENTS`` than it holds, as the caller counts that need per
rule; a rule that breaks a limit on its own gets a window to itself. The
training penalty (``training.rule_penalty``) works a window at a time: each
group's slice takes its arrays from the arena, and the window's scatter
index, one int64 row a term, takes the arena once the groups are done.
Several windows get buffers of the budget sizes, so the memory a call needs
does not grow with the rule count. The rule diagnostics
(``evaluation.relation_rule_diagnostics``) gather the vectors of every group
in one call and take each length group whole.

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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WINDOW_ELEMENTS",
    "ARENA_ELEMENTS",
    "cmul",
    "cmul_into",
    "LengthGroup",
    "RuleArrays",
    "length_groups",
    "check_relations",
    "Scratch",
    "take_rows",
    "body_product",
    "gradient_factors",
    "rule_gaps",
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


def _halves(matrix, rows, what):
    """``matrix``, a C-contiguous (n, 2d) array of ``[re | im]`` rows of
    ``what`` (entity or relation), as (2n, d) rows, row 2i the re half of row
    i and row 2i+1 its im half, and the indices in it of the halves of the
    int64 ``rows``, stacked [re, im] on a new first axis: taking them copies
    no whole half, as taking from the strided half views would. A row outside
    [0, n) is an IndexError (a negative one, as uint64, exceeds any n), so
    the indices may be taken with mode="clip", which needs no buffer."""
    n = matrix.shape[0]
    if rows.size and rows.view(np.uint64).max() >= n:
        raise IndexError(f"{what} index out of range for {n} {what}s")
    index = np.add.outer(_HALF, 2 * rows)
    return matrix.reshape(2 * n, matrix.shape[1] // 2), index


def length_groups(rules):
    """``rules`` grouped by body length k, shortest first, as (ids, groups).
    Each group is (its rule indices in rule order, a (k+1, r) int64 array of
    their relation ids, each rule's head above its body); the arrays are
    views, one after another, of the flat array ``ids``."""
    members = {}
    for i, rule in enumerate(rules):
        members.setdefault(len(rule.body), []).append(i)
    flat = []
    for _, group in sorted(members.items()):
        for position in zip(*[(rules[i].head, *rules[i].body) for i in group]):
            flat.extend(position)
    ids = np.array(flat, dtype=np.int64)
    groups = []
    start = 0
    for k, group in sorted(members.items()):
        end = start + (k + 1) * len(group)
        groups.append((np.array(group), ids[start:end].reshape(k + 1, len(group))))
        start = end
    return ids, groups


def check_relations(ids, groups, num_relations):
    """Raise ValueError naming the first rule, in rule order, that has a
    relation id outside [0, num_relations). ``ids`` holds the rules'
    smallest and largest relation ids; ``groups`` are as ``length_groups``
    returns them."""
    if ids.size == 0 or (ids.min() >= 0 and ids.max() < num_relations):
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
    """Horn rules as index arrays: their length groups, where each rule's
    terms start in the rule-major term sequence (a rule's head, then its
    body), and the sorted relation ids the rules touch with, per term, the
    position of its relation among them."""

    groups: tuple  # LengthGroup per body length present, shortest first
    starts: np.ndarray  # (n+1,) int64; rule i's terms are rows starts[i]:starts[i+1]
    rows: np.ndarray  # (u,) int64 sorted relation ids of heads and bodies
    slots: np.ndarray  # (starts[n],) int64 position in rows of each term's relation
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_rules(cls, rules):
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
        return cls(tuple(groups), starts, rows, slots.reshape(-1))

    def __len__(self):
        return self.starts.size - 1

    def check_relations(self, num_relations):
        """``check_relations`` on the groups, with the sorted relation ids."""
        groups = [(group.rules, group.ids) for group in self.groups]
        check_relations(self.rows, groups, num_relations)

    def windows(self, dim, need=None):
        """The rules cut into windows of consecutive rules for a table of
        dimension ``dim``, in rule order, as (first, count, parts): the
        window's terms are rows first:first+count of the term sequence, and
        ``parts`` lists (group, lo, hi) for each group with rules lo:hi in it.
        A window holds at most WINDOW_ELEMENTS // dim terms. ``need(k)``, if
        given, is the number of rows of ``dim`` elements that a rule of body
        length k takes from an arena of ARENA_ELEMENTS: then each group's
        slice of a window needs at most the rows the arena holds, and so does
        the window's scatter index, one row a term. A rule that breaks a
        limit on its own gets a window to itself."""
        cap = max(1, WINDOW_ELEMENTS // dim)
        most = ()  # rules per group slice
        if need is not None:
            rows = ARENA_ELEMENTS // dim
            cap = max(1, min(cap, rows))
            most = tuple(rows // need(group.length) for group in self.groups)
        key = (cap, most)
        cached = self._windows.get(key)
        if cached is None:
            starts = self.starts
            cuts = [0]
            while cuts[-1] < len(self):
                lo = cuts[-1]
                hi = int(np.searchsorted(starts, starts[lo] + cap, side="right")) - 1
                for group, count in zip(self.groups, most):
                    at = int(np.searchsorted(group.rules, lo)) + count
                    if at < group.rules.size:
                        hi = min(hi, int(group.rules[at]))
                cuts.append(max(hi, lo + 1))
            bounds = [np.searchsorted(group.rules, cuts).tolist() for group in self.groups]
            cached = self._windows[key] = [
                (
                    int(starts[lo]),
                    int(starts[hi] - starts[lo]),
                    [
                        (group, at[w], at[w + 1])
                        for group, at in zip(self.groups, bounds)
                        if at[w] < at[w + 1]
                    ],
                )
                for w, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
            ]
        return cached


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


def take_rows(matrix, rows, what, alloc=np.empty):
    """Rows ``rows`` (an int64 array) of an (n, 2d) ``[re | im]`` matrix of
    ``what`` rows, stacked [re, im] on a new first axis: for relation ids of
    shape (k, r), say, a (2, k, r, d) array. It comes from ``alloc(shape)``.
    A row outside the matrix is an IndexError."""
    halves, index = _halves(matrix, rows, what)
    return halves.take(index, axis=0, out=alloc(index.shape + halves.shape[1:]), mode="clip")


def body_product(b):
    """b[0] x ... x b[k-1] of (2, k, r, d) body vectors, multiplied left to
    right; a (2, r, d) array."""
    hb = b[:, 0]
    for i in range(1, b.shape[1]):
        hb = cmul_into(hb, b[:, i], np.empty(hb.shape), np.empty(hb.shape))
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


def rule_gaps(table, head, hb, rk, alloc=np.empty):
    """Per-dimension gaps Re(hb)/R^k - Re(r)/R and Im(hb)/R^k - Im(r)/R of
    rules with (2, r, d) head vectors r, which this overwrites, and body
    products hb, rk = R**k; a (2, r, d) array, ``head`` or one from
    ``alloc(shape)``."""
    if table.bound != 1.0:  # x / 1.0 is x
        head /= table.bound
    if rk == 1.0:
        return np.subtract(hb, head, out=head)
    gap = np.divide(hb, rk, out=alloc(hb.shape))
    gap -= head
    return gap
