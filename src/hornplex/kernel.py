"""Array kernel for the complex products of Horn-rule bodies.

A rule list is packed once into index arrays (``RuleArrays``): the body
relation ids of all n rules as one (K, n) array, K the longest body, with
shorter bodies padded at the end. The kernel gathers the body vectors of a
block of consecutive rules, puts the identity 1+0i at the padded positions
and multiplies along the body axis. Multiplying a finite product by 1+0i
leaves its value unchanged (at most the sign of a zero flips), so each rule
gets exactly the products it would get on its own. The training penalty (``training.rule_penalty``) and
the rule diagnostics (``evaluation.relation_rule_diagnostics``) share it.

Blocks hold at most ``BLOCK_ELEMENTS`` elements per (K+1, rules, d) working
array, so the memory a call needs does not grow with the rule count.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "BLOCK_ELEMENTS",
    "cmul",
    "RuleArrays",
    "body_vectors",
    "body_product",
    "prefix_products",
    "suffix_products",
    "rule_gaps",
]

BLOCK_ELEMENTS = 1 << 14


def cmul(a_re, a_im, b_re, b_im):
    """Element-wise complex product, on separate real and imaginary parts."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


@dataclass(frozen=True)
class RuleArrays:
    """The relation ids of Horn rules as index arrays, one column or entry
    per rule, in rule order."""

    body: np.ndarray  # (K, n) int64 body relation ids, 0 past a body's end
    pad: np.ndarray  # (K, n) bool, True past a body's end
    lengths: np.ndarray  # (n,) int64
    heads: np.ndarray  # (n,) int64

    @classmethod
    def from_rules(cls, rules):
        rules = list(rules)
        bodies = [rule.body for rule in rules]
        lengths = np.fromiter(map(len, bodies), dtype=np.int64, count=len(bodies))
        longest = int(lengths.max()) if rules else 0
        pad = np.arange(longest)[:, None] >= lengths
        body = np.zeros(pad.shape, dtype=np.int64)
        # The transposed views run rule by rule, so the flat ids fill in order.
        body.T[~pad.T] = np.fromiter(chain.from_iterable(bodies), dtype=np.int64)
        return cls(
            body=body,
            pad=pad,
            lengths=lengths,
            heads=np.array([rule.head for rule in rules], dtype=np.int64),
        )

    def __len__(self):
        return self.heads.size

    def blocks(self, dim):
        """(lo, hi) bounds of consecutive rule blocks; a block's (K+1, rules,
        dim) arrays hold at most BLOCK_ELEMENTS elements, or one rule."""
        size = max(1, BLOCK_ELEMENTS // ((self.body.shape[0] + 1) * dim))
        return [(lo, min(lo + size, len(self))) for lo in range(0, len(self), size)]

    def scale(self, bound, lo, hi):
        """R^k per rule of the block as a (rules, 1) column; the powers are
        Python floats, as in the per-rule formula."""
        powers = np.array([bound**k for k in range(self.body.shape[0] + 1)])
        return powers[self.lengths[lo:hi], None]


def body_vectors(table, rules, lo, hi):
    """Body relation vectors of rules lo:hi as (K, rules, d) real and
    imaginary arrays, 1+0i past each body's end."""
    ids = rules.body[:, lo:hi]
    pad = rules.pad[:, lo:hi]
    b_re = table.rel_re.take(ids, axis=0)
    b_im = table.rel_im.take(ids, axis=0)
    b_re[pad] = 1.0
    b_im[pad] = 0.0
    return b_re, b_im


def body_product(b_re, b_im):
    """b[0] x ... x b[K-1] along the body axis, multiplied in the order of
    ``prefix_products`` (its last slice) but with one running product;
    returns (rules, d) arrays."""
    hb_re, hb_im = b_re[0], b_im[0]
    for i in range(1, b_re.shape[0]):
        hb_re, hb_im = cmul(hb_re, hb_im, b_re[i], b_im[i])
    return hb_re, hb_im


def prefix_products(b_re, b_im):
    """pre[i] = b[0] x ... x b[i-1] along the body axis, pre[0] = 1+0i;
    returns (K+1, rules, d) arrays."""
    k = b_re.shape[0]
    pre_re = np.empty((k + 1,) + b_re.shape[1:])
    pre_im = np.empty_like(pre_re)
    pre_re[0], pre_im[0] = 1.0, 0.0
    pre_re[1], pre_im[1] = b_re[0], b_im[0]
    for i in range(1, k):
        pre_re[i + 1], pre_im[i + 1] = cmul(pre_re[i], pre_im[i], b_re[i], b_im[i])
    return pre_re, pre_im


def suffix_products(b_re, b_im):
    """suf[i] = b[i] x ... x b[K-1] along the body axis, suf[K] = 1+0i;
    returns (K+1, rules, d) arrays."""
    k = b_re.shape[0]
    suf_re = np.empty((k + 1,) + b_re.shape[1:])
    suf_im = np.empty_like(suf_re)
    suf_re[k], suf_im[k] = 1.0, 0.0
    suf_re[k - 1], suf_im[k - 1] = b_re[k - 1], b_im[k - 1]
    for i in reversed(range(k - 1)):
        suf_re[i], suf_im[i] = cmul(b_re[i], b_im[i], suf_re[i + 1], suf_im[i + 1])
    return suf_re, suf_im


def rule_gaps(table, rules, lo, hi, hb_re, hb_im):
    """Per-dimension gaps Re(hb)/R^k - Re(r)/R and Im(hb)/R^k - Im(r)/R of
    rules lo:hi, from their body products hb; (rules, d) arrays."""
    R = table.bound
    rk = rules.scale(R, lo, hi)
    heads = rules.heads[lo:hi]
    return (
        hb_re / rk - table.rel_re.take(heads, axis=0) / R,
        hb_im / rk - table.rel_im.take(heads, axis=0) / R,
    )
