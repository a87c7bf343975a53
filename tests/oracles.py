"""Independent slow-path oracles used to cross-check the package's fast paths.

These deliberately avoid the indices and vectorized formulas of the library:
membership is a linear scan over the raw split lists, ranking materializes
and sorts whole candidate lists, and rule confidence enumerates entity tuples
exhaustively. The rule penalty and the rule diagnostics loop over rules one
at a time, multiplying each body out on its own.
"""

import numpy as np

from hornplex.kg import Triple
from hornplex.model import score
from hornplex.training import RowGrads


def naive_contains(kg, triple):
    """Linear scan over the concatenated split lists."""
    for split in (kg.train, kg.valid, kg.test):
        for t in split:
            if t == triple:
                return True
    return False


def brute_force_filtered_rank(table, kg, triple, side):
    """Materialize, filter, and sort the full candidate list; ties scored as
    the mean of the optimistic and pessimistic placement."""
    known = set(kg.train) | set(kg.valid) | set(kg.test)
    true_entity = triple.tail if side == "tail" else triple.head
    kept_scores = []
    for c in range(kg.num_entities):
        if side == "tail":
            cand = Triple(triple.head, triple.relation, c)
        else:
            cand = Triple(c, triple.relation, triple.tail)
        if c != true_entity and cand in known:
            continue
        kept_scores.append((score(table, cand), c))

    s_true = next(s for s, c in kept_scores if c == true_entity)
    ordered = sorted((s for s, _ in kept_scores), reverse=True)
    optimistic = 1 + sum(1 for s in ordered if s > s_true)
    pessimistic = sum(1 for s in ordered if s >= s_true)
    return (optimistic + pessimistic) / 2.0


def brute_force_report(table, kg, split, sides=("head", "tail"), hits=(1, 3, 10)):
    ranks = []
    for t in split:
        for side in sides:
            ranks.append(brute_force_filtered_rank(table, kg, t, side))
    mrr = sum(1.0 / r for r in ranks) / len(ranks)
    hits_at = {k: sum(1 for r in ranks if r <= k) / len(ranks) for k in hits}
    return ranks, mrr, hits_at


def enumerate_confidence(kg, rule):
    """Exhaustive enumeration of body groundings over all entity tuples."""
    known = set(kg.train) | set(kg.valid) | set(kg.test)
    n = kg.num_entities
    chains = [(x,) for x in range(n)]
    for rel in rule.body:
        chains = [
            chain + (z,)
            for chain in chains
            for z in range(n)
            if Triple(chain[-1], rel, z) in known
        ]
    if not chains:
        return None
    supported = sum(
        1 for chain in chains if Triple(chain[0], rule.head, chain[-1]) in known
    )
    return supported / len(chains)


def _cmul(a_re, a_im, b_re, b_im):
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def body_product(table, body):
    """Element-wise complex product of the body relation vectors."""
    hb_re = table.rel_re[body[0]].copy()
    hb_im = table.rel_im[body[0]].copy()
    for rel in body[1:]:
        hb_re, hb_im = _cmul(hb_re, hb_im, table.rel_re[rel], table.rel_im[rel])
    return hb_re, hb_im


def rule_deltas(table, rule):
    """The rule's per-dimension gaps (delta_re, delta_im) from one body product."""
    hb_re, hb_im = body_product(table, rule.body)
    R = table.bound
    rk = R**rule.length
    return hb_re / rk - table.rel_re[rule.head] / R, hb_im / rk - table.rel_im[rule.head] / R


def rule_penalty(table, rules):
    """The Horn-rule penalty of ``hornplex.training.rule_penalty``, one rule
    at a time: prefix and suffix products of each body, and a dict that sums
    every relation row's gradient terms in rule order (head, then body)."""
    dim = table.dim
    R = table.bound
    loss = 0.0
    acc: dict = {}

    def add(rel, d_re, d_im):
        slot = acc.get(rel)
        if slot is None:
            acc[rel] = [d_re.copy(), d_im.copy()]
        else:
            slot[0] += d_re
            slot[1] += d_im

    for rule in rules:
        k = rule.length
        rk = R**k
        lam = rule.confidence
        body = rule.body

        # prefix[i] = product of body[:i]; suffix[i] = product of body[i:]
        pre_re = np.empty((k + 1, dim))
        pre_im = np.empty((k + 1, dim))
        suf_re = np.empty((k + 1, dim))
        suf_im = np.empty((k + 1, dim))
        pre_re[0], pre_im[0] = 1.0, 0.0
        suf_re[k], suf_im[k] = 1.0, 0.0
        for i in range(k):
            pre_re[i + 1], pre_im[i + 1] = _cmul(
                pre_re[i], pre_im[i], table.rel_re[body[i]], table.rel_im[body[i]]
            )
        for i in reversed(range(k)):
            suf_re[i], suf_im[i] = _cmul(
                table.rel_re[body[i]], table.rel_im[body[i]], suf_re[i + 1], suf_im[i + 1]
            )
        hb_re, hb_im = pre_re[k], pre_im[k]

        u = hb_re / rk - table.rel_re[rule.head] / R
        v = hb_im / rk - table.rel_im[rule.head] / R
        active = (u > 0).astype(np.float64)
        loss += lam * (float(np.sum(u * active)) + float(np.sum(v * v)))

        add(rule.head, lam * (-active / R), lam * (-2.0 * v / R))
        for j in range(k):
            c_re, c_im = _cmul(pre_re[j], pre_im[j], suf_re[j + 1], suf_im[j + 1])
            add(
                body[j],
                lam * (active * c_re + 2.0 * v * c_im) / rk,
                lam * (-active * c_im + 2.0 * v * c_re) / rk,
            )

    if not acc:
        return 0.0, RowGrads.empty(dim)
    rows = np.array(sorted(acc), dtype=np.int64)
    re = np.stack([acc[r][0] for r in rows])
    im = np.stack([acc[r][1] for r in rows])
    return loss, RowGrads(rows, re, im)
