"""Independent slow-path oracles used to cross-check the package's fast paths.

These deliberately avoid the indices and vectorized formulas of the library:
the triple loader takes each line from ``open`` and each symbol on its own,
membership is a linear scan over the rows of the raw splits, ranking
materializes and sorts whole candidate lists, and rule confidence enumerates
entity tuples exhaustively. The rule penalty and the rule diagnostics loop over rules one
at a time, multiplying each body out on its own. The optimizer step sums
gradients per loss term, merges the terms per table, and projects the whole
table. The table is drawn one whole half at a time, and the graph is built
from the concatenated splits.
"""

import numpy as np

from hornplex import training
from hornplex.kg import KnowledgeGraph, Triple, TripleFileError
from hornplex.model import EmbeddingTable, project, score
from hornplex.training import RowGrads


def load_triples(path, dicts=None, frozen=False):
    """``hornplex.kg.load_triples`` line by line, for UTF-8 files: each line
    from ``open``, each symbol resolved by its own call."""
    entity_ids, relation_ids = ({}, {}) if dicts is None else dicts

    def resolve(table, name, lineno, what):
        if frozen and name not in table:
            raise TripleFileError(
                f"{path}:{lineno}: unknown {what} {name!r} with frozen dictionaries"
            )
        return table.setdefault(name, len(table))

    ids = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripleFileError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            h, r, t = fields
            ids.append(resolve(entity_ids, h, lineno, "entity"))
            ids.append(resolve(relation_ids, r, lineno, "relation"))
            ids.append(resolve(entity_ids, t, lineno, "entity"))
    return np.array(ids, dtype=np.int64).reshape(-1, 3), (entity_ids, relation_ids)


def init_table(num_entities, num_relations, dim, bound=1.0, seed=0):
    """``hornplex.model.init_table`` with one draw per whole half, in the
    order ent_re, ent_im, rel_re, rel_im."""
    rng = np.random.default_rng(seed)
    rel_scale = bound / np.sqrt(2.0)
    halves = [
        rng.random((rows, dim)) * scale
        for rows, scale in (
            (num_entities, 1.0), (num_entities, 1.0),
            (num_relations, rel_scale), (num_relations, rel_scale),
        )
    ]
    return EmbeddingTable(*halves, float(bound))


def build_graph(train, valid, test, dicts):
    """``hornplex.kg.build_graph`` on the concatenated splits: one bounds
    mask over every row, codes from whole-column arithmetic, and duplicates
    dropped by ``np.diff``."""
    entity_ids, relation_ids = dicts
    n, m = len(entity_ids), len(relation_ids)
    splits = [np.asarray(split, dtype=np.int64).reshape(-1, 3) for split in (train, valid, test)]
    facts = np.concatenate(splits)
    bad = (facts < 0) | (facts >= (n, m, n))
    if bad.any():
        first = int(np.argmax(bad.any(axis=1)))
        what = "entity" if bad[first, ::2].any() else "relation"
        raise IndexError(f"{what} index out of bounds in {Triple(*facts[first].tolist())}")
    h, r, t = facts.T
    codes = np.sort((h * m + r) * n + t)
    tail_codes = codes[np.diff(codes, prepend=-1) != 0]
    h, rest = np.divmod(tail_codes, m * n)
    r, t = np.divmod(rest, n)
    return KnowledgeGraph(
        entity_ids, relation_ids, *splits,
        tail_codes=tail_codes, head_codes=np.sort((r * n + t) * n + h),
    )


def split_rows(kg):
    """Every row of the three splits, in order, as Python int tuples."""
    return [tuple(row) for split in (kg.train, kg.valid, kg.test) for row in split.tolist()]


def naive_contains(kg, triple):
    """Linear scan over the concatenated split rows."""
    triple = tuple(map(int, triple))
    for row in split_rows(kg):
        if row == triple:
            return True
    return False


def brute_force_filtered_rank(table, kg, triple, side):
    """Materialize, filter, and sort the full candidate list; ties scored as
    the mean of the optimistic and pessimistic placement."""
    known = set(split_rows(kg))
    triple = Triple(*map(int, triple))
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
    known = set(split_rows(kg))
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


def _relations(table):
    """The relation vectors as one complex128 array, built from the halves."""
    return _complex(table.rel_re, table.rel_im)


def body_product(table, body):
    """Element-wise complex product of the body relation vectors, one
    complex128 multiply per body position, left to right."""
    rel = _relations(table)
    hb = rel[body[0]].copy()
    for r in body[1:]:
        hb = hb * rel[r]
    return hb


def rule_deltas(table, rule):
    """The rule's per-dimension gaps (delta_re, delta_im) from one body product."""
    hb = body_product(table, rule.body)
    R = table.bound
    rk = R**rule.length
    return hb.real / rk - table.rel_re[rule.head] / R, hb.imag / rk - table.rel_im[rule.head] / R


def rule_penalty(table, rules):
    """The Horn-rule penalty of ``hornplex.training.rule_penalty``, one rule
    at a time: prefix and suffix products of each body and complex128
    products of one rule's vectors. The loss adds each rule's in rule order.
    The gradient terms go to one dict per body position (0: the head), over
    the rules taken shortest body first and in rule order within a body
    length; each dict sums a row's terms in turn from +0.0, each part on its
    own, and a row's gradient adds its positions' sums in position order.
    The rows are those of the table's row space: relation r is row n + r."""
    dim = table.dim
    R = table.bound
    rel = _relations(table)
    losses = [0.0] * len(rules)
    positions = [{} for _ in range(1 + max((rule.length for rule in rules), default=0))]

    def add(p, r, d_re, d_im):
        slot = positions[p].setdefault(r, [np.zeros(dim), np.zeros(dim)])
        slot[0] += d_re
        slot[1] += d_im

    for i, rule in sorted(enumerate(rules), key=lambda item: item[1].length):
        k = rule.length
        rk = R**k
        lam = rule.confidence
        body = rule.body

        # prefix[i] = product of body[:i]; suffix[i] = product of body[i:]
        pre = np.empty((k + 1, dim), dtype=complex)
        suf = np.empty((k + 1, dim), dtype=complex)
        pre[0] = suf[k] = 1.0
        for j in range(k):
            pre[j + 1] = pre[j] * rel[body[j]]
        for j in reversed(range(k)):
            suf[j] = rel[body[j]] * suf[j + 1]
        hb = pre[k]

        u = hb.real / rk - table.rel_re[rule.head] / R
        v = hb.imag / rk - table.rel_im[rule.head] / R
        active = (u > 0).astype(np.float64)
        losses[i] = lam * (float(np.sum(u * active)) + float(np.sum(v * v)))

        # d/d(head) and d/d(body_j) of the hinge and the square, lam folded
        # into aw = lam * (active + 2vi) first: aw / -R and aw * conj(c) / R^k.
        aw = _complex(lam * active, lam * (2.0 * v))
        add(0, rule.head, aw.real / -R, aw.imag / -R)
        for j in range(k):
            term = aw * np.conj(pre[j] * suf[j + 1])
            add(j + 1, body[j], term.real / rk, term.imag / rk)

    loss = 0.0
    for term in losses:
        loss += term
    rows = sorted(set().union(*positions))
    if not rows:
        return loss, RowGrads(np.empty(0, dtype=np.int64), np.empty((0, dim), dtype=complex))
    re = np.zeros((len(rows), dim))
    im = np.zeros((len(rows), dim))
    for at, r in enumerate(rows):
        for sums in positions:
            if r in sums:
                re[at] += sums[r][0]
                im[at] += sums[r][1]
    return loss, RowGrads(np.array(rows, dtype=np.int64) + table.num_entities, _complex(re, im))


def _complex(re, im):
    """The complex128 array of parts ``re`` and ``im``, each copied as it is."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _compact(indices, grads_re, grads_im):
    """Per-row sums of one loss term's gradient terms, over the sorted rows:
    each row adds its terms in order, one at a time, to +0.0."""
    rows, inverse = np.unique(indices, return_inverse=True)
    sums = np.zeros((2, rows.size, grads_re.shape[1]))
    for slot, re, im in zip(inverse, grads_re, grads_im):
        sums[0, slot] += re
        sums[1, slot] += im
    return RowGrads(rows, _complex(*sums))


def _merge(dim, parts):
    """Sum scaled per-row sums: ``parts`` is a list of (RowGrads, scale)."""
    parts = [(g, s) for g, s in parts if g is not None and g.rows.size and s != 0.0]
    rows, inverse = np.unique(np.concatenate([g.rows for g, _ in parts]), return_inverse=True)
    re = np.zeros((rows.size, dim))
    im = np.zeros((rows.size, dim))
    offset = 0
    for g, s in parts:
        sl = inverse[offset : offset + g.rows.size]
        re[sl] += g.re * s
        im[sl] += g.im * s
        offset += g.rows.size
    return RowGrads(rows, _complex(re, im))


def accumulator_halves(state, num_entities):
    """The ent_re, ent_im, rel_re and rel_im halves of ``state.acc``, as
    views of its rows split by the table's ``num_entities``, each row's re
    and im parts interleaved."""
    acc = state.acc
    ent, rel = acc[:num_entities], acc[num_entities:]
    return ent[:, 0::2], ent[:, 1::2], rel[:, 0::2], rel[:, 1::2]


def sparse_step(table, state, batch, rules, mu, eta, lr):
    """One step of ``hornplex.training.train`` on ``batch``, taken term by
    term: the logistic gradients summed per row, each row adding its terms
    in order to +0.0 (``_compact``), merged per table with mu times the rule
    gradients and eta times N3 over the rows the batch and the rules touch,
    AdaGrad on the merged rows, then a projection of the whole table.
    ``rules`` is a rule list or None. Returns a copy of the table as it was
    before the projection."""
    _, l_all = training.logistic_loss(table, batch)
    n, heads_and_tails = table.num_entities, 2 * len(batch)
    l_ent = RowGrads(l_all.rows[:heads_and_tails], l_all.values[:heads_and_tails])
    l_rel = RowGrads(l_all.rows[heads_and_tails:] - n, l_all.values[heads_and_tails:])
    ent = _compact(l_ent.rows, l_ent.re, l_ent.im)
    rel = _compact(l_rel.rows, l_rel.re, l_rel.im)
    r_grads = None
    if mu > 0 and rules:
        r_all = training.rule_penalty(table, rules)[1]
        r_grads = RowGrads(r_all.rows - n, r_all.values)
    n_ent = n_rel = None
    if eta > 0:
        rel_rows = batch.triples[:, 1]
        if r_grads is not None:
            rel_rows = np.concatenate([rel_rows, r_grads.rows])
        ent_rows, rel_rows = np.unique(batch.triples[:, (0, 2)]), np.unique(rel_rows)
        _, n_all = training.n3_regularization(table, np.concatenate([ent_rows, n + rel_rows]))
        k = ent_rows.size
        n_ent = RowGrads(n_all.rows[:k], n_all.values[:k])
        n_rel = RowGrads(n_all.rows[k:] - n, n_all.values[k:])
    ent = _merge(table.dim, [(ent, 1.0), (n_ent, eta)])
    rel = _merge(table.dim, [(rel, 1.0), (r_grads, mu), (n_rel, eta)])

    ent_re_acc, ent_im_acc, rel_re_acc, rel_im_acc = accumulator_halves(state, n)
    updates = (
        (ent, table.ent_re, table.ent_im, ent_re_acc, ent_im_acc),
        (rel, table.rel_re, table.rel_im, rel_re_acc, rel_im_acc),
    )
    for g, p_re, p_im, acc_re, acc_im in updates:
        rows = g.rows
        acc_re[rows] += g.re * g.re
        p_re[rows] -= lr * g.re / (np.sqrt(acc_re[rows]) + state.epsilon)
        acc_im[rows] += g.im * g.im
        p_im[rows] -= lr * g.im / (np.sqrt(acc_im[rows]) + state.epsilon)
    before = table.copy()
    project(table)
    return before
