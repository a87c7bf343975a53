"""Filtered ranking evaluation (MRR, Hits@k) and rule-constraint diagnostics.

Ranks use the filtered protocol: candidates that form a known triple in any
split (other than the evaluated triple itself) are removed before ranking.
Ties are scored as the mean of the optimistic and pessimistic rank, i.e.
rank = 1 + #{strictly better} + #{equal}/2, which is robust against
degenerate constant-score models.

Queries are ranked a block at a time (``rank_queries``): one matrix product
scores every entity for every query of the block, and a forward-error bound
decides which scores the product cannot order against the true score. Only
those are scored again, with the arithmetic of ``model.score``, so the ranks
are those of scoring every candidate with ``model.score``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernel import body_product, check_relations, length_groups, rule_gaps
from .kg import Triple, read_lines, run_positions
from .model import query_factors, replacing, score_triples, write_provenance

# Not called here: the benchmark's tracer (bench/pipeline.py) looks these
# two up in this module, so they stay importable from it.
from .model import score_all_heads, score_all_tails  # noqa: F401

__all__ = [
    "RankEntry",
    "RankingReport",
    "RuleDiagnostics",
    "filtered_rank",
    "rank_queries",
    "evaluate",
    "relation_rule_diagnostics",
    "mean_hinge_violation",
    "write_metrics",
    "read_metrics",
    "write_diagnostics_csv",
    "write_diagnostics_summary",
]

DEFAULT_HITS = (1, 3, 10)
SIDES = {"both": ("head", "tail"), "head": ("head",), "tail": ("tail",)}
# A block of queries holds at most BLOCK_ELEMENTS (query, entity) scores and
# FACTOR_ELEMENTS factor components, so it ranks min(BLOCK_ELEMENTS // n,
# FACTOR_ELEMENTS // 2d) queries (at least one). The second cap keeps the
# block's (Q, 2d) temporaries in cache: 512 queries at d=64.
BLOCK_ELEMENTS = 2**20
FACTOR_ELEMENTS = 2**16
# Entity components gathered at once when comparing rows of the tie band
# (256 KiB): small enough to stay in cache, which halved the time of a
# constant n=20k table against gathering every row at once.
COMPARE_ELEMENTS = 2**15
# Rule diagnostics index the relation vectors of DIAGNOSTIC_ELEMENTS // d
# rules at a time (512 at d=64), so that a few hundred rules are one chunk
# and pay each length group's fixed cost once.
DIAGNOSTIC_ELEMENTS = 2**15
_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class RankEntry:
    triple: Triple
    side: str
    rank: float


@dataclass
class RankingReport:
    """Ranks of the queries ``triples[i]`` (an (Q, 3) int64 array), each
    corrupting its tail where ``tail_side[i]`` and its head otherwise."""

    triples: np.ndarray
    tail_side: np.ndarray
    ranks: np.ndarray
    mrr: float
    hits_at: dict = field(default_factory=dict)

    @property
    def count(self):
        return len(self.ranks)

    @cached_property
    def entries(self):
        """One RankEntry per query, in query order, built on first use."""
        queries = zip(self.triples.tolist(), self.tail_side.tolist(), self.ranks.tolist())
        return [RankEntry(Triple(*t), "tail" if s else "head", rank) for t, s, rank in queries]


def filtered_rank(table, kg, triple, side):
    """Filtered rank of ``triple`` when corrupting ``side`` ('head' or 'tail')."""
    if side not in ("head", "tail"):
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    return float(rank_queries(table, kg, [triple], [side == "tail"])[0])


def evaluate(table, kg, split, side="both", hits=DEFAULT_HITS):
    """Rank every triple of ``split`` (an (N, 3) int array-like) on the
    requested side(s) and aggregate.

    ``side`` is 'both', 'head', or 'tail'. MRR is the mean reciprocal rank
    over all (triple, side) pairs; hits_at[k] the fraction of ranks <= k.
    """
    triples = np.asarray(split, dtype=np.int64).reshape(-1, 3)
    if not len(triples):
        raise ValueError("cannot evaluate an empty split")
    sides = SIDES.get(side)
    if sides is None:
        raise ValueError(f"side must be 'both', 'head' or 'tail', got {side!r}")

    tail_side = np.empty((len(triples), len(sides)), dtype=bool)
    tail_side[:] = [s == "tail" for s in sides]
    tail_side = tail_side.reshape(-1)
    triples = np.repeat(triples, len(sides), axis=0)
    ranks = rank_queries(table, kg, triples, tail_side)
    # Integer counts over the size have the bits of np.mean over the bools,
    # and the sum of 1 / rank over the size those of np.mean of 1 / rank.
    at_most = np.searchsorted(np.sort(ranks), hits, side="right").tolist()
    hits_at = {k: count / ranks.size for k, count in zip(hits, at_most)}
    mrr = float((1.0 / ranks).sum() / ranks.size)
    return RankingReport(triples, tail_side, ranks, mrr, hits_at)


def rank_queries(table, kg, triples, tail_side):
    """Filtered ranks of known ``triples`` (any (Q, 3) int array-like), each
    corrupting its tail where ``tail_side`` (Q bools) is true and its head
    otherwise.

    Raises ValueError for a table whose entity or relation count is not
    the graph's, for a triple with an entity or relation id outside the
    graph, for a ``tail_side`` of another length, for a table with a NaN or
    infinite component and for a triple outside the filter index; no rank
    is returned then.
    """
    found = (table.num_entities, table.num_relations)
    expected = (kg.num_entities, kg.num_relations)
    if found != expected:
        raise ValueError(
            f"the table holds {found[0]} entities and {found[1]} relations, "
            f"but the graph has {expected[0]} entities and {expected[1]} relations"
        )
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    # An id outside the graph would take another fact's code in the filter
    # index. A negative id, as uint64, exceeds any count.
    n, m = expected
    outside = (triples.view(np.uint64) >= (n, m, n)).any(axis=1)
    if outside.any():
        triple = Triple(*map(int, triples[np.argmax(outside)]))
        raise ValueError(f"{triple} has an id outside the graph's {n} entities and {m} relations")
    tail_side = np.asarray(tail_side, dtype=bool).reshape(-1)
    if tail_side.size != len(triples):
        raise ValueError(f"{tail_side.size} tail_side values for {len(triples)} triples")

    # The Frobenius norm of the entity matrix bounds every row's norm for the
    # error bound; one pass over the entities, and NaN or inf if one is.
    flat = table.ent.reshape(-1)
    frobenius = math.sqrt(float(np.dot(flat, flat)))
    if not math.isfinite(frobenius) and not np.isfinite(flat).all():
        raise ValueError("the entity table holds a NaN or infinite component")
    if not np.isfinite(table.rel).all():
        raise ValueError("the relation table holds a NaN or infinite component")

    ranks = np.empty(len(triples))
    n, width = table.ent.shape
    per_block = max(1, min(BLOCK_ELEMENTS // n, FACTOR_ELEMENTS // width))
    for lo in range(0, len(triples), per_block):
        block = slice(lo, lo + per_block)
        ranks[block] = _rank_block(table, kg, triples[block], tail_side[block], frobenius)
    return ranks


def _rank_block(table, kg, triples, tail_side, frobenius):
    """Ranks of one block of queries.

    Row q of ``V @ ent.T`` holds query q's score g_c of every entity c, and
    the true score o is computed as ``model.score`` does. Let o_c be c's
    score computed that way, u = 2**-53 and gamma_k = k*u / (1 - k*u). Both
    g_c and o_c sum the terms of Re(sum_l h_l r_l conj(t_l)), each a product
    of three parts, and count their roundings per term as follows.
    - numpy's complex product rounds each part twice: fma(a, c, -(b*d)) and
      fma(a, d, b*c) (``tests/test_evaluation.py`` checks the bound this
      gives on the running SIMD target). So V[q], and the tail factors of
      o, put 2 roundings on each term.
    - g_c is a real dot product of 2d products of V[q] with ent[c]; o_c the
      real part of ``np.vecdot``, a sum of the 2d products of the parts of
      t and of the tail factors. Each product is rounded at most once and
      each of the 2d - 1 additions once, in whatever order or fusion BLAS
      takes: at most 2d roundings per term.
    So each of g_c and o_c is within gamma_(2d+2) * P of the exact score,
    and without underflow |g_c - o_c| <= gamma_(4d+4) * P, where P =
    sum_l (|c_re| + |c_im|) w_l <= sqrt(2) * ||ent_c|| * ||w|| over the
    candidate's row, and w_l = (|r_re| + |r_im|) * (|x_re| + |x_im|) over
    the query's relation r and its kept entity x. As w_l <= 2 |r_l| |x_l|,
    and V[q] holds the products r_l x_l or conj(r_l) x_l, ||w|| <= 2
    ||V[q]|| up to rounding. ``eps`` is 2**-48 * (d + 2) * ||ent||_F *
    ||V[q]||, at least 2.8 times that bound, plus 2**-1070 * (d + 2) * (1 +
    ||ent||_F), at least 4 times what roundings below 2**-1022 can lose:
    2**-1075 each, for 4d in V[q] and 4d in the tail factors, each then
    multiplied by an entity component of at most ||ent||_F, and 2d in each
    dot product. (eps is computed as ||V[q]|| * a + b, with the scalars a
    and b rounded first: a few ulps against the ratio of eps to the bound,
    32 (d + 2) / (2 sqrt(2) (4d + 4)), which falls with d towards 2.83.) A
    candidate with g_c above o + eps is certainly better, one below o - eps
    certainly worse, and those in between, the tie band, are scored again
    as ``model.score`` does. The band is built only when it holds a
    candidate that is not filtered: the true entity is always in it, but it
    is a known fact.
    """
    q, c = _known_candidates(kg, triples, tail_side)  # includes the true entity
    factors, true_scores = query_factors(table, triples, tail_side)
    scores = factors @ table.ent.T

    d = table.dim
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(factors, factors))
        eps = norms * ((d + 2) * 2.0**-48 * frobenius) + (d + 2) * 2.0**-1070 * (1.0 + frobenius)
        # o + eps and o - eps, each rounded away from o. Where finite
        # components overflow, eps or o is inf or NaN: no candidate is then
        # above or below, and all are scored again.
        hi, lo = np.nextafter(true_scores + eps * _SIGNS, _SIGNS * np.inf)
        above = scores > hi[:, None]
        below = scores < lo[:, None]

    # Per-row counts of a bool matrix: popcounts of its packed bytes, which
    # skips count_nonzero(axis=1)'s cast of every element to intp.
    greater = np.bitwise_count(np.packbits(above, axis=1)).sum(axis=1) - np.bincount(
        q, above[q, c], minlength=len(triples)
    )
    # Unfiltered candidates above or below (the two are disjoint): unless
    # they and the known ones are all of them, the band holds one to score.
    outside = greater.sum() + np.count_nonzero(below) - np.count_nonzero(below[q, c])
    if outside + q.size == scores.size:
        return 1.0 + greater
    band = ~(above | below)
    band[q, c] = False
    extra_greater, equal = _score_band(table, triples, tail_side, true_scores, band)
    return 1.0 + (greater + extra_greater) + equal / 2.0


def _known_candidates(kg, triples, tail_side):
    """(query, entity) pairs of every fact that fixes the query's kept entity
    and relation: the candidates the filtered protocol removes, the true
    entity among them. A ValueError names the first triple that is not a
    known fact.

    The tails known for (h, r) are the codes in [base, base + n) of
    ``kg.tail_codes``, base = (h*m + r)*n, and the heads known for (r, t)
    those of ``kg.head_codes``, base = (r*n + t)*n. One product gives every
    query's bounds and fact code in both keyings; each side's bounds are
    looked up in one ``searchsorted``, the query's own side is kept, and
    the runs are expanded once. The triple is known if its own code is in
    its run."""
    n, m = kg.num_entities, kg.num_relations
    # columns: tail base, base + n and code (h*m + r)*n + t; the same for heads
    keys = triples @ np.array(
        [[m * n, m * n, m * n, 0, 0, 1], [n, n, n, n * n, n * n, n * n], [0, 0, 1, n, n, n]]
    ) + (0, n, 0, 0, n, 0)
    start, stop = np.where(
        tail_side[:, None],
        np.searchsorted(kg.tail_codes, keys[:, :2]),
        np.searchsorted(kg.head_codes, keys[:, 3:5]),
    ).T
    q, pos = run_positions(start, stop)
    # mode="clip": a position is valid only in its own side's codes
    codes = np.where(
        tail_side[q], kg.tail_codes.take(pos, mode="clip"), kg.head_codes.take(pos, mode="clip")
    )
    own = np.where(tail_side, keys[:, 2], keys[:, 5])
    found = codes == own[q]  # at most once per query, as codes are distinct
    if np.count_nonzero(found) != len(triples):
        known = np.zeros(len(triples), dtype=bool)
        known[q[found]] = True
        triple = Triple(*map(int, triples[np.argmin(known)]))
        raise ValueError(f"{triple} is not a known triple; filtered rank undefined")
    return q, codes % n


def _score_band(table, triples, tail_side, true_scores, band):
    """Counts of band candidates scored above and equal to the true score,
    per query. Candidates with equal entity rows get equal scores, so each
    run of equal rows is scored once per query."""
    cols = np.flatnonzero(band.any(axis=0))
    # Sorting by a product with a fixed vector brings equal rows together
    # (where the product gives equal rows unequal bits, a group splits into
    # runs that are each scored: slower, still exact). Only the band's rows
    # are multiplied, gathered COMPARE_ELEMENTS components at a time, unless
    # the band holds over a third of the entities: a gathered row costs
    # about three times what the whole-table product spends on it.
    vec = np.random.default_rng(0).random(2 * table.dim)
    if 3 * cols.size > table.ent.shape[0]:
        key = (table.ent @ vec)[cols]
    else:
        step = max(1, COMPARE_ELEMENTS // table.ent.shape[1])
        key = np.concatenate(
            [table.ent[cols[lo : lo + step]] @ vec for lo in range(0, cols.size, step)]
        )
    cols = cols[np.argsort(key, kind="stable")]
    starts = _run_starts(table.ent, cols)
    members = np.add.reduceat(band[:, cols], starts, axis=1, dtype=np.int32)
    q, g = np.nonzero(members)
    rep = cols[starts[g]]
    cand = triples[q].copy()
    tail = tail_side[q]
    cand[tail, 2], cand[~tail, 0] = rep[tail], rep[~tail]
    scores = score_triples(table, *cand.T)
    count = members[q, g]
    num = len(triples)
    return (
        np.bincount(q, count * (scores > true_scores[q]), minlength=num),
        np.bincount(q, count * (scores == true_scores[q]), minlength=num),
    )


def _run_starts(ent, cols):
    """Positions i where row ``ent[cols[i]]`` differs from the row before it
    (and 0). Rows are gathered and compared COMPARE_ELEMENTS at a time, so
    they are still in cache when compared."""
    first = np.ones(cols.size, dtype=bool)
    step = max(1, COMPARE_ELEMENTS // ent.shape[1])
    for lo in range(1, cols.size, step):
        rows = ent[cols[lo - 1 : lo + step]]
        first[lo : lo + step] = (rows[1:] != rows[:-1]).any(axis=1)
    return np.flatnonzero(first)


@dataclass(slots=True)
class RuleDiagnostics:
    rule_id: int
    rule: object
    delta_re: np.ndarray  # Re(hb)/R^k - Re(r)/R per dimension
    delta_im: np.ndarray  # Im(hb)/R^k - Im(r)/R per dimension

    @property
    def max_delta_re(self):
        return float(np.max(self.delta_re))

    @property
    def mean_sq_delta_im(self):
        return float(np.mean(self.delta_im**2))

    @property
    def hinge_sum(self):
        return float(np.sum(np.maximum(self.delta_re, 0.0)))


def relation_rule_diagnostics(table, rules):
    """Per-rule, per-dimension gaps between the body product and the head.

    A rule whose constraints hold exactly has all delta_re <= 0 and all
    delta_im == 0. A relation id outside the table is a ValueError naming
    the rule.

    The gaps go into one (r, d) complex array, allocated before any gather,
    and each record's delta_re and delta_im are views of the parts of its
    row, so the records hold two d-vectors per rule. The rules run in chunks of
    max(1, DIAGNOSTIC_ELEMENTS // d) whole rules: a chunk's relation ids are
    checked and indexed once, and each of its length groups takes its
    vectors on its own, so one group's copy is alive at a time.
    """
    rules = list(rules)
    deltas = np.empty((len(rules), table.dim), dtype=np.complex128)
    out = [None] * len(rules)
    step = max(1, DIAGNOSTIC_ELEMENTS // table.dim)
    for start in range(0, len(rules), step):
        ids, groups = length_groups(rules, start, start + step)
        check_relations(ids, groups, table.num_relations)
        row = start
        for members, group_ids in groups:
            # The group's relation vectors: its heads, then each body position.
            b = table.crel.take(group_ids, axis=0, mode="clip")
            rows = deltas[row : row + members.size]
            row += members.size
            rk = table.bound ** (group_ids.shape[0] - 1)
            rule_gaps(table, b[0], body_product(b[1:], out=rows), rk, out=rows)
            for i, delta in zip(members.tolist(), rows):
                out[i] = RuleDiagnostics(i, rules[i], delta.real, delta.imag)
            del b  # so that the next group's take does not overlap it
    return out


def mean_hinge_violation(diagnostics):
    """Mean over rules of the summed positive real-part gaps."""
    if not diagnostics:
        return 0.0
    return float(np.mean([d.hinge_sum for d in diagnostics]))


def write_metrics(path, report, extra=None):
    """Structured text metrics file; ``extra`` rows (e.g. the resolved config)
    are embedded as comment lines. Written to a temporary file that then
    replaces ``path``."""
    with replacing(path, encoding="utf-8") as handle:
        write_provenance(handle, extra)
        handle.write(f"mrr = {report.mrr:.17g}\n")
        for k in sorted(report.hits_at):
            handle.write(f"hits@{k} = {report.hits_at[k]:.17g}\n")
        handle.write(f"count = {report.count}\n")


def read_metrics(path):
    """The ``key = number`` lines of a ``write_metrics`` file, as a dict. A
    malformed line is a ValueError naming the file and the line."""
    values = {}
    for lineno, line in enumerate(read_lines(path, ValueError), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")  # no "=": value "" fails below
        try:
            values[key.strip()] = float(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'key = number', got {line!r}") from None
    return values


def write_diagnostics_csv(path, diagnostics, extra=None):
    """Long-format CSV with columns rule_id, dim, delta_re, delta_im, written
    to a temporary file that then replaces ``path``."""
    with replacing(path, encoding="utf-8") as handle:
        write_provenance(handle, extra)
        handle.write("rule_id,dim,delta_re,delta_im\n")
        for diag in diagnostics:
            for l, (dre, dim_) in enumerate(zip(diag.delta_re, diag.delta_im)):
                handle.write(f"{diag.rule_id},{l},{dre:.17g},{dim_:.17g}\n")


def write_diagnostics_summary(path, diagnostics, extra=None):
    """Per-rule summary CSV: max delta_re, mean delta_im^2, hinge sum, written
    to a temporary file that then replaces ``path``."""
    with replacing(path, encoding="utf-8") as handle:
        write_provenance(handle, extra)
        handle.write("rule_id,max_delta_re,mean_sq_delta_im,hinge_sum\n")
        for diag in diagnostics:
            handle.write(
                f"{diag.rule_id},{diag.max_delta_re:.17g},"
                f"{diag.mean_sq_delta_im:.17g},{diag.hinge_sum:.17g}\n"
            )
