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

from .kernel import body_product, body_vectors, check_relations, length_groups, rule_gaps
from .kg import Triple, read_lines
from .model import head_factors, replacing, score_triples, tail_factors

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
# At most this many (query, entity) scores are held at once: a block ranks
# BLOCK_ELEMENTS // n queries (at least one).
BLOCK_ELEMENTS = 2**20
# Entity components gathered at once when comparing rows of the tie band
# (256 KiB): small enough to stay in cache, which halved the time of a
# constant n=20k table against gathering every row at once.
COMPARE_ELEMENTS = 2**15


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

    triples = np.repeat(triples, len(sides), axis=0)
    tail_side = np.tile([s == "tail" for s in sides], len(triples) // len(sides))
    ranks = rank_queries(table, kg, triples, tail_side)
    hits_at = {k: float(np.mean(ranks <= k)) for k in hits}
    return RankingReport(triples, tail_side, ranks, float(np.mean(1.0 / ranks)), hits_at)


def rank_queries(table, kg, triples, tail_side):
    """Filtered ranks of known ``triples`` (any (Q, 3) int array-like), each
    corrupting its tail where ``tail_side`` is true and its head otherwise.

    Raises ValueError for a triple outside the filter index and for a table
    with a NaN or infinite component.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    tail_side = np.asarray(tail_side, dtype=bool).reshape(-1)
    unknown = np.flatnonzero(~kg.contains(*triples.T))
    if unknown.size:
        triple = Triple(*map(int, triples[unknown[0]]))
        raise ValueError(f"{triple} is not a known triple; filtered rank undefined")

    # The Frobenius norm of the entity matrix bounds every row's norm for the
    # error bound; one pass over the entities, and NaN or inf if one is.
    flat = table.ent.reshape(-1)
    frobenius = math.sqrt(float(np.dot(flat, flat)))
    if not math.isfinite(frobenius) and not np.isfinite(flat).all():
        raise ValueError("the entity table holds a NaN or infinite component")
    if not (np.isfinite(table.rel_re).all() and np.isfinite(table.rel_im).all()):
        raise ValueError("the relation table holds a NaN or infinite component")

    ranks = np.empty(len(triples))
    per_block = max(1, BLOCK_ELEMENTS // table.num_entities)
    for lo in range(0, len(triples), per_block):
        block = slice(lo, lo + per_block)
        ranks[block] = _rank_block(table, kg, triples[block], tail_side[block], frobenius)
    return ranks


def _rank_block(table, kg, triples, tail_side, frobenius):
    """Ranks of one block of queries.

    Row q of ``V @ ent.T`` holds query q's score g_c of every entity c, and
    the true score o is computed as ``model.score`` does. Let o_c be c's
    score computed that way, u = 2**-53 and gamma_k = k*u / (1 - k*u). Both
    g_c and o_c sum the terms of Re(sum_l h_l r_l conj(t_l)), with 2d + 2
    and d + 3 roundings per term, so without underflow |g_c - o_c| <=
    gamma_(3d+5) * P, where P = sum_l (|c_re| + |c_im|) w_l <= sqrt(2) *
    ||ent_c|| * ||w|| over the candidate's row, and w_l = (|r_re| + |r_im|)
    * (|x_re| + |x_im|) over the query's relation r and its kept entity x.
    As w_l <= 2 |r_l| |x_l|, and V[q] holds the parts of the products r_l
    x_l or r_l conj(x_l), ||w|| <= 2 ||V[q]|| up to rounding. ``eps`` is
    2**-48 * (d + 2) * ||ent||_F * ||V[q]||, at least 3.7 times that bound,
    plus 2**-1070 * (d + 2) * (1 + ||ent||_F), which covers the products
    that underflow. A candidate with g_c above o + eps is certainly better,
    one below o - eps certainly worse, and those in between, the tie band,
    are scored again as ``model.score`` does.
    """
    d = table.dim
    h, r, t = triples.T
    factors = np.where(
        tail_side[:, None], tail_factors(table, h, r), head_factors(table, r, t)
    )
    scores = factors @ table.ent.T
    true_scores = score_triples(table, h, r, t)

    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", factors, factors))
        eps = (d + 2) * (2.0**-48 * frobenius * norms + 2.0**-1070 * (1.0 + frobenius))
        eps[~np.isfinite(eps)] = np.inf  # overflow of finite components: score all again
        above = scores > np.nextafter(true_scores + eps, np.inf)[:, None]
        below = scores < np.nextafter(true_scores - eps, -np.inf)[:, None]

    q, c = _known_candidates(kg, triples, tail_side)  # includes the true entity
    num = len(triples)
    greater = np.count_nonzero(above, axis=1) - np.bincount(q, above[q, c], minlength=num)
    band = ~(above | below)
    band[q, c] = False
    equal = np.zeros(num)
    if band.any():
        extra_greater, equal = _score_band(table, triples, tail_side, true_scores, band)
        greater = greater + extra_greater
    return 1.0 + greater + equal / 2.0


def _known_candidates(kg, triples, tail_side):
    """(query, entity) pairs of every fact that fixes the query's kept entity
    and relation: the candidates the filtered protocol removes."""
    h, r, t = triples.T
    tails_q, heads_q = np.flatnonzero(tail_side), np.flatnonzero(~tail_side)
    i, tails = kg.tails_of(h[tails_q], r[tails_q])
    j, heads = kg.heads_of(r[heads_q], t[heads_q])
    return np.concatenate((tails_q[i], heads_q[j])), np.concatenate((tails, heads))


def _score_band(table, triples, tail_side, true_scores, band):
    """Counts of band candidates scored above and equal to the true score,
    per query. Candidates with equal entity rows get equal scores, so each
    run of equal rows is scored once per query."""
    cols = np.flatnonzero(band.any(axis=0))
    # Sorting by a product with a fixed vector brings equal rows together
    # (where the product gives equal rows unequal bits, a group splits into
    # runs that are each scored: slower, still exact).
    key = table.ent @ np.random.default_rng(0).random(2 * table.dim)
    cols = cols[np.argsort(key[cols], kind="stable")]
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


@dataclass
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
    """
    rules = list(rules)
    ids, groups = length_groups(rules)
    check_relations(ids, groups, table.num_relations)
    vectors = body_vectors(table, ids)
    out = [None] * len(rules)
    start = 0
    for members, group_ids in groups:
        # The group's relation vectors: its heads, then each body position.
        b = vectors[:, start : start + group_ids.size].reshape((2,) + group_ids.shape + (-1,))
        start += group_ids.size
        rk = table.bound ** (group_ids.shape[0] - 1)
        deltas = rule_gaps(table, b[:, 0], body_product(b[:, 1:]), rk)
        for i, delta_re, delta_im in zip(members.tolist(), *deltas):
            out[i] = RuleDiagnostics(i, rules[i], delta_re, delta_im)
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
        if extra:
            for key in sorted(extra):
                handle.write(f"# {key} = {extra[key]}\n")
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
        if extra:
            for key in sorted(extra):
                handle.write(f"# {key} = {extra[key]}\n")
        handle.write("rule_id,dim,delta_re,delta_im\n")
        for diag in diagnostics:
            for l, (dre, dim_) in enumerate(zip(diag.delta_re, diag.delta_im)):
                handle.write(f"{diag.rule_id},{l},{dre:.17g},{dim_:.17g}\n")


def write_diagnostics_summary(path, diagnostics, extra=None):
    """Per-rule summary CSV: max delta_re, mean delta_im^2, hinge sum, written
    to a temporary file that then replaces ``path``."""
    with replacing(path, encoding="utf-8") as handle:
        if extra:
            for key in sorted(extra):
                handle.write(f"# {key} = {extra[key]}\n")
        handle.write("rule_id,max_delta_re,mean_sq_delta_im,hinge_sum\n")
        for diag in diagnostics:
            handle.write(
                f"{diag.rule_id},{diag.max_delta_re:.17g},"
                f"{diag.mean_sq_delta_im:.17g},{diag.hinge_sum:.17g}\n"
            )
