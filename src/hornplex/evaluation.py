"""Filtered ranking evaluation (MRR, Hits@k) and rule-constraint diagnostics.

Ranks use the filtered protocol: candidates that form a known triple in any
split (other than the evaluated triple itself) are removed before ranking.
Ties are scored as the mean of the optimistic and pessimistic rank, i.e.
rank = 1 + #{strictly better} + #{equal}/2, which is robust against
degenerate constant-score models.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernel import RuleArrays, body_product, body_vectors, rule_gaps
from .model import replacing, score_all_heads, score_all_tails

__all__ = [
    "RankEntry",
    "RankingReport",
    "RuleDiagnostics",
    "filtered_rank",
    "evaluate",
    "relation_rule_diagnostics",
    "mean_hinge_violation",
    "write_metrics",
    "read_metrics",
    "write_diagnostics_csv",
    "write_diagnostics_summary",
]

DEFAULT_HITS = (1, 3, 10)


@dataclass(frozen=True)
class RankEntry:
    triple: tuple
    side: str
    rank: float


@dataclass
class RankingReport:
    entries: list
    mrr: float
    hits_at: dict = field(default_factory=dict)

    @property
    def count(self):
        return len(self.entries)


def filtered_rank(table, kg, triple, side):
    """Filtered rank of ``triple`` when corrupting ``side`` ('head' or 'tail')."""
    if triple not in kg.filter_index:
        raise ValueError(f"{triple} is not a known triple; filtered rank undefined")
    if side == "tail":
        scores = score_all_tails(table, triple.head, triple.relation)
        known = kg.tails_of.get((triple.head, triple.relation), ())
        true_entity = triple.tail
    elif side == "head":
        scores = score_all_heads(table, triple.relation, triple.tail)
        known = kg.heads_of.get((triple.relation, triple.tail), ())
        true_entity = triple.head
    else:
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")

    mask = np.ones(scores.shape[0], dtype=bool)
    for entity in known:
        mask[entity] = False
    mask[true_entity] = False

    s_true = scores[true_entity]
    others = scores[mask]
    greater = int(np.count_nonzero(others > s_true))
    equal = int(np.count_nonzero(others == s_true))
    return 1.0 + greater + equal / 2.0


def evaluate(table, kg, split, side="both", hits=DEFAULT_HITS):
    """Rank every triple of ``split`` on the requested side(s) and aggregate.

    ``side`` is 'both', 'head', or 'tail'. MRR is the mean reciprocal rank
    over all (triple, side) pairs; hits_at[k] the fraction of ranks <= k.
    """
    triples = list(split)
    if not triples:
        raise ValueError("cannot evaluate an empty split")
    if side == "both":
        sides = ("head", "tail")
    elif side in ("head", "tail"):
        sides = (side,)
    else:
        raise ValueError(f"side must be 'both', 'head' or 'tail', got {side!r}")

    entries = []
    for triple in triples:
        for s in sides:
            entries.append(RankEntry(triple, s, filtered_rank(table, kg, triple, s)))

    ranks = np.array([e.rank for e in entries])
    return RankingReport(
        entries=entries,
        mrr=float(np.mean(1.0 / ranks)),
        hits_at={k: float(np.mean(ranks <= k)) for k in hits},
    )


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
    delta_im == 0.
    """
    rules = list(rules)
    arrays = RuleArrays.from_rules(rules)
    out = []
    for lo, hi in arrays.blocks(table.dim):
        hb_re, hb_im = body_product(*body_vectors(table, arrays, lo, hi))
        delta_re, delta_im = rule_gaps(table, arrays, lo, hi, hb_re, hb_im)
        out.extend(map(RuleDiagnostics, range(lo, hi), rules[lo:hi], delta_re, delta_im))
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
    values = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            values[key.strip()] = float(value)
    return values


def write_diagnostics_csv(path, diagnostics, extra=None):
    """Long-format CSV with columns rule_id, dim, delta_re, delta_im."""
    with open(path, "w", encoding="utf-8") as handle:
        if extra:
            for key in sorted(extra):
                handle.write(f"# {key} = {extra[key]}\n")
        handle.write("rule_id,dim,delta_re,delta_im\n")
        for diag in diagnostics:
            for l, (dre, dim_) in enumerate(zip(diag.delta_re, diag.delta_im)):
                handle.write(f"{diag.rule_id},{l},{dre:.17g},{dim_:.17g}\n")


def write_diagnostics_summary(path, diagnostics, extra=None):
    """Per-rule summary CSV: max delta_re, mean delta_im^2, hinge sum."""
    with open(path, "w", encoding="utf-8") as handle:
        if extra:
            for key in sorted(extra):
                handle.write(f"# {key} = {extra[key]}\n")
        handle.write("rule_id,max_delta_re,mean_sq_delta_im,hinge_sum\n")
        for diag in diagnostics:
            handle.write(
                f"{diag.rule_id},{diag.max_delta_re:.17g},"
                f"{diag.mean_sq_delta_im:.17g},{diag.hinge_sum:.17g}\n"
            )
