"""Definite Horn rules: parsing, filtering, and exact re-scoring against a graph.

A rule is a forward chain ``r_1(x,z_1) ∧ … ∧ r_k(z_{k-1},y) => r(x,y)`` with a
confidence in (0, 1]. Length-1 rules are hierarchies (relation entailment),
length-2 rules are compositions.
"""

from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph, read_lines
from .model import replacing

__all__ = [
    "HornRule",
    "RuleFileError",
    "parse_rules",
    "write_rules",
    "filter_rules",
    "ground_confidence",
]

HIERARCHY = "hierarchy"
COMPOSITION = "composition"
GENERAL = "general"


@dataclass(frozen=True)
class HornRule:
    body: tuple
    head: int
    confidence: float

    def __post_init__(self):
        if len(self.body) == 0:
            raise ValueError("rule body must be non-empty")
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside (0, 1]")
        object.__setattr__(self, "body", tuple(self.body))

    @property
    def length(self):
        return len(self.body)

    def kind(self):
        if self.length == 1:
            return HIERARCHY
        if self.length == 2:
            return COMPOSITION
        return GENERAL


class RuleFileError(ValueError):
    """Malformed rule file; message carries the line number."""


def parse_rules(path, relation_ids):
    """Parse a rule TSV: ``confidence<TAB>head<TAB>body_1[<TAB>body_2…]`` per line.

    ``#``-prefixed lines and blank lines are ignored. Body order is preserved.
    Unknown relation names and confidences outside (0, 1] raise RuleFileError
    with the offending line number.
    """
    rules = []
    for lineno, line in enumerate(read_lines(path, RuleFileError), start=1):
        if not line or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise RuleFileError(
                f"{path}:{lineno}: expected confidence, head, and at least one body relation"
            )
        try:
            confidence = float(fields[0])
        except ValueError as err:
            raise RuleFileError(f"{path}:{lineno}: bad confidence {fields[0]!r}") from err
        if not 0.0 < confidence <= 1.0:
            raise RuleFileError(f"{path}:{lineno}: confidence {confidence} outside (0, 1]")
        names = fields[1:]
        for name in names:
            if name not in relation_ids:
                raise RuleFileError(f"{path}:{lineno}: unknown relation {name!r}")
        rules.append(
            HornRule(
                body=tuple(relation_ids[name] for name in names[1:]),
                head=relation_ids[names[0]],
                confidence=confidence,
            )
        )
    return rules


def write_rules(path, rules, relation_names):
    """Serialize rules to the TSV format accepted by ``parse_rules``, to a
    temporary file that then replaces ``path``."""
    with replacing(path, encoding="utf-8") as handle:
        for rule in rules:
            body = "\t".join(relation_names[r] for r in rule.body)
            handle.write(f"{rule.confidence:.17g}\t{relation_names[rule.head]}\t{body}\n")


def filter_rules(rules, min_confidence=0.5, max_length=2, strict=False):
    """Keep rules with confidence >= ``min_confidence`` (``>`` when ``strict``)
    and body length <= ``max_length``; input order is preserved."""
    kept = []
    for rule in rules:
        if strict:
            if not rule.confidence > min_confidence:
                continue
        elif not rule.confidence >= min_confidence:
            continue
        if rule.length <= max_length:
            kept.append(rule)
    return kept


def ground_confidence(kg: KnowledgeGraph, rule: HornRule):
    """Standard confidence of ``rule`` against ``kg`` by exhaustive body grounding.

    Counts every chain (z_0, …, z_k) of known facts (distinct intermediates
    count separately) and returns the fraction whose head triple
    (z_0, head, z_k) is known. Returns None when the body has no groundings.
    Chains are counted per (z_0, z_i) pair, exactly (int64, then Python
    integers past 2**62): one per fact of the first body relation
    (``kg.pairs_of``), extended through ``kg.tails_of`` one body relation at
    a time. A relation outside the graph is a KeyError; the walk then takes
    the lookups that check no ids, since every entity id comes from the
    graph's own facts.
    """
    for r in rule.body + (rule.head,):
        if not 0 <= r < kg.num_relations:
            raise KeyError(f"relation {r} not present in graph")

    n = kg.num_entities
    x, z = kg._pairs_of(rule.body[0])
    counts = np.ones(x.size, dtype=np.int64)
    for r in rule.body[1:]:
        i, t = kg._tails_of(z, r)
        counts = counts[i]
        if counts.dtype != object and counts.sum(dtype=np.float64) >= 2.0**62:
            counts = counts.astype(object)  # Python integers stay exact past int64
        pairs, index = np.unique(x[i] * n + t, return_inverse=True)
        merged = np.zeros(pairs.size, dtype=counts.dtype)
        np.add.at(merged, index, counts)
        counts = merged
        x, z = np.divmod(pairs, n)

    total = int(counts.sum())
    if total == 0:
        return None
    supported = int(counts[kg._contains(x, rule.head, z)].sum())
    return supported / total
