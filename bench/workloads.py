"""The benchmark's workloads: input sizes, rule counts and nominal costs.

Every workload runs the whole pipeline (load, train, evaluate, rule
diagnostics, grounded confidence) as one caller in a closed loop. They differ
in which layer dominates: per-step Python overhead (planted-small), work that
scales with the entity count (planted-20k), or work that scales with the rule
count (rules-500). ``BENCHMARK.json`` gives the reason for each.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    num_entities: int
    edges_per_relation: int
    num_rules: int  # the 8 planted rules, topped up with random ones
    eval_sample: int | None  # test triples ranked; None ranks the whole test split
    epoch_s: float  # nominal seconds per training epoch on a 2-core x86 box

    def epochs(self, seconds, train_share):
        """Training length for a run of ``seconds``: fixed by the arguments
        alone, never by a clock, so the trained table is deterministic."""
        return max(1, round(train_share * seconds / self.epoch_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-small",
            num_entities=200,
            edges_per_relation=200,
            num_rules=8,
            eval_sample=None,
            epoch_s=0.17,
        ),
        Workload(
            "planted-20k",
            num_entities=20_000,
            edges_per_relation=5_000,
            num_rules=8,
            eval_sample=1_000,
            epoch_s=6.7,
        ),
        Workload(
            "rules-500",
            num_entities=500,
            edges_per_relation=300,
            num_rules=500,
            eval_sample=None,
            epoch_s=3.75,
        ),
    )
}


def tiny(workload):
    """A seconds-long version of ``workload`` with the same layer mix, for
    the benchmark's self-test."""
    return replace(
        workload,
        num_entities=max(60, workload.num_entities // 100),
        edges_per_relation=max(40, workload.edges_per_relation // 100),
        num_rules=min(workload.num_rules, 40),
        eval_sample=workload.eval_sample and 50,
        epoch_s=1e9,
    )
