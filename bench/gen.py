"""Seeded input generator: writes one workload's split TSVs and rule TSV.

    python3 bench/gen.py --workload planted-small --seed 1 --out DIR [--tiny]

The same workload and seed always give byte-identical files. The pipeline
under test receives only these files.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from hornplex.experiments import make_planted_kg  # noqa: E402
from hornplex.kg import write_triples  # noqa: E402
from hornplex.rules import HornRule, write_rules  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

SPLITS = ("train", "valid", "test")


def random_rules(rng, num_relations, count):
    """``count`` rules with uniform head and body relations, body length
    uniform in 1-4 and confidence uniform in [0.5, 1)."""
    return [
        HornRule(
            body=tuple(int(r) for r in rng.integers(0, num_relations, size=rng.integers(1, 5))),
            head=int(rng.integers(0, num_relations)),
            confidence=float(rng.uniform(0.5, 1.0)),
        )
        for _ in range(count)
    ]


def generate(workload, seed, out_dir):
    """Write ``{train,valid,test,rules}.tsv`` for ``workload`` into ``out_dir``."""
    kg, rules = make_planted_kg(
        num_entities=workload.num_entities,
        edges_per_relation=workload.edges_per_relation,
        seed=seed,
    )
    rng = np.random.default_rng([seed, 1])
    rules = rules + random_rules(rng, kg.num_relations, workload.num_rules - len(rules))
    entities, relations = kg.entity_names, kg.relation_names
    for split in SPLITS:
        write_triples(
            os.path.join(out_dir, f"{split}.tsv"), getattr(kg, split), entities, relations
        )
    write_rules(os.path.join(out_dir, "rules.tsv"), rules, relations)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    generate(tiny(workload) if args.tiny else workload, args.seed, args.out)


if __name__ == "__main__":
    main()
