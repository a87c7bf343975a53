"""Zero/few-shot split construction: hold out task relations almost entirely.

All triples of each task relation are pulled out of train (and valid, to
prevent leakage) into test, then exactly ``shots`` support triples per task
relation are moved back to train. Support sets are nested across shot counts
under a fixed seed: each task relation gets one seeded permutation of its
triples and the support set is a prefix of it, so 0/1/3/5-shot splits differ
only in how much supervision they keep.
"""

import json
from dataclasses import dataclass

import numpy as np

from .kg import build_graph, write_triples
from .model import replacing

__all__ = ["FewShotSpec", "make_fewshot_split", "write_fewshot_split"]


@dataclass(frozen=True)
class FewShotSpec:
    num_task_relations: int
    shots: int
    seed: int = 0
    candidates: tuple | None = None  # restrict the random choice of task relations

    def __post_init__(self):
        if self.num_task_relations < 1:
            raise ValueError("num_task_relations must be at least 1")
        if self.shots < 0:
            raise ValueError("shots must be non-negative")
        if self.candidates is not None:
            object.__setattr__(self, "candidates", tuple(self.candidates))


def make_fewshot_split(kg, spec: FewShotSpec):
    """Return ``(new_graph, task_relations)`` built from ``kg`` per ``spec``.

    Task relations are drawn uniformly without replacement (from
    ``spec.candidates`` when given, otherwise all relations). A selected
    relation with no more triples than ``shots`` raises, naming the relation.
    Non-task triples keep their original split; the multiset union of the
    splits is preserved.
    """
    pool = spec.candidates if spec.candidates is not None else tuple(range(kg.num_relations))
    if spec.num_task_relations > len(pool):
        raise ValueError(
            f"cannot pick {spec.num_task_relations} task relations from {len(pool)} candidates"
        )
    rng = np.random.default_rng(spec.seed)
    task = sorted(int(r) for r in rng.choice(pool, size=spec.num_task_relations, replace=False))
    task_set = set(task)

    # Gather task-relation occurrences in deterministic scan order (train,
    # valid, test). Duplicate occurrences of one triple value travel together
    # so train and test stay disjoint as sets while the multiset is conserved.
    occurrences = {r: [] for r in task}
    new_train, new_valid, new_test = [], [], []
    for split, keep in ((kg.train, new_train), (kg.valid, new_valid), (kg.test, new_test)):
        for t in split:
            if t.relation in task_set:
                occurrences[t.relation].append(t)
            else:
                keep.append(t)

    names = kg.relation_names
    supports = {}
    for r in task:
        distinct = list(dict.fromkeys(occurrences[r]))  # first-seen order
        if len(distinct) <= spec.shots:
            raise ValueError(
                f"task relation {names[r]!r} ({r}) has {len(distinct)} triples, "
                f"needs more than shots={spec.shots}"
            )
        # One permutation per (seed, relation): prefixes give nested supports.
        perm = np.random.default_rng((spec.seed, r)).permutation(len(distinct))
        support_set = set(distinct[int(i)] for i in perm[: spec.shots])
        supports[r] = [t for t in occurrences[r] if t in support_set]
        new_train.extend(supports[r])
        new_test.extend(t for t in occurrences[r] if t not in support_set)

    graph = build_graph(new_train, new_valid, new_test, (kg.entity_ids, kg.relation_ids))
    return graph, task, supports


def write_fewshot_split(out_dir, graph, task, supports, spec):
    """Emit train/valid/test files plus a manifest of task relations and
    support triples."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    ent_names = graph.entity_names
    rel_names = graph.relation_names
    write_triples(os.path.join(out_dir, "train.txt"), graph.train, ent_names, rel_names)
    write_triples(os.path.join(out_dir, "valid.txt"), graph.valid, ent_names, rel_names)
    write_triples(os.path.join(out_dir, "test.txt"), graph.test, ent_names, rel_names)
    manifest = {
        "num_task_relations": spec.num_task_relations,
        "shots": spec.shots,
        "seed": spec.seed,
        "task_relations": [rel_names[r] for r in task],
        "support": {
            rel_names[r]: [
                [ent_names[t.head], rel_names[t.relation], ent_names[t.tail]]
                for t in supports[r]
            ]
            for r in task
        },
    }
    with replacing(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
