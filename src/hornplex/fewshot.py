"""Zero/few-shot split construction: hold out task relations almost entirely.

All triples of each task relation are pulled out of train (and valid, to
prevent leakage) into test, then exactly ``shots`` support triples per task
relation are moved back to train. Support sets are nested across shot counts
under a fixed seed: each task relation gets one seeded permutation of its
triples and the support set is a prefix of it, so 0/1/3/5-shot splits differ
only in how much supervision they keep.
"""

import json
import os
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
    candidates: tuple | None = None  # distinct relations to draw the task relations from

    def __post_init__(self):
        if self.num_task_relations < 1:
            raise ValueError("num_task_relations must be at least 1")
        if self.shots < 0:
            raise ValueError("shots must be non-negative")
        if self.candidates is not None:
            candidates = tuple(self.candidates)
            for i, r in enumerate(candidates):
                if r in candidates[:i]:
                    raise ValueError(f"candidate relation {r} is listed twice")
            object.__setattr__(self, "candidates", candidates)


def make_fewshot_split(kg, spec: FewShotSpec):
    """Return ``(new_graph, task_relations, supports)`` built from ``kg`` per ``spec``.

    Task relations are drawn uniformly without replacement (from
    ``spec.candidates`` when given, otherwise all relations). A candidate id
    outside [0, num_relations) raises, naming the id. A selected
    relation with no more triples than ``shots`` raises, naming the relation.
    Non-task triples keep their original split; the multiset union of the
    splits is preserved. ``supports`` maps each task relation to the (k, 3)
    int64 array of its support rows.
    """
    pool = spec.candidates if spec.candidates is not None else tuple(range(kg.num_relations))
    for r in pool:
        if not 0 <= r < kg.num_relations:
            raise ValueError(f"candidate relation {r} outside [0, {kg.num_relations})")
    if spec.num_task_relations > len(pool):
        raise ValueError(
            f"cannot pick {spec.num_task_relations} task relations from {len(pool)} candidates"
        )
    rng = np.random.default_rng(spec.seed)
    task = sorted(int(r) for r in rng.choice(pool, size=spec.num_task_relations, replace=False))

    # Task-relation rows leave their split in scan order (train, valid,
    # test). Duplicate rows of one triple travel together, so train and test
    # stay disjoint as sets while the multiset is conserved.
    splits = (kg.train, kg.valid, kg.test)
    new_train, new_valid, new_test = (split[~np.isin(split[:, 1], task)] for split in splits)
    n = kg.num_entities
    names = kg.relation_names
    supports = {}
    held_out = []
    for r in task:
        rows = np.concatenate([split[split[:, 1] == r] for split in splits])
        pairs = rows[:, 0] * n + rows[:, 2]
        # the distinct triples, in first-seen order
        distinct = pairs[np.sort(np.unique(pairs, return_index=True)[1])]
        if len(distinct) <= spec.shots:
            raise ValueError(
                f"task relation {names[r]!r} ({r}) has {len(distinct)} triples, "
                f"needs more than shots={spec.shots}"
            )
        # One permutation per (seed, relation): prefixes give nested supports.
        perm = np.random.default_rng((spec.seed, r)).permutation(len(distinct))
        in_support = np.isin(pairs, distinct[perm[: spec.shots]])
        supports[r] = rows[in_support]
        held_out.append(rows[~in_support])

    new_train = np.concatenate([new_train, *supports.values()])
    new_test = np.concatenate([new_test, *held_out])
    graph = build_graph(new_train, new_valid, new_test, (kg.entity_ids, kg.relation_ids))
    return graph, task, supports


def write_fewshot_split(out_dir, graph, task, supports, spec):
    """Emit train/valid/test files plus a manifest of task relations and
    support triples."""
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
                [ent_names[h], rel_names[rel], ent_names[t]]
                for h, rel, t in supports[r].tolist()
            ]
            for r in task
        },
    }
    with replacing(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
