"""The files the generators write, pinned byte for byte.

``make_planted_kg`` and the few-shot split draw from seeded generators and
write integers and names only, so their files do not depend on BLAS or SIMD:
a change to how the splits are held in memory must leave every byte alone.
"""

import hashlib

import pytest

from hornplex.experiments import make_planted_kg
from hornplex.fewshot import FewShotSpec, make_fewshot_split, write_fewshot_split
from hornplex.kg import write_triples


def digests(folder):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(folder.iterdir())}


def test_planted_graph_files_are_pinned(tmp_path):
    kg, _ = make_planted_kg(seed=0)
    for split in ("train", "valid", "test"):
        write_triples(tmp_path / f"{split}.txt", getattr(kg, split), kg.entity_names, kg.relation_names)
    assert digests(tmp_path) == {
        "test.txt": "c3d4b8b9e26a0fd94fcd73cfc495d6bfbb4d99928e4ad9c0a175b8bbf2568850",
        "train.txt": "2f0d8a23367c972a702845d056b01725d0a0862901bc65fae588b54ebbde74bd",
        "valid.txt": "4d867f412bdb42ac3f4cbfc6e234fef52b0ff3bffe5baf47843e465aac937115",
    }


FEWSHOT_DIGESTS = {
    0: {
        "manifest.json": "e698e3486a1c24fcfd04e87a589b85c7fac9e2baec251d8c3b0c5af13c594aee",
        "test.txt": "76f029399adac034f1bedf9b093d4ecaf5a40516de198c3328a2c731407bf57f",
        "train.txt": "99ab49ae58077fe9dd673b5a8fc7befe6777d8a6ecf5dae3a92d0da2daa39b19",
        "valid.txt": "785e2c276c70783b9a5c9b7c1aedf1faee224580440ea6bad91c351927b6b369",
    },
    3: {
        "manifest.json": "5665634b89ce19e020282f8b310d6383a03f9ef3a1138e1df9d16b9145bd4d16",
        "test.txt": "4fd86af6c00d5e4bebe9afb7e5e4e0a5e5c2fb329ac7d9b7418fd6f23736bbda",
        "train.txt": "7063b6326fc63b48011e51ba58dae29cfb2ec35be4da236d6025dd83efa75962",
        "valid.txt": "785e2c276c70783b9a5c9b7c1aedf1faee224580440ea6bad91c351927b6b369",
    },
}


@pytest.mark.parametrize("shots", sorted(FEWSHOT_DIGESTS))
def test_fewshot_split_files_are_pinned(tmp_path, shots):
    """The zero-shot experiment's graph and task pool (bipartite geometry,
    hierarchy heads as candidates), and the same spec with three shots."""
    full, rules = make_planted_kg(
        seed=1, valid_fraction=0.05, test_fraction=0.0, noise_fraction=0.0, style="bipartite"
    )
    heads = tuple(rule.head for rule in rules if rule.length == 1)
    spec = FewShotSpec(num_task_relations=2, shots=shots, seed=1, candidates=heads)
    graph, task, supports = make_fewshot_split(full, spec)
    write_fewshot_split(tmp_path, graph, task, supports, spec)
    assert digests(tmp_path) == FEWSHOT_DIGESTS[shots]
