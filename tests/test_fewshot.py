import json
from collections import Counter

import numpy as np
import pytest

from hornplex import fewshot
from hornplex.fewshot import FewShotSpec, make_fewshot_split, write_fewshot_split
from hornplex.kg import Triple, build_graph

from conftest import make_random_kg
from oracles import split_rows


def rows(triples):
    """The rows of an (N, 3) array as a list of Python int tuples."""
    return [tuple(row) for row in triples.tolist()]


def task_kg(per_relation=40, num_relations=4, seed=0, with_valid=True):
    """Deterministic graph where relation r has ``per_relation`` train triples
    (plus one valid triple for relation 0 unless disabled)."""
    dicts = (
        {f"e{i}": i for i in range(per_relation + num_relations)},
        {f"r{i}": i for i in range(num_relations)},
    )
    train = [
        Triple(i, r, (i + r + 1) % (per_relation + num_relations))
        for r in range(num_relations)
        for i in range(per_relation)
    ]
    valid = [Triple(per_relation, 0, 0)] if with_valid else []
    return build_graph(train, valid, [], dicts)


def test_spec_validation():
    with pytest.raises(ValueError):
        FewShotSpec(num_task_relations=0, shots=0)
    with pytest.raises(ValueError):
        FewShotSpec(num_task_relations=1, shots=-1)
    with pytest.raises(ValueError, match="candidate relation 5 is listed twice"):
        FewShotSpec(num_task_relations=1, shots=0, candidates=(5, 3, 5))


def test_zero_shots_removes_all_task_triples_from_train():
    kg = task_kg()
    graph, task, supports = make_fewshot_split(kg, FewShotSpec(2, 0, seed=1))
    assert len(task) == 2
    task_set = set(task)
    assert all(relation not in task_set for _, relation, _ in rows(graph.train))
    assert all(len(s) == 0 for s in supports.values())


def test_shot_counting():
    kg = task_kg(per_relation=40, num_relations=1, with_valid=False)
    graph, task, supports = make_fewshot_split(kg, FewShotSpec(1, 5, seed=2))
    (r,) = task
    assert len(supports[r]) == 5
    assert sum(1 for _, relation, _ in rows(graph.train) if relation == r) == 5
    assert sum(1 for _, relation, _ in rows(graph.test) if relation == r) == 35


def test_deterministic_and_nested_supports():
    kg = task_kg()
    spec1 = FewShotSpec(2, 1, seed=3)
    g1a, task1a, sup1a = make_fewshot_split(kg, spec1)
    g1b, task1b, sup1b = make_fewshot_split(kg, spec1)
    assert task1a == task1b and {r: rows(s) for r, s in sup1a.items()} == {
        r: rows(s) for r, s in sup1b.items()
    }
    assert rows(g1a.train) == rows(g1b.train) and rows(g1a.test) == rows(g1b.test)

    _, task3, sup3 = make_fewshot_split(kg, FewShotSpec(2, 3, seed=3))
    assert task3 == task1a
    for r in task1a:
        assert set(rows(sup1a[r])) <= set(rows(sup3[r]))


def test_candidate_pool_restricts_choice():
    kg = task_kg(num_relations=4)
    _, task, _ = make_fewshot_split(kg, FewShotSpec(2, 0, seed=4, candidates=(1, 3)))
    assert set(task) <= {1, 3}
    with pytest.raises(ValueError):
        make_fewshot_split(kg, FewShotSpec(3, 0, seed=4, candidates=(1, 3)))


@pytest.mark.parametrize("bad", [4, 99, -1])
def test_candidates_outside_the_relations_are_rejected(bad):
    kg = task_kg(num_relations=4)
    with pytest.raises(ValueError, match=rf"^candidate relation {bad} outside \[0, 4\)$"):
        make_fewshot_split(kg, FewShotSpec(1, 0, seed=0, candidates=(1, bad)))


def test_error_names_starved_relation():
    kg = task_kg(per_relation=3, num_relations=1, with_valid=False)
    with pytest.raises(ValueError, match="'r0'"):
        make_fewshot_split(kg, FewShotSpec(1, 3, seed=0))


def test_disjointness_and_conservation():
    kg = make_random_kg(seed=6, num_entities=15, num_relations=3, num_train=60, num_valid=8, num_test=8)
    graph, _, _ = make_fewshot_split(kg, FewShotSpec(1, 2, seed=6))
    assert not (set(rows(graph.train)) & set(rows(graph.test)))
    before = Counter(split_rows(kg))
    after = Counter(split_rows(graph))
    assert before == after


def test_valid_task_triples_move_to_test():
    dicts = ({f"e{i}": i for i in range(10)}, {"r0": 0, "r1": 1})
    train = [Triple(i, 0, i + 1) for i in range(6)] + [Triple(i, 1, i + 2) for i in range(6)]
    valid = [Triple(7, 0, 8), Triple(7, 1, 8)]
    kg = build_graph(train, valid, [], dicts)
    graph, task, _ = make_fewshot_split(kg, FewShotSpec(1, 0, seed=1, candidates=(0,)))
    assert task == [0]
    assert all(relation != 0 for _, relation, _ in rows(graph.valid))
    assert Triple(7, 0, 8) in rows(graph.test)
    assert Triple(7, 1, 8) in rows(graph.valid)


def test_filter_index_rebuilt_consistently():
    kg = task_kg()
    graph, _, _ = make_fewshot_split(kg, FewShotSpec(2, 1, seed=9))
    known = set(split_rows(graph))
    n, m = graph.num_entities, graph.num_relations
    grid = np.array(np.meshgrid(range(n), range(m), range(n), indexing="ij")).reshape(3, -1)
    assert graph.contains(*grid).tolist() == [Triple(*c) in known for c in grid.T.tolist()]
    assert graph.tail_codes.size == graph.head_codes.size == len(known)


def test_write_split_files_and_manifest(tmp_path):
    kg = task_kg()
    spec = FewShotSpec(2, 1, seed=5)
    graph, task, supports = make_fewshot_split(kg, spec)
    out = tmp_path / "shots_1"
    write_fewshot_split(out, graph, task, supports, spec)
    for name in ("train.txt", "valid.txt", "test.txt", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["shots"] == 1
    assert len(manifest["task_relations"]) == 2
    for rel_name, triples in manifest["support"].items():
        assert len(triples) == 1
        assert triples[0][1] == rel_name


def test_failed_manifest_write_keeps_previous_file(tmp_path, monkeypatch):
    kg = task_kg()
    spec = FewShotSpec(2, 1, seed=5)
    graph, task, supports = make_fewshot_split(kg, spec)
    write_fewshot_split(tmp_path, graph, task, supports, spec)
    manifest = tmp_path / "manifest.json"
    previous = manifest.read_text()

    class FailingJson:
        @staticmethod
        def dump(obj, handle, **kwargs):
            handle.write('{"num_task_relations": ')
            raise OSError("disk full")

    monkeypatch.setattr(fewshot, "json", FailingJson)
    with pytest.raises(OSError, match="disk full"):
        write_fewshot_split(tmp_path, graph, task, supports, spec)
    assert manifest.read_text() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "test.txt", "train.txt", "valid.txt"
    ]
