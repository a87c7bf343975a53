"""Every artifact writer writes a temporary file that then replaces its
target: a write that fails part-way leaves the previous file, and no
temporary file, behind."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from hornplex import experiments, rules as rules_mod
from hornplex.cli import main
from hornplex.kg import Triple, write_triples
from hornplex.model import export_table_csv, save_table
from hornplex.rules import HornRule, write_rules
from hornplex.verify import write_reports


class Unprintable:
    def __format__(self, spec):
        raise RuntimeError("cannot format")


def fail_write_triples(folder):
    names = ["a", Unprintable()]
    write_triples(folder / "train.txt", [Triple(0, 0, 0), Triple(1, 0, 0)], names, ["r"])


def fail_write_rules(folder):
    rules = [HornRule((0,), 0, 1.0), HornRule((1,), 0, 1.0)]
    write_rules(folder / "rules_filtered.tsv", rules, ["r", Unprintable()])


def fail_write_reports(folder):
    write_reports(folder / "theorem_reports.txt", [], extra={"a": 1, "b": Unprintable()})


def fail_export_table_csv(folder):
    def half(rows):
        return np.array([[0.5]] * (rows - 1) + [[Unprintable()]], dtype=object)

    table = SimpleNamespace(dim=1, ent_re=half(2), ent_im=half(2), rel_re=half(3), rel_im=half(3))
    export_table_csv(table, folder / "entities.csv", folder / "relations.csv")


def fail_save_table(folder):
    # rows of [re | im]; the last relation's re is not castable to float
    matrix = np.array([[0.5, 0.5]] * 3 + [[Unprintable(), 0.5]], dtype=object)
    table = SimpleNamespace(num_entities=2, num_relations=2, dim=1, bound=1.0, matrix=matrix)
    save_table(folder / "table.bin", table)


def fail_rules_confidence(folder):
    data = folder / "data"
    data.mkdir()
    (data / "train.txt").write_text("a\tr\tb\nb\ts\tc\n", encoding="utf-8")
    (data / "rules.tsv").write_text("0.5\ts\tr\n0.5\tr\ts\n", encoding="utf-8")
    config = data / "run.ini"
    config.write_text(
        f"[paths]\ntrain = {data / 'train.txt'}\nrules = {data / 'rules.tsv'}\n"
        f"output_dir = {folder}\n",
        encoding="utf-8",
    )
    results = iter([0.5, RuntimeError("cannot score")])

    def confidence(kg, rule):
        result = next(results)
        if isinstance(result, Exception):
            raise result
        return result

    with mock.patch.object(rules_mod, "ground_confidence", confidence):
        main(["--config", str(config), "rules", "confidence"])


def unserializable_run(*args):
    return {"mrr": 0.5, "valid_mrr": 0.5, "hits": {1: Unprintable()}}


def fail_planted_summary(folder):
    with mock.patch.object(experiments, "_run_one", unserializable_run):
        experiments.run_planted_comparison(folder, mus=(1.0,))


def fail_zero_shot_summary(folder):
    with mock.patch.object(experiments, "_run_one", unserializable_run):
        experiments.run_zero_shot_comparison(folder)


@pytest.mark.parametrize(
    "fail, targets",
    [
        (fail_write_triples, ["train.txt"]),
        (fail_write_rules, ["rules_filtered.tsv"]),
        (fail_rules_confidence, ["rule_confidence.tsv"]),
        (fail_write_reports, ["theorem_reports.txt"]),
        (fail_export_table_csv, ["entities.csv", "relations.csv"]),
        (fail_save_table, ["table.bin"]),
        (fail_planted_summary, ["summary.json"]),
        (fail_zero_shot_summary, ["summary.json"]),
    ],
    ids=[
        "triples",
        "rules",
        "rules-confidence",
        "theorem-reports",
        "table-csv",
        "table-dump",
        "planted-summary",
        "zero-shot-summary",
    ],
)
def test_failed_write_keeps_previous_file(tmp_path, fail, targets):
    previous = {name: f"previous {name}\n" for name in targets}
    for name, text in previous.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises((RuntimeError, TypeError)):
        fail(tmp_path)
    for name, text in previous.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text
    assert not list(tmp_path.glob("*.tmp"))
