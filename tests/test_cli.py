import configparser
import json
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hornplex import training
from hornplex.cli import main
from hornplex.config import SETTINGS, RunConfig, load_run_config
from hornplex.kg import load_graph
from hornplex.model import init_table, load_table, save_table
from hornplex.training import read_training_log

from conftest import make_random_kg


@pytest.fixture
def workspace(tmp_path):
    """Toy dataset, rule file, and an INI config pointing at them."""
    kg = make_random_kg(seed=1, num_entities=12, num_relations=3, num_train=40, num_valid=6, num_test=6)
    data = tmp_path / "data"
    data.mkdir()
    from hornplex.kg import write_triples

    ents, rels = kg.entity_names, kg.relation_names
    write_triples(data / "train.txt", kg.train, ents, rels)
    write_triples(data / "valid.txt", kg.valid, ents, rels)
    write_triples(data / "test.txt", kg.test, ents, rels)
    (data / "rules.tsv").write_text("0.9\tr1\tr0\n0.7\tr2\tr0\tr1\n", encoding="utf-8")

    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text(
        f"""[paths]
train = {data / 'train.txt'}
valid = {data / 'valid.txt'}
test = {data / 'test.txt'}
rules = {data / 'rules.tsv'}
output_dir = {out}

[train]
learning_rate = 0.5
batch_size = 16
epochs = 3
validate_every = 0
mu = 0.5
eta = 0.01
negatives_per_positive = 2
bound = 1.0
dim = 6
seed = 3

[eval]
side = both
hits = 1,3,10

[fewshot]
num_task_relations = 1
shots = 0,1,3,5
seed = 2

[verify]
trials = 300
seed = 4
dims = 2
ks = 1,2
""",
        encoding="utf-8",
    )
    return {"config": config, "out": out, "data": data, "tmp": tmp_path}


def test_train_writes_artifacts(workspace, capsys):
    rc = main(["--config", str(workspace["config"]), "train"])
    assert rc == 0
    out = workspace["out"]
    assert (out / "checkpoint.bin").exists()
    assert (out / "training_log.jsonl").exists()
    assert (out / "metrics_valid.txt").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["train.seed"] == 3
    records, echo = read_training_log(out / "training_log.jsonl")
    assert len(records) == 3
    assert echo["train.mu"] == 0.5


def test_a_table_that_does_not_fit_in_memory_is_one_error_line(workspace):
    """A dim whose table needs far more memory than the process may map:
    ``hornplex train`` exits 2 with an error line naming the command, not a
    traceback. The address-space limit is set in the child only."""
    big = workspace["tmp"] / "big.ini"
    big.write_text(workspace["config"].read_text().replace("dim = 6", f"dim = {2**28}"), encoding="utf-8")
    limit = 1 << 30  # 1 GiB of address space; the table alone needs 64 GiB

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-m", "hornplex", "--config", str(big), "train"],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=120,
    )
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: train: out of memory")


def test_train_missing_rules_with_mu_errors(workspace, capsys):
    bad = workspace["tmp"] / "bad.ini"
    text = workspace["config"].read_text().replace("rules.tsv", "missing_rules.tsv")
    bad.write_text(text, encoding="utf-8")
    rc = main(["--config", str(bad), "train"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing_rules.tsv" in err


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_train_on_a_split_without_triples_names_the_train_file(workspace, capsys, text):
    train = workspace["data"] / "train.txt"
    train.write_text(text, encoding="utf-8")
    assert main(["--config", str(workspace["config"]), "train"]) == 2
    assert capsys.readouterr().err == f"error: train triple file {train} holds no triples\n"
    assert not workspace["out"].exists()


@pytest.mark.parametrize("emptied", ["file", "key"])
def test_eval_on_an_empty_split_names_it_before_reading_the_checkpoint(workspace, capsys, emptied):
    config, valid = workspace["config"], workspace["data"] / "valid.txt"
    text = config.read_text().replace("[eval]", "[eval]\nsplit = valid")
    if emptied == "file":
        valid.write_text("", encoding="utf-8")
        expected = f"error: valid triple file {valid} holds no triples\n"
    else:
        text = text.replace(f"valid = {valid}\n", "")
        expected = "error: config sets no [paths] valid, so the valid split is empty\n"
    config.write_text(text, encoding="utf-8")
    missing = str(workspace["tmp"] / "missing.bin")
    assert main(["--config", str(config), "eval", "--checkpoint", missing]) == 2
    assert capsys.readouterr().err == expected
    assert not workspace["out"].exists()


def test_train_mu_zero_logs_zero_rule_penalty(workspace, tmp_path):
    cfg = workspace["tmp"] / "mu0.ini"
    cfg.write_text(workspace["config"].read_text().replace("mu = 0.5", "mu = 0.0"), encoding="utf-8")
    out = tmp_path / "out_mu0"
    rc = main(["--config", str(cfg), "--output-dir", str(out), "train"])
    assert rc == 0
    records, _ = read_training_log(out / "training_log.jsonl")
    assert all(rec.rule_penalty == 0.0 for rec in records)


def test_train_at_mu_zero_opens_no_rules_file(workspace, capsys):
    """mu = 0 packs no rules, so a malformed rules file trains as a config
    without one does, to the same checkpoint bytes."""
    rules = workspace["data"] / "rules.tsv"
    rules.write_text("0.9\tr1\n", encoding="utf-8")  # no body relation
    text = workspace["config"].read_text().replace("mu = 0.5", "mu = 0.0")
    checkpoints = []
    for name, config_text in (("malformed", text), ("none", text.replace(f"rules = {rules}\n", ""))):
        cfg, out = workspace["tmp"] / f"{name}.ini", workspace["tmp"] / name
        cfg.write_text(config_text, encoding="utf-8")
        assert main(["--config", str(cfg), "--output-dir", str(out), "train"]) == 0
        checkpoints.append((out / "checkpoint.bin").read_bytes())
    assert "rules = " not in config_text
    assert checkpoints[0] == checkpoints[1]
    assert capsys.readouterr().err == ""


def test_eval_zero_epoch_checkpoint(workspace, tmp_path, capsys):
    cfg = workspace["tmp"] / "e0.ini"
    cfg.write_text(workspace["config"].read_text().replace("epochs = 3", "epochs = 0"), encoding="utf-8")
    out = tmp_path / "out_e0"
    assert main(["--config", str(cfg), "--output-dir", str(out), "train"]) == 0
    rc = main(
        [
            "--config", str(cfg), "--output-dir", str(out),
            "eval", "--checkpoint", str(out / "checkpoint.bin"), "--split", "test",
        ]
    )
    assert rc == 0
    text = (out / "metrics.txt").read_text()
    values = {
        line.split("=")[0].strip(): float(line.split("=")[1])
        for line in text.splitlines()
        if line and not line.startswith("#")
    }
    assert 0.0 < values["mrr"] <= 1.0
    assert "# train.seed" in text  # config echo embedded


def test_seed_override_changes_training(workspace, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", str(workspace["config"]), "--output-dir", str(out_a), "train"]) == 0
    assert main(["--config", str(workspace["config"]), "--output-dir", str(out_b), "--seed", "99", "train"]) == 0
    assert (out_a / "checkpoint.bin").read_bytes() != (out_b / "checkpoint.bin").read_bytes()


def test_rules_filter_command(workspace, capsys):
    rc = main(["--config", str(workspace["config"]), "rules", "filter", "--min-confidence", "0.8"])
    assert rc == 0
    kept = (workspace["out"] / "rules_filtered.tsv").read_text().strip().splitlines()
    assert len(kept) == 1 and kept[0].startswith("0.9")


@pytest.mark.parametrize(
    "flag, text, expected",
    [
        ("--min-confidence", "nan", "expected a finite number"),
        ("--min-confidence", "inf", "expected a finite number"),
        ("--min-confidence", "-inf", "expected a finite number"),
        ("--max-length", "-3", "expected an integer of at least 1"),
        ("--max-length", "0", "expected an integer of at least 1"),
    ],
)
def test_rules_filter_flag_out_of_range_names_the_flag(workspace, capsys, flag, text, expected):
    rc = main(["--config", str(workspace["config"]), "rules", "filter", f"{flag}={text}"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {flag} {text}: {expected}\n"
    assert not workspace["out"].exists()


def test_rules_confidence_command(workspace, capsys):
    rc = main(["--config", str(workspace["config"]), "rules", "confidence"])
    assert rc == 0
    table = (workspace["out"] / "rule_confidence.tsv").read_text().strip().splitlines()
    assert table[0].split("\t") == ["kind", "head", "body", "stated", "ground"]
    assert len(table) == 3
    kinds = {line.split("\t")[0] for line in table[1:]}
    assert kinds == {"hierarchy", "composition"}


def test_fewshot_candidate_outside_the_graph_names_the_file_and_key(workspace, capsys):
    config = workspace["config"]
    config.write_text(
        config.read_text().replace("[fewshot]\n", "[fewshot]\ncandidates = r0, nosuch\n")
    )
    rc = main(["--config", str(config), "fewshot"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{config}: [fewshot] candidates: 'nosuch' is not a relation of the graph" in err
    assert not workspace["out"].exists()


def test_fewshot_command_nesting(workspace):
    rc = main(["--config", str(workspace["config"]), "fewshot"])
    assert rc == 0
    out = workspace["out"]
    manifests = {}
    for shots in (0, 1, 3, 5):
        d = out / f"shots_{shots}"
        assert (d / "train.txt").exists() and (d / "manifest.json").exists()
        manifests[shots] = json.loads((d / "manifest.json").read_text())
    assert manifests[0]["task_relations"] == manifests[5]["task_relations"]
    for small, big in ((1, 3), (3, 5)):
        for rel, support in manifests[small]["support"].items():
            bigger = {tuple(t) for t in manifests[big]["support"][rel]}
            assert {tuple(t) for t in support} <= bigger
    # the split files reload cleanly and stay disjoint
    d = out / "shots_1"
    graph = load_graph(d / "train.txt", d / "valid.txt", d / "test.txt")
    train, test = ({tuple(t) for t in split.tolist()} for split in (graph.train, graph.test))
    assert not (train & test)


def test_verify_command(workspace, capsys):
    rc = main(["--config", str(workspace["config"]), "verify"])
    assert rc == 0
    text = (workspace["out"] / "theorem_reports.txt").read_text()
    assert "composition" in text and "horn" in text and "unrestricted" in text
    printed = capsys.readouterr().out
    assert "suite passed" in printed


def test_diagnostics_command(workspace, capsys):
    assert main(["--config", str(workspace["config"]), "train"]) == 0
    rc = main(
        [
            "--config", str(workspace["config"]),
            "diagnostics", "--checkpoint", str(workspace["out"] / "checkpoint.bin"),
        ]
    )
    assert rc == 0
    out = workspace["out"]
    assert (out / "diagnostics.csv").exists()
    assert (out / "diagnostics_summary.csv").exists()
    assert (out / "entities.csv").exists()
    assert (out / "relations.csv").exists()
    printed = capsys.readouterr().out
    assert "mean hinge violation" in printed


def test_train_dumps_dictionaries(workspace):
    assert main(["--config", str(workspace["config"]), "train"]) == 0
    ents = (workspace["out"] / "entities.dict").read_text().strip().splitlines()
    assert ents[0].split("\t")[0] == "0"
    assert len(ents) == 12


def test_missing_config_is_an_error(capsys):
    rc = main(["train"])
    assert rc == 2
    assert "config" in capsys.readouterr().err


def spoil_line(path, lineno, old, new):
    """Replace ``old`` by ``new`` (bytes) in line ``lineno`` of ``path``;
    returns the byte offset of the replacement."""
    lines = path.read_bytes().splitlines(keepends=True)
    offset = sum(map(len, lines[: lineno - 1])) + lines[lineno - 1].index(old)
    lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    path.write_bytes(b"".join(lines))
    return offset


@pytest.mark.parametrize(
    "file, lineno, old, new, expected",
    [
        ("train.txt", 3, b"e", b"\xffe", "{path}:3: byte 0xff at offset {offset} is not UTF-8"),
        ("test.txt", 6, b"\t", b"\xc3\t", "{path}:6: byte 0xc3 at offset {offset} is not UTF-8"),
        ("rules.tsv", 2, b"r2", b"\xffr2", "{path}:2: byte 0xff at offset {offset} is not UTF-8"),
        ("run.ini", 1, b"[paths]", b"[p\xffths]", "{path}:1: byte 0xff at offset 2 is not UTF-8"),
        (
            "run.ini",
            10,
            b"16",
            b"abc",
            "{path}: [train] batch_size = 'abc': invalid literal for int() with base 10: 'abc'",
        ),
        (
            "run.ini",
            22,
            b"1,3,10",
            b"1,3,ten",
            "{path}: [eval] hits = '1,3,ten': invalid literal for int() with base 10: 'ten'",
        ),
        ("run.ini", 1, b"[paths]", b"paths", "File contains no section headers.\nfile: '{path}', line: 1"),
    ],
    ids=["triples", "triples-cut", "rules", "ini-bytes", "ini-int", "ini-ints", "ini-section"],
)
def test_bad_input_exits_2_naming_the_file_and_line(workspace, capsys, file, lineno, old, new, expected):
    path = workspace["config"] if file == "run.ini" else workspace["data"] / file
    offset = spoil_line(path, lineno, old, new)
    assert main(["--config", str(workspace["config"]), "rules", "confidence"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: " + expected.format(path=path, offset=offset)
    )


@pytest.mark.parametrize(
    "old, new, expected",
    [
        (b"mu = 0.5", b"mu_ = 5.0", "[train] mu_: unknown key; [train] takes learning_rate,"),
        (b"[fewshot]", b"[fewsht]", "[fewsht]: unknown section; the sections are paths,"),
        (b"[paths]", b"[DEFAULT]\nseed = 1\n[paths]", "[DEFAULT]: unknown section"),
        (
            b"side = both",
            b"side = sideways",
            "[eval] side = 'sideways': expected one of both, head, tail",
        ),
    ],
    ids=["unknown-key", "unknown-section", "default-section", "bad-side"],
)
def test_unknown_or_invalid_setting_stops_train_before_any_work(
    workspace, capsys, old, new, expected
):
    config = workspace["config"]
    config.write_bytes(config.read_bytes().replace(old, new, 1))
    assert main(["--config", str(config), "train"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: {expected}")
    assert not workspace["out"].exists()


@pytest.mark.parametrize(
    "old, new, command, expected",
    [
        (b"seed = 3", b"seed = -1", "train", "{config}: [train] seed must be non-negative"),
        (
            b"seed = 2",
            b"seed = -1",
            "fewshot",
            "{config}: [fewshot] seed = '-1': expected an integer of at least 0",
        ),
        (
            b"seed = 4",
            b"seed = -1",
            "verify",
            "{config}: [verify] seed = '-1': expected an integer of at least 0",
        ),
    ],
    ids=["train", "fewshot", "verify"],
)
def test_negative_seed_in_the_config_names_the_file_and_key(
    workspace, capsys, old, new, command, expected
):
    config = workspace["config"]
    config.write_bytes(config.read_bytes().replace(old, new, 1))
    assert main(["--config", str(config), command]) == 2
    assert capsys.readouterr().err == f"error: {expected.format(config=config)}\n"
    assert not workspace["out"].exists()


def test_negative_seed_flag_is_named(workspace, capsys):
    assert main(["--config", str(workspace["config"]), "--seed", "-1", "verify"]) == 2
    assert capsys.readouterr().err == "error: --seed -1: expected an integer of at least 0\n"


def test_unknown_split_in_the_config_names_the_file_and_key(workspace, capsys):
    config = workspace["config"]
    assert main(["--config", str(config), "train"]) == 0
    config.write_bytes(config.read_bytes().replace(b"[eval]", b"[eval]\nsplit = tset", 1))
    capsys.readouterr()
    checkpoint = str(workspace["out"] / "checkpoint.bin")
    assert main(["--config", str(config), "eval", "--checkpoint", checkpoint]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: [eval] split = 'tset': expected one of train, valid, test\n"
    )


def test_empty_verify_dims_exits_2_with_the_file_and_key(workspace, capsys):
    config = workspace["config"]
    config.write_bytes(config.read_bytes().replace(b"dims = 2", b"dims =", 1))
    assert main(["--config", str(config), "verify"]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: [verify] dims = '': expected at least one value\n"
    )
    assert not workspace["out"].exists()


@pytest.mark.parametrize("command", ["eval", "diagnostics"])
@pytest.mark.parametrize("extra_entities, extra_relations", [(5, 0), (-3, 0), (0, 1)])
def test_checkpoint_not_matching_graph_is_rejected(
    workspace, capsys, command, extra_entities, extra_relations
):
    assert main(["--config", str(workspace["config"]), "train"]) == 0
    trained = load_table(workspace["out"] / "checkpoint.bin")
    shape = (trained.num_entities + extra_entities, trained.num_relations + extra_relations)
    other = workspace["tmp"] / "other.bin"
    save_table(other, init_table(*shape, trained.dim, trained.bound, seed=0))
    capsys.readouterr()
    rc = main(["--config", str(workspace["config"]), command, "--checkpoint", str(other)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(other) in err
    assert f"{shape[0]} entities and {shape[1]} relations" in err
    assert f"{trained.num_entities} entities and {trained.num_relations} relations" in err


def test_training_divergence_exits_with_its_message(workspace, capsys, monkeypatch):
    logistic_loss = training.logistic_loss

    def non_finite(table, batch, **kw):
        return (float("nan"),) + logistic_loss(table, batch, **kw)[1:]

    monkeypatch.setattr(training, "logistic_loss", non_finite)
    rc = main(["--config", str(workspace["config"]), "train"])
    assert rc == 2
    assert "non-finite loss at epoch 1 batch 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage, expected",
    [
        (lambda ckpt: ckpt[:20], "truncated at byte 20"),
        (lambda ckpt: ckpt[:100], "truncated at byte 100"),
        (lambda ckpt: ckpt[:4] + struct.pack("<q", -1) + ckpt[12:], "bad header at byte 4"),
    ],
    ids=["cut-in-header", "cut-in-arrays", "negative-count"],
)
def test_eval_rejects_damaged_checkpoint(workspace, capsys, damage, expected):
    assert main(["--config", str(workspace["config"]), "train"]) == 0
    damaged = workspace["tmp"] / "damaged.bin"
    damaged.write_bytes(damage((workspace["out"] / "checkpoint.bin").read_bytes()))
    capsys.readouterr()
    rc = main(["--config", str(workspace["config"]), "eval", "--checkpoint", str(damaged)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(damaged) in err
    assert expected in err


def test_eval_rejects_non_finite_checkpoint(workspace, capsys):
    assert main(["--config", str(workspace["config"]), "train"]) == 0
    table = load_table(workspace["out"] / "checkpoint.bin")
    table.ent_im[2, 1] = np.nan
    bad = workspace["tmp"] / "nan.bin"
    save_table(bad, table)
    capsys.readouterr()
    rc = main(["--config", str(workspace["config"]), "eval", "--checkpoint", str(bad)])
    assert rc == 2
    offset = 36 + 8 * (12 * 6 + 2 * 6 + 1)  # header, ent_re, then ent_im[2, 1]
    assert f"{bad}: ent_im holds the non-finite value nan at byte {offset}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "diagnostics"])
def test_infeasible_checkpoint_exits_2(workspace, capsys, command):
    assert main(["--config", str(workspace["config"]), "train"]) == 0
    table = load_table(workspace["out"] / "checkpoint.bin")
    table.rel_re[1, 2] = 7.0  # the bound is 1
    bad = workspace["tmp"] / "infeasible.bin"
    save_table(bad, table)
    capsys.readouterr()
    rc = main(["--config", str(workspace["config"]), command, "--checkpoint", str(bad)])
    assert rc == 2
    offset = 36 + 8 * (2 * 12 * 6 + 1 * 6 + 2)  # header, ent_re, ent_im, then rel_re[1, 2]
    assert f"{bad}: rel_re holds the infeasible value 7.0 at byte {offset}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "diagnostics"])
@pytest.mark.parametrize("dictionary", ["entities.dict", "relations.dict"])
def test_dictionary_beside_checkpoint_must_match_graph(workspace, capsys, command, dictionary):
    assert main(["--config", str(workspace["config"]), "train"]) == 0
    path = workspace["out"] / dictionary
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0], lines[1] = "0\t" + lines[1].split("\t")[1], "1\t" + lines[0].split("\t")[1]
    first, second = lines[0].split("\t")[1], lines[1].split("\t")[1]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    checkpoint = str(workspace["out"] / "checkpoint.bin")
    rc = main(["--config", str(workspace["config"]), command, "--checkpoint", checkpoint])
    assert rc == 2
    assert (
        f"{path}:1: the dictionary maps id 0 to {first!r}, the graph maps id 0 to {second!r}"
        in capsys.readouterr().err
    )


def test_eval_accepts_the_dictionaries_written_by_train(workspace, capsys):
    assert main(["--config", str(workspace["config"]), "train"]) == 0
    checkpoint = str(workspace["out"] / "checkpoint.bin")
    assert main(["--config", str(workspace["config"]), "eval", "--checkpoint", checkpoint]) == 0


def test_failed_resolved_config_write_keeps_previous_file(workspace, capsys, monkeypatch):
    assert main(["--config", str(workspace["config"]), "train"]) == 0
    resolved = workspace["out"] / "resolved_config.json"
    previous = resolved.read_text()
    echo = RunConfig.echo
    monkeypatch.setattr(RunConfig, "echo", lambda self: {**echo(self), "zz": object()})
    with pytest.raises(TypeError):
        main(["--config", str(workspace["config"]), "train"])
    assert resolved.read_text() == previous
    assert not [p for p in workspace["out"].iterdir() if p.name.endswith(".tmp")]


def test_eval_split_flag_is_ranked_and_recorded(workspace, capsys):
    config = str(workspace["config"])
    assert main(["--config", config, "train"]) == 0
    checkpoint = str(workspace["out"] / "checkpoint.bin")
    assert main(["--config", config, "eval", "--checkpoint", checkpoint, "--split", "valid"]) == 0
    lines = (workspace["out"] / "metrics.txt").read_text().splitlines()
    assert "# eval_split = valid" in lines
    assert "count = 12" in lines  # 6 valid triples, each ranked on both sides


def test_verify_trials_flag_is_recorded(workspace):
    assert main(["--config", str(workspace["config"]), "verify", "--trials", "50"]) == 0
    lines = (workspace["out"] / "theorem_reports.txt").read_text().splitlines()
    assert "# verify_trials = 50" in lines
    assert "trials=50" in lines[-1]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_trials_flag_below_1_names_the_flag(workspace, capsys, trials):
    assert main(["--config", str(workspace["config"]), "verify", "--trials", trials]) == 2
    assert capsys.readouterr().err == f"error: --trials {trials}: expected an integer of at least 1\n"
    assert not workspace["out"].exists()


def test_readme_configuration_loads_and_sets_every_key(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A complete configuration", 1)[1].split("```ini\n", 1)[1]
    path = tmp_path / "run.ini"
    path.write_text(block.split("```", 1)[0], encoding="utf-8")
    cfg = load_run_config(path)
    assert cfg.train.mu == 1.0 and cfg.fewshot_shots == (0, 1, 3, 5)
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    missing = {
        (section, key) for section, casts in SETTINGS.items() for key in casts
        if not parser.has_option(section, key)
    }
    assert missing == {("fewshot", "candidates")}


# RunConfig().echo() in field order. Every artifact header and
# resolved_config.json embed the echo, so a renamed, reordered or
# re-defaulted field changes them.
DEFAULT_ECHO = {
    "train_path": None,
    "valid_path": None,
    "test_path": None,
    "rules_path": None,
    "output_dir": "out",
    "eval_side": "both",
    "eval_hits": [1, 3, 10],
    "eval_split": "test",
    "fewshot_num_task_relations": 2,
    "fewshot_shots": [0],
    "fewshot_seed": 0,
    "fewshot_candidates": None,
    "verify_trials": 10000,
    "verify_seed": 0,
    "verify_dims": [2, 8, 32],
    "verify_ks": [1, 2, 3],
    "train.learning_rate": 0.1,
    "train.batch_size": 100,
    "train.epochs": 100,
    "train.validate_every": 20,
    "train.mu": 0.0,
    "train.eta": 0.001,
    "train.negatives_per_positive": 10,
    "train.bound": 1.0,
    "train.dim": 64,
    "train.seed": 0,
}

# The echo of the README's complete configuration.
README_ECHO = {
    **DEFAULT_ECHO,
    "train_path": "data/train.txt",
    "valid_path": "data/valid.txt",
    "test_path": "data/test.txt",
    "rules_path": "data/rules.tsv",
    "fewshot_shots": [0, 1, 3, 5],
    "train.learning_rate": 0.2,
    "train.batch_size": 64,
    "train.mu": 1.0,
    "train.eta": 0.02,
    "train.negatives_per_positive": 1,
}


def resolved(echo):
    """``echo`` as ``resolved_config.json`` holds it."""
    return json.dumps(echo, indent=2, sort_keys=True)


def test_default_echo_is_pinned():
    echo = RunConfig().echo()
    assert list(echo) == list(DEFAULT_ECHO)
    assert resolved(echo) == resolved(DEFAULT_ECHO)


def test_readme_configuration_echo_is_pinned(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A complete configuration", 1)[1].split("```ini\n", 1)[1]
    path = tmp_path / "run.ini"
    path.write_text(block.split("```", 1)[0], encoding="utf-8")
    echo = load_run_config(path).echo()
    assert list(echo) == list(README_ECHO)
    assert resolved(echo) == resolved(README_ECHO)


def test_settings_keep_the_order_errors_list():
    assert {section: list(casts) for section, casts in SETTINGS.items()} == {
        "paths": ["train", "valid", "test", "rules", "output_dir"],
        "train": [
            "learning_rate", "batch_size", "epochs", "validate_every", "mu", "eta",
            "negatives_per_positive", "bound", "dim", "seed",
        ],
        "eval": ["side", "hits", "split"],
        "fewshot": ["num_task_relations", "shots", "seed", "candidates"],
        "verify": ["trials", "seed", "dims", "ks"],
    }
