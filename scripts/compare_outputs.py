"""Check that a revision and the working tree write byte-identical artifacts.

    python3 scripts/compare_outputs.py REV

Run from the root of a checkout. ``bench/gen.py`` writes the inputs of the
planted-small, planted-20k and rules-500 workloads (seed 1) once. For each
workload and each relation bound, 1.0 and 1.3, ``hornplex train``, ``eval``
and ``diagnostics`` then run twice (and ``rules confidence``, which reads no
bound, once per input, in the case of the first bound): in the committed
files of ``REV``, exported with ``git archive`` into a temporary directory,
and in the working tree. Both runs work in the same relative directory,
``.compare_work/``, so the paths that the artifacts embed agree. Every file
either run wrote (checkpoint, training log, metrics, both diagnostics CSVs,
embedding CSVs, grounded rule confidences, dictionaries, resolved config)
is then compared byte for byte, and one line per file says ``same`` or
``DIFFERS`` (or ``MISSING`` on one side). The report ends with one line per
artifact name: on how many of the runs that wrote it the file DIFFERS or is
MISSING; then one line per input: whether every file of its runs, at both
bounds, is the same, so a declared change of output bytes shows its reach.
The exit status is 1 if any file is not the same.

A fourth input, rules-1200, is the rules-500 graph with 1,200 seeded
random rules of body length 1-4, written with ``rules.write_rules``: more
rules than one chunk of the rule diagnostics (512 at d=64) and several
slices of each length group in the rule penalty. A fifth, rules-1200-d16,
runs the same files at d=16, where the penalty's arena holds 12,288 rows
of d elements instead of 3,072, four times the rules a slice, so the check
covers a packing cut for a second dimension. A sixth, planted-small-b1024, trains on the
planted-small files in batches of 1,024 positives with 10 negatives each:
11,264 triples a step, so relation rows get thousands of gradient terms
each, and the gradient merge adds rows far longer than the other inputs
make. A seventh,
planted-small-mu0, trains on the planted-small files with mu = 0: ``train``
then packs no rules, and relation rows get only logistic and N3 terms.

Training is short (mu=1, eta=0.02, seed 1, d=64 and batches of 64
positives with 1 negative each unless stated; ``INPUTS`` lists each
input's settings): 20 epochs on planted-small and planted-small-mu0, 3 on
rules-500, rules-1200 and rules-1200-d16, 1 on planted-20k and 10 on
planted-small-b1024.
"""

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from bench_pairs import export

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from hornplex.kg import load_graph  # noqa: E402
from hornplex.rules import HornRule, write_rules  # noqa: E402

WORK = ".compare_work"


@dataclass(frozen=True)
class Input:
    """The ``bench/gen.py`` workload whose files an input takes, the count
    of seeded random rules that replace its rules (0: none), and its
    training settings."""

    source: str
    epochs: int
    rules: int = 0
    batch_size: int = 64
    negatives: int = 1
    mu: float = 1.0
    dim: int = 64


INPUTS = {
    "planted-small": Input("planted-small", 20),
    "rules-500": Input("rules-500", 3),
    "rules-1200": Input("rules-500", 3, rules=1200),
    "rules-1200-d16": Input("rules-500", 3, rules=1200, dim=16),
    "planted-20k": Input("planted-20k", 1),
    "planted-small-b1024": Input("planted-small", 10, batch_size=1024, negatives=10),
    "planted-small-mu0": Input("planted-small", 20, mu=0.0),
}
BOUNDS = (1.0, 1.3)
CONFIG = """[paths]
train = {data}/train.tsv
valid = {data}/valid.tsv
test = {data}/test.tsv
rules = {data}/rules.tsv
output_dir = {out}

[train]
learning_rate = 0.2
batch_size = {batch_size}
epochs = {epochs}
validate_every = 1
mu = {mu}
eta = 0.02
negatives_per_positive = {negatives}
bound = {bound}
dim = {dim}
seed = 1

[eval]
split = test
"""


def hornplex(tree, config, *args):
    """``hornplex --config config *args`` run from ``tree`` on its own sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run(
        [sys.executable, "-m", "hornplex", "--config", config, *args],
        cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL,
    )


def write_random_rules(data, count):
    """Replace ``data``'s rule file by ``count`` seeded random rules over
    its graph's relations, with bodies of 1-4 relations."""
    kg = load_graph(data / "train.tsv", data / "valid.tsv", data / "test.tsv")
    rng = np.random.default_rng(count)
    m = kg.num_relations
    rules = [
        HornRule(
            body=tuple(rng.integers(0, m, rng.integers(1, 5)).tolist()),
            head=int(rng.integers(m)),
            confidence=int(rng.integers(1, 11)) / 10,
        )
        for _ in range(count)
    ]
    write_rules(data / "rules.tsv", rules, kg.relation_names)


def run_case(tree, workload, bound, ground):
    """Train, evaluate and diagnose one case in ``tree``, and ground its
    rules' confidences if ``ground``; its output folder."""
    case = f"{WORK}/{workload}-{bound}"
    out = f"{case}/out"
    shutil.rmtree(tree / case, ignore_errors=True)
    (tree / case).mkdir(parents=True)
    config = f"{case}/run.ini"
    settings = INPUTS[workload]
    (tree / config).write_text(
        CONFIG.format(
            data=f"{WORK}/{workload}", out=out, epochs=settings.epochs, bound=bound,
            batch_size=settings.batch_size, negatives=settings.negatives, mu=settings.mu,
            dim=settings.dim,
        ),
        encoding="utf-8",
    )
    hornplex(tree, config, "train")
    hornplex(tree, config, "eval", "--checkpoint", f"{out}/checkpoint.bin")
    hornplex(tree, config, "diagnostics", "--checkpoint", f"{out}/checkpoint.bin")
    if ground:
        hornplex(tree, config, "rules", "confidence")
    return tree / out


def compare(old, new):
    """(relative name, verdict) for each file in either folder."""
    names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
    for name in names:
        if not (old / name).exists() or not (new / name).exists():
            yield name, "MISSING"
        else:
            same = filecmp.cmp(old / name, new / name, shallow=False)
            yield name, "same" if same else "DIFFERS"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare the working tree with")
    args = parser.parse_args(argv)
    tally, inputs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        old_tree = export(args.rev, tmp)
        for workload, settings in INPUTS.items():
            data = ROOT / WORK / workload
            shutil.rmtree(data, ignore_errors=True)
            data.mkdir(parents=True)
            subprocess.run(
                [sys.executable, "bench/gen.py", "--workload", settings.source, "--seed", "1",
                 "--out", str(data)],
                cwd=ROOT, check=True,
            )
            if settings.rules:
                write_random_rules(data, settings.rules)
            shutil.copytree(data, old_tree / WORK / workload)
            for bound in BOUNDS:
                ground = bound == BOUNDS[0]
                old = run_case(old_tree, workload, bound, ground)
                new = run_case(ROOT, workload, bound, ground)
                for name, verdict in compare(old, new):
                    tally.setdefault(name, Counter())[verdict] += 1
                    inputs.setdefault(workload, Counter())[verdict] += 1
                    print(f"{workload} bound={bound} {name}: {verdict}", flush=True)
    for name, verdicts in sorted(tally.items()):
        print(
            f"{name}: DIFFERS on {verdicts['DIFFERS']}, MISSING on {verdicts['MISSING']} "
            f"of {verdicts.total()} runs"
        )
    for workload, verdicts in inputs.items():
        same = verdicts["same"] == verdicts.total()
        print(f"{workload}: {'all same' if same else 'not all same'} ({verdicts['same']} of "
              f"{verdicts.total()} files)")
    differ = sum(v["DIFFERS"] + v["MISSING"] for v in tally.values())
    print(f"{differ} file(s) not the same" if differ else "every file is the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
