"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py --label eval_blocks --workload planted-20k \
        --pairs 10 --seconds 30 [--workload ...] [--parent HEAD] [--seed 1000]

Run from the root of a checkout. The parent's committed files (``--parent``,
default ``HEAD``: the commit the working tree changes) are exported with
``git archive`` into a temporary directory. Per workload, each side first
makes one warm-up run whose numbers are not recorded: the first run after
the machine has idled can read far off (planted-small evaluation once read
1.4k queries/s instead of ~90k). Pair i then runs ``bench/run.py``
with seed ``--seed`` + i once there and once in the working tree, the
parent first in even pairs and the change first in odd ones. The summary
goes to ``BENCH_<label>.json``: the git shas, the numpy version, ``nproc``,
and per workload and metric every run's value, each side's median and
quartiles, and the pairs the change won (ties count for neither side), as
the metric's ``better`` direction in ``BENCHMARK.json`` defines winning.

``test_mrr`` is recorded and summarised the same way (higher wins), but
``BENCHMARK.json`` gates no bound on it. Training length is fixed by the
seed and ``--seconds``, so it is the same on both sides of every pair
while a change keeps the trained bits. A change that alters them, such
as a new rounding of a loss term, may move it either way within a pair.
"""

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev, dest):
    """The committed files of ``rev``, unpacked under ``dest``."""
    archive = Path(dest) / "parent.tar"
    with open(archive, "wb") as handle:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=handle, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(Path(dest) / "tree", filter="data")
    archive.unlink()
    return Path(dest) / "tree"


def bench(root, workload, seed, seconds):
    """One untraced run: the result line's metrics, the ungated metrics and
    whether the run was correct with no failed operation."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=20 * seconds + 600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {root}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        fields = line.split()
        if line.endswith("(ungated)") and fields[0] == "metric":
            metrics[fields[1]] = float(fields[2])
    return metrics, result["correct"] and result["failed"] == 0


def summary(parent, change, better):
    """Median and quartiles of each side, and the pairs the change won."""
    def stats(values):
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        return {"runs": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}

    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out = {"better": better, "parent": stats(parent), "change": stats(change), "wins": int(wins)}
    if out["parent"]["median"]:
        out["change_over_parent"] = out["change"]["median"] / out["parent"]["median"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["test_mrr"] = "higher"
    report = {
        "label": args.label,
        "parent_sha": git("rev-parse", args.parent),
        "change_head_sha": git("rev-parse", "HEAD"),
        "change_uncommitted": bool(git("status", "--porcelain", "--untracked-files=no")),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = export(args.parent, tmp)
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            correct = True
            for root in (parent_root, ROOT):
                bench(root, workload, args.seed, args.seconds)  # warm-up, not recorded
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    root = parent_root if side == "parent" else ROOT
                    metrics, ok = bench(root, workload, args.seed + i, args.seconds)
                    runs[side].append(metrics)
                    correct &= ok
                    print(f"{workload} pair {i} {side}: " + " ".join(
                        f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
            report["workloads"][workload] = {
                "seeds": [args.seed + i for i in range(args.pairs)],
                "all_correct": correct,
                "metrics": {
                    name: summary(
                        [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]], direction
                    )
                    for name, direction in better.items()
                    if all(name in r for r in runs["parent"] + runs["change"])
                },
            }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
