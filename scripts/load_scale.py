"""Time ``hornplex.kg.load_graph`` on a large random triple file.

    python3 scripts/load_scale.py [--lines 1000000] [--entities 200000] \
        [--relations 50] [--seed 0] [--runs 1]

Run from anywhere; it loads the ``hornplex`` of this checkout's ``src``.
It writes a seeded random TSV to a temporary directory: each line a head,
a relation and a tail drawn uniformly from ``--entities`` entity names
``e<i>`` and ``--relations`` relation names ``r<i>``. Each run then loads
it as the train split with ``load_graph`` in a fresh Python process and
prints the wall seconds of that call and the process's peak RSS
(``ru_maxrss``, in MB of 1024 KiB, as ``bench/run.py`` reports
``peak_rss_mb``). With more than one run it also prints the medians.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD = """
import resource, sys, time
from hornplex.kg import load_graph
start = time.perf_counter()
kg = load_graph(sys.argv[1])
seconds = time.perf_counter() - start
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, len(kg.train))
"""


def write_tsv(path, lines, entities, relations, seed):
    """``lines`` uniform random triples, written a million lines at a time."""
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as handle:
        for lo in range(0, lines, 1_000_000):
            count = min(lines - lo, 1_000_000)
            h, t = rng.integers(0, entities, (2, count)).tolist()
            r = rng.integers(0, relations, count).tolist()
            handle.writelines(f"e{a}\tr{b}\te{c}\n" for a, b, c in zip(h, r, t))


def load_once(path):
    """(seconds, peak RSS in MB, rows) of ``load_graph(path)`` in a fresh process."""
    path_list = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_list)))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, path], env=env, capture_output=True, text=True, check=True
    )
    seconds, rss, rows = out.stdout.split()
    return float(seconds), float(rss), int(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", type=int, default=1_000_000)
    parser.add_argument("--entities", type=int, default=200_000)
    parser.add_argument("--relations", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    for name in ("lines", "entities", "relations", "runs"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.tsv")
        write_tsv(path, args.lines, args.entities, args.relations, args.seed)
        results = []
        for run in range(args.runs):
            seconds, rss, rows = load_once(path)
            if rows != args.lines:
                raise SystemExit(f"load_graph read {rows} rows of {args.lines}")
            print(f"run {run}: load_graph {seconds:.3f} s, peak RSS {rss:.1f} MB", flush=True)
            results.append((seconds, rss))
    if args.runs > 1:
        seconds, rss = (statistics.median(column) for column in zip(*results))
        print(f"median of {args.runs}: load_graph {seconds:.3f} s, peak RSS {rss:.1f} MB")


if __name__ == "__main__":
    main()
