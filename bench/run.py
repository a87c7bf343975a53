"""hornplex benchmark: one workload, one seed, one process, closed loop.

    python3 bench/run.py --workload planted-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. ``gen.py`` first writes the workload's
seeded TSV inputs under ``.bench_work/``; then this process loads them and
runs train, evaluate, rule diagnostics and grounded confidence on them, and
checks the outputs. ``--trace 0`` gives each phase a share of ``--seconds``,
spread over the run in rounds, and prints the end-to-end metrics: medians over
the whole run, each sample scaled to the nominal machine speed read by the
calibration loops timed beside it (``calibrate.py``; the unscaled medians are
printed too, on ``raw`` lines). ``--trace 1`` runs the pipeline once
untraced and once with every hornplex layer wrapped from outside, checks the
two give bit-identical tables, and prints the per-layer metrics. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it repeat every metric with its
unit, the environment and, when tracing, the span table.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))
# Never run more BLAS threads than this process may use cores; numpy reads
# this once, when it is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(NPROC))


def git_sha():
    """Commit of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas():
    """(library, threads) of the BLAS numpy uses; None where unknown."""
    import ctypes

    import numpy as np

    info = getattr(np, "__config__", None)
    dep = getattr(info, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    name = " ".join(str(dep[k]) for k in ("name", "version") if k in dep) or None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, None


def environment(seed):
    import numpy as np

    library, threads = blas()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": library,
        "blas_threads": threads,
        "nproc": NPROC,
        "seed": seed,
    }


def main(argv=None):
    from workloads import WORKLOADS, tiny

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="seconds-long inputs, for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hornplex").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no hornplex sources (src/hornplex, tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import pipeline
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    # On SIGTERM, unwind: the generator is killed and awaited, inputs removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-{args.seed}-", dir=work_root) as work:
        subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", work] + (["--tiny"] if args.tiny else []),
            check=True, timeout=170,
        )
        facts = pipeline.distinct_facts(work)
        if args.trace:
            untraced = pipeline.run_pass(workload, work, args.seed, args.seconds, repeated=False)
            with Tracer().install(pipeline.TRACE_TARGETS) as tracer:
                p = pipeline.run_pass(workload, work, args.seed, args.seconds, repeated=False)
        else:
            p = pipeline.run_pass(workload, work, args.seed, args.seconds, repeated=True)

    attempted, failed, problems = pipeline.check(p, args.seed)
    if args.trace:
        if p.table is None or pipeline.table_bytes(p.table) != pipeline.table_bytes(untraced.table):
            problems.append("traced run's final table differs from the untraced run's")
        if p.entries is None or untraced.entries is None or p.mrr != untraced.mrr:
            problems.append("traced run's test MRR differs from the untraced run's")
        metrics = pipeline.layer_metrics(tracer, p, untraced, facts)
    else:
        metrics = pipeline.end_to_end_metrics(p)

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} epochs={p.epochs} tiny={args.tiny}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment(args.seed).items()))
    print(f"samples train_steps={len(p.step_s)} rounds={1 if args.trace else pipeline.ROUNDS} "
          + " ".join(f"{phase}_repeats={len(s)}" for phase, s in p.samples.items()))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    if not args.trace and p.entries is not None:
        for name, (value, unit) in pipeline.ungated_metrics(p).items():
            print(f"metric {name} {value:.6g} {unit} (ungated)")
        for phase, (seconds, alpha) in pipeline.raw_medians(p).items():
            print(f"raw {phase} {seconds:.6g} s/unit unscaled, alpha={alpha:.3f}")
        print(f"calibration loops={len(p.clock.refs)}")
    print(f"metric failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    if args.trace:
        print("spans name calls total_s self_s")
        for name, (calls, total, own) in tracer.summary().items():
            print(f"span {name} {calls} {total:.6f} {own:.6f}")
        for target in tracer.absent:
            print(f"absent {target}: reported as 0")
        for name in sorted(tracer.uncounted):
            print(f"uncounted {name}: its counts are reported as 0")
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
