"""Self-test of the benchmark: tiny inputs, every metric, no wrapper left.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_reports_every_metric(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))


def test_fails_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in SPEC["paths"]:
        dest = tmp_path / path
        dest.mkdir(parents=True)
        for f in (ROOT / path).glob("*.py"):
            (dest / f.name).write_text(f.read_text())
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_tracing_leaves_no_wrapper_installed():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import importlib

    import pipeline
    from tracer import Tracer

    def current():
        out = {}
        for target, _, _ in pipeline.TRACE_TARGETS:
            module, attr = target.rsplit(".", 1)
            out[target] = getattr(importlib.import_module(module), attr, None)
        return out

    before = current()
    targets = pipeline.TRACE_TARGETS + [("hornplex.training.no_such_function", "gone", None)]
    with Tracer().install(targets) as tracer:
        assert all(current()[t] is not before[t] for t in before)
        assert tracer.absent == ["hornplex.training.no_such_function"]
        with pytest.raises(ValueError):
            importlib.import_module("hornplex.evaluation").evaluate(None, None, [])
    assert current() == before
    assert [span[0] for span in tracer.spans] == ["evaluation.evaluate"]
