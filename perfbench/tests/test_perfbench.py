"""Smoke tests of the benchmark harness, at seconds-scale input sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_generators_depend_only_on_the_seed():
    sizes = dict(stories=2, scenes=10, persons=4, objects=5, places=3,
                 planted_duplicates=1)
    assert gen.scene_graph(3, **sizes) == gen.scene_graph(3, **sizes)
    assert gen.scene_graph(3, **sizes) != gen.scene_graph(4, **sizes)
    assert gen.deep_graph(3, 200, 40, 6) == gen.deep_graph(3, 200, 40, 6)
    assert gen.deep_graph(3, 200, 40, 6)["max_depth"] == 5


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    if not trace:
        return
    stem = BENCH / "results" / f"{workload}-seed7-trace1"
    runs = json.loads(stem.with_suffix(".trace.json").read_text())["runs"]
    for run in runs:
        # Layer self times, probes and cli.self_s account for the traced
        # wall time, up to the gaps between CLI calls.
        accounted = sum(spans.layer_self_times(run).values())
        assert accounted == pytest.approx(run["wall_s"], abs=0.01)
        assert all(s["run"] == run["run"] for s in run["spans"])


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "kgrc-train", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
