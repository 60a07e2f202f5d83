"""Smoke test of the benchmark at tiny size: names, checks, exact counts.

Runs perfbench/run.py for one second (six passes) per run; takes about 45 s.
Timings are not asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("discrimination.verdict_calls", "boundary.verdicts_per_sweep",
                "evolution.steps", "evolution.samples", "evolution.output_bytes")


def bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(workload, trace):
    """(metrics, detail) of one run, after checking the result line's shape."""
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    assert lines[-2].startswith("perfbench detail ")
    return out["metrics"], json.loads(lines[-2][len("perfbench detail "):])


def test_listed_workloads_exist():
    import workloads
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["boundary-scan", "evolve-long", "trajectory-dense"])
def test_end_to_end_metrics_match_benchmark_json(workload):
    metrics, _ = result(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", ["boundary-scan", "evolve-long", "trajectory-dense"])
def test_traced_metrics_match_and_counts_repeat(workload):
    (first, detail), (second, _) = result(workload, 1), result(workload, 1)
    assert {k: v["unit"] for k, v in first.items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert detail["counts_identical_across_passes"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    counted = ("discrimination.verdict_calls" if workload == "boundary-scan"
               else "evolution.steps")
    assert first[counted]["value"] > 0
    if workload == "evolve-long":
        # Each problem is one evolve call, which builds a DensityMatrix per
        # recorded sample after the first.  The checks of the H = 0 problems
        # build more through analytic_isolated; they must not count.
        assert first["states.density_matrix_constructs"]["value"] == \
            first["evolution.samples"]["value"] - detail["problems"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("boundary-scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
