"""collapsim benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload boundary-scan --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; collapsim is imported from its src/.  The
seed makes one pool of problems.  The run is a series of passes, each a
fresh interpreter (worker.py) that sets up and then runs the whole pool
once, one problem at a time (one closed-loop client, single-threaded),
until --seconds are used, and at least MIN_PASSES times.  The timing
metrics are taken over every execution of the untraced passes: throughput
is executions over their summed latency, which is the wall time of a
closed-loop client without think time.  Set-up is timed at every cold
start, so it is spread through the run rather than taken in one block.

The host's speed changes by up to 1.7x for seconds to minutes at a time.
So after each problem the worker times a fixed probe kernel, and every
time is scaled to a reference host speed by the probes around it; the
unscaled figures are in the detail line.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, from passes that alternate
traced and untraced so the tracing overhead is measured.  Lines before it
record the environment and details.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Tail percentile: the highest of these with at least ten samples beyond it.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)
# Every run makes at least this many passes, so it has at least this many
# executions of each problem, whatever the host's speed.
MIN_PASSES = 6
# Times are scaled to a host on which worker.probe takes PROBE_REF_S (about
# the fast state of the host that defined the bounds), using the median
# probe time of the executions within PROBE_WINDOW of each one.
PROBE_REF_S = 2.0e-4
PROBE_WINDOW = 1
# Single-threaded numerics in the measured process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120.0


def run_pass(job: dict) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its result)."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=env, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"pass {job['pass']} exited {proc.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def tail(latencies: list[float], fewest: int) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) by nearest rank.

    The percentile is the highest of TAIL_LADDER that leaves ten samples
    beyond it in `fewest` samples, the fewest a run can have, so that it
    does not change with the host's speed.
    """
    pct = 100.0
    for p in TAIL_LADDER:
        if fewest - math.ceil(p / 100.0 * fewest) >= 10:
            pct = p
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return pct, ordered[rank - 1], len(ordered) - rank


def host_factors(probes: list[float]) -> list[float]:
    """Per execution of a pass: PROBE_REF_S over the median probe time of
    the executions within PROBE_WINDOW of it."""
    return [PROBE_REF_S / statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i in range(len(probes))]


def git_commit() -> str:
    """HEAD of the checkout, or unknown when ROOT is not a git work tree's top."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    out = proc.stdout.split()
    if proc.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return out[1]


def environment(seed: int, collapsim_file: str) -> dict:
    import numpy
    import scipy
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"machine": f"{platform.machine()} {model}".strip(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": THREAD_ENV, "git_commit": git_commit(), "seed": seed,
            "collapsim_file": collapsim_file}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "collapsim" / "__init__.py").is_file():
        print(f"error: no collapsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    workload = workloads.WORKLOADS[args.workload]
    specs = workloads.pool(workload, args.seed, args.seconds)
    size = len(specs)
    passes = []
    started, longest = time.perf_counter(), 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - started + longest <= args.seconds:
        n = len(passes)
        # Rotate the starting problem so that no problem always runs first
        # after the cold start.
        job = {"root": str(ROOT), "workload": workload.name, "seed": args.seed,
               "seconds": args.seconds, "pass": n, "offset": n * (size // 8 + 1) % size,
               "traced": bool(args.trace) and n % 2 == 0}
        begin = time.perf_counter()
        setup, result = run_pass(job)
        longest = max(longest, time.perf_counter() - begin)
        passes.append((job, setup, result))

    failures = [f for _, _, r in passes for f in r["failures"]]
    attempted = size * len(passes)
    if workload.name == "evolve-long":
        for job, _, result in passes:
            for final in result["finals"]:
                problem = workloads.check_final(specs[final[0]], final[1:])
                if problem:
                    failures.append(f"pass {job['pass']} problem {final[0]}: {problem}")
    failed = len(failures)

    for _, _, r in passes:
        r["factors"] = host_factors(r["probes"])

    def executions(group):
        """Every latency the passes in group measured, scaled to the
        reference host speed."""
        return [x * f for _, _, r in group for x, f in zip(r["latencies"], r["factors"])]

    untraced = [p for p in passes if not p[0]["traced"]]
    every = executions(untraced)
    pct, tail_s, beyond = tail(every, size * (MIN_PASSES // 2 if args.trace else MIN_PASSES))
    # Set-up is scaled by the factor of the first execution after it.
    setups = [s * r["factors"][0] for _, s, r in passes]
    raw = [x for _, _, r in untraced for x in r["latencies"]]
    detail = {"workload": workload.name, "problems": size, "passes": len(passes),
              "executions": len(every), "tail_percentile": pct, "samples_beyond_tail": beyond,
              "probe_median_us": statistics.median(
                  x for _, _, r in passes for x in r["probes"]) * 1e6,
              "unscaled": {"problems_per_s": len(raw) / sum(raw),
                           "latency_p50_ms": statistics.median(raw) * 1e3,
                           "setup_s": statistics.median(s for _, s, _ in passes)},
              "setup_s_each": [round(s, 4) for s in setups],
              "failures": failures[:20]}
    print("perfbench env " + json.dumps(environment(args.seed, passes[0][2]["collapsim_file"])))
    if args.trace:
        import tracing
        traced = [p for p in passes if p[0]["traced"]]
        parts = [dict(r["layers"], time_scale=statistics.median(r["factors"]))
                 for _, _, r in traced]
        timed = executions(traced)
        values = tracing.layer_metrics(parts, len(timed) / sum(timed), len(every) / sum(every))
        detail["counts_identical_across_passes"] = all(
            tracing.counts(part) == tracing.counts(parts[0]) for part in parts)
        detail["predictions"] = {name: moves for name, _, _, moves in tracing.LAYER_METRICS}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in tracing.LAYER_METRICS}
    else:
        metrics = {
            "problems_per_s": (len(every) / sum(every), "1/s"),
            "latency_p50_ms": (statistics.median(every) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(r["peak_rss_kb"] for _, _, r in passes) / 1024.0, "MB"),
            "success_fraction": ((attempted - failed) / attempted, "ratio"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print("perfbench detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
