"""One pass of a benchmark run, in a fresh interpreter.

Started by run.py with a JSON job as its only argument.  It imports
collapsim from the checkout's src/, builds the run's pool of inputs and
prints READY; the parent times set-up from process start to that line.
Then it runs every problem of the pool once, one at a time, starting at the
job's offset.  After each problem it times a fixed probe kernel and checks
the outcome, both untimed (a traced pass drops the check's spans).  It
prints one JSON result line, with latencies and probe times in execution
order.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import types
from pathlib import Path

import numpy as np

PROBE_MATRIX = np.full((4, 4), 0.25 + 0.1j)


def _probe_kernel() -> None:
    a = PROBE_MATRIX
    y = a
    for _ in range(20):
        y = y + 0.01 * (a @ y - y @ a)
        if not np.all(np.isfinite(y.view(np.float64))):
            raise ArithmeticError("probe overflowed")
    total = 0
    for i in range(400):
        total += i * i


def probe() -> float:
    """Seconds that a fixed kernel takes: the host's speed at this moment.

    The kernel does the kind of work collapsim does, small complex matrix
    products, a finiteness check and interpreted loops, so a slow host
    state slows it as it slows the problems around it.  It runs once
    untimed first: the first run after other work is slower by a varying
    amount, which depends on that work and not on the host.
    """
    _probe_kernel()
    start = time.perf_counter()
    _probe_kernel()
    return time.perf_counter() - start


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import collapsim
    from collapsim import (boundary, cli, discrimination, evolution, schemas,
                           states, units)

    import workloads
    if not Path(collapsim.__file__).resolve().is_relative_to(src.resolve()):
        print(f"collapsim imported from {collapsim.__file__}, not {src}", file=sys.stderr)
        return 3
    lib = types.SimpleNamespace(cli=cli, boundary=boundary, discrimination=discrimination,
                                evolution=evolution, states=states, units=units)
    workload = workloads.WORKLOADS[job["workload"]]
    specs = workloads.pool(workload, job["seed"], job["seconds"])
    built = [workload.build(lib, spec) for spec in specs]
    print("READY", flush=True)

    # Validators are built once, after set-up is timed: jsonschema is the
    # checks' cost, not collapsim's.
    import jsonschema
    validators = {name: jsonschema.Draft7Validator(schema) for name, schema in (
        ("verdict", schemas.VERDICT_SCHEMA), ("report", schemas.REPORT_SCHEMA),
        ("trajectory", schemas.TRAJECTORY_SCHEMA))}
    tracer = None
    if job["traced"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(lib)

    size = len(built)
    latencies, probes = [], []
    failures, finals = [], []
    output_bytes = 0
    clock = time.perf_counter
    # Keep the pool, the validators and the rest of the harness out of the
    # collector: otherwise each full collection scans them, and its pause
    # falls on whichever problem runs at that point of every pass.
    gc.collect()
    gc.freeze()
    for i in range(size):
        k = (job["offset"] + i) % size
        if tracer:
            tracer.problem = k
        start = clock()
        try:
            out = workload.run(lib, built[k])
            problem = None
        except Exception as exc:   # a failed problem, not a failed run
            problem = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        probes.append(probe())
        # The check may call wrapped functions; its spans are dropped.
        mark = len(tracer.spans) if tracer else 0
        if problem is None:
            try:
                problem, extra = workload.check(lib, specs[k], built[k], out, validators)
            except Exception as exc:
                problem, extra = f"output unreadable: {type(exc).__name__}: {exc}", {}
        if tracer:
            del tracer.spans[mark:]
        if problem is None:
            if "final" in extra:
                finals.append([k] + extra["final"])
            if tracer and "output_bytes" in extra:
                output_bytes += extra["output_bytes"]()
        else:
            failures.append(f"problem {k} ({specs[k].get('kind', workload.name)}): {problem}")

    result = {"latencies": latencies, "probes": probes, "failures": failures, "finals": finals,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "collapsim_file": collapsim.__file__}
    if tracer:
        result["layers"] = tracing.summarize(tracer.spans)
        result["layers"]["output_bytes"] = output_bytes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
