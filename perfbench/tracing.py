"""Spans around the calls into each collapsim layer, for the traced run.

Spans are recorded from the benchmark's side only: `Tracer.install`
replaces public functions with timing wrappers in every module namespace
they are looked up from at call time (for example `evolve` is bound in
`evolution`, `boundary` and `cli`, and the verdict functions are called as
`disc.<name>`).  A name that a later version of collapsim no longer binds is
skipped, and its metrics then read 0.  The untraced run installs nothing.

Each span is (name, start, end, parent span, problem id, info).  Spans stay
in memory; `summarize` reduces them to totals when the pass ends.  A
span's self time is its duration minus the durations of its direct
children, which never overlap because the load is single-threaded.
"""

from __future__ import annotations

import time

# span name -> [(module, attribute)] where the function is looked up.
SITES = {
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
    "units.parse_quantity": [("cli", "parse_quantity"), ("units", "parse_quantity")],
    "discrimination.verdict": [("discrimination", f) for f in (
        "trapped_tau", "free_flight_tau", "oscillator_verdict", "photon_tau", "rabi_tau")],
    "boundary.sweep": [("boundary", "sweep"), ("cli", "sweep")],
    "boundary.curve_to_csv": [("cli", "curve_to_csv")],
    "evolution.evolve": [("evolution", "evolve"), ("boundary", "evolve"), ("cli", "evolve")],
    "evolution.to_csv": [("evolution", "trajectory_to_csv"), ("cli", "trajectory_to_csv")],
    "evolution.to_json": [("evolution", "trajectory_to_json"), ("cli", "trajectory_to_json")],
    "states.density_matrix": [("evolution", "DensityMatrix")],
    "states.validate": [("evolution", "validate")],
}


def _evolve_info(args, kwargs, traj) -> dict:
    """Steps, samples and problem shape of one evolve call.

    Steps come from the recorded times, so no private hook is needed:
    samples sit every record_stride steps and the last one on the last
    step.
    """
    H, cfg = args[1], args[3] if len(args) > 3 else kwargs["cfg"]
    times = traj.times
    stride = cfg.record_stride
    if cfg.dt is not None:
        dt = cfg.dt.value
    elif len(times) > 2:
        dt = float(times[1]) / stride
    else:
        dt = float(times[-1])
    return {"steps": round(float(times[-1]) / dt), "samples": len(times),
            "n": H.elements.shape[0], "unitary": bool(H.elements.any()),
            "method": cfg.method.value}


ANNOTATE = {
    "evolution.evolve": _evolve_info,
    "boundary.sweep": lambda args, kwargs, report: {"rows": len(report.rows)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.problem = -1
        self._stack: list[int] = []

    def install(self, lib) -> None:
        for name, sites in SITES.items():
            for module, attr in sites:
                mod = getattr(lib, module)
                fn = getattr(mod, attr, None)
                if fn is not None:
                    setattr(mod, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stack, annotate = self.spans, self._stack, ANNOTATE.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.problem, None)
            if annotate is not None:
                spans[index] = spans[index][:5] + (annotate(args, kwargs, result),)
            return result

        return traced


def summarize(spans: list) -> dict:
    """Calls and self time per span name, plus the work counts, of one pass."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = {}, {}
    steps = samples = flops = nbytes = sweep_verdicts = sweep_rows = 0
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        if name == "discrimination.verdict":
            p = parent
            while p >= 0 and spans[p][0] != "boundary.sweep":
                p = spans[p][3]
            sweep_verdicts += p >= 0
        elif info is None:    # no annotation, or the call raised
            continue
        elif name == "evolution.evolve":
            steps += info["steps"]
            samples += info["samples"]
            f, b = step_cost(info["n"], info["unitary"], info["method"])
            flops += f * info["steps"]
            nbytes += b * info["steps"]
        elif name == "boundary.sweep":
            sweep_rows += info["rows"]
    return {"calls": calls, "self_s": self_s, "steps": steps, "samples": samples,
            "flops": flops, "bytes": nbytes, "sweep_verdicts": sweep_verdicts,
            "sweep_rows": sweep_rows}


def step_cost(n: int, unitary: bool, method: str) -> tuple[int, int]:
    """Floating-point operations and bytes of one integrator step, computed
    from the numpy expressions `evolve` writes, not measured.

    Counts: complex n x n matmul 8 n^3 flops; per element, complex add 2,
    complex product 6, real-by-complex product 2.  Bytes: every array an
    expression reads or writes, 16 per complex and 8 per real element.
    """
    n2 = n * n
    if unitary:
        # -1j * (h @ y - y @ h) - damping * y
        rhs_flops, rhs_bytes = 16 * n2 * n + 12 * n2, 16 * 16 * n2 + 8 * n2
    else:
        # -damping * y
        rhs_flops, rhs_bytes = 3 * n2, 2 * 16 * n2 + 3 * 8 * n2
    finite_check = 16 * n2 + 4 * n2   # isfinite over the float view, then all()
    if method == "euler":
        return rhs_flops + 4 * n2, rhs_bytes + 5 * 16 * n2 + finite_check
    # three stage arguments y + c*k, then the weighted sum of four slopes
    return 4 * rhs_flops + 26 * n2, 4 * rhs_bytes + 33 * 16 * n2 + finite_check


# Per-layer metrics of the traced run: (name, unit, better, prediction).
# The prediction names the end-to-end metric the layer metric should move,
# on which workload, and where no change is expected.
LAYER_METRICS = [
    ("cli.build_parser_ms", "ms", "lower",
     "latency_p50_ms on boundary-scan (~3.5 ms of a ~5 ms warm boundary call); no change on evolve-long"),
    ("cli.main_ms", "ms", "lower",
     "latency_p50_ms on boundary-scan (self time: argparse, formatting); no change on evolve-long"),
    ("cli.calls", "count", "lower",
     "count of cli.main calls; fixed by the workload mix"),
    ("units.parse_quantity_us", "us", "lower",
     "latency_p50_ms on boundary-scan through the CLI half; no change on evolve-long"),
    ("units.parse_quantity_calls", "count", "lower",
     "latency_p50_ms on boundary-scan; no change on evolve-long"),
    ("discrimination.verdict_us", "us", "lower",
     "problems_per_s on boundary-scan only (self time per verdict call)"),
    ("discrimination.verdict_calls", "count", "lower",
     "problems_per_s on boundary-scan only"),
    ("boundary.sweep_ms", "ms", "lower",
     "problems_per_s on boundary-scan (self time: grid, spec building, bisection loop)"),
    ("boundary.verdicts_per_sweep", "count", "lower",
     "problems_per_s on boundary-scan; a 31-point sweep makes 53 verdict calls at the seed"),
    ("boundary.bisection_verdicts", "count", "lower",
     "problems_per_s on boundary-scan (verdict calls per sweep beyond the grid points)"),
    ("boundary.curve_to_csv_ms", "ms", "lower",
     "problems_per_s on trajectory-dense (CLI curve CSV); no change on evolve-long"),
    ("evolution.evolve_ms", "ms", "lower",
     "problems_per_s and latency on evolve-long; partly trajectory-dense; no change on boundary-scan"),
    ("evolution.steps", "count", "lower",
     "problems_per_s on evolve-long, where stepping dominates; no change on boundary-scan"),
    ("evolution.step_us", "us", "lower",
     "problems_per_s and latency on evolve-long (~40-63 us/step at the seed); no change on boundary-scan"),
    ("evolution.samples", "count", "lower",
     "problems_per_s on trajectory-dense; almost none on evolve-long"),
    ("evolution.to_csv_ms", "ms", "lower",
     "problems_per_s on trajectory-dense; no change on evolve-long"),
    ("evolution.to_json_ms", "ms", "lower",
     "problems_per_s on trajectory-dense; no change on evolve-long"),
    ("evolution.output_bytes", "B", "lower",
     "problems_per_s on trajectory-dense; no change on evolve-long"),
    ("states.density_matrix_us", "us", "lower",
     "problems_per_s on trajectory-dense (one DensityMatrix per sample); no change on evolve-long"),
    ("states.density_matrix_constructs", "count", "lower",
     "problems_per_s and peak_rss_mb on trajectory-dense; no change on evolve-long"),
    ("states.validate_us", "us", "lower",
     "problems_per_s on trajectory-dense; no change on evolve-long"),
    ("evolution.flops_computed", "flop", "lower",
     "computed per step from n and method: with step_us, shows Python overhead against arithmetic on evolve-long"),
    ("evolution.bytes_computed", "B", "lower",
     "computed per step from n and method: bytes the step's arrays read and write, on evolve-long"),
    ("trace.problems_per_s", "1/s", "higher",
     "problems_per_s of the traced passes"),
    ("trace.untraced_problems_per_s", "1/s", "higher",
     "problems_per_s of the untraced passes run alongside them"),
    ("trace.overhead_pct", "%", "lower",
     "tracing overhead: untraced over traced problems_per_s, minus one"),
]


def layer_metrics(parts: list[dict], traced_pps: float, untraced_pps: float) -> dict:
    """LAYER_METRICS values from the summaries of the traced passes.

    Every pass runs the whole pool, so counts come from one pass and repeat
    exactly; times are totals over all traced passes, each scaled by its
    pass's `time_scale` to the reference host speed.
    """
    calls, self_s = {}, {}
    for part in parts:
        for name, value in part["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in part["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value * part["time_scale"]
    one = parts[0]

    def per_call(name, scale):
        return self_s[name] / calls[name] * scale if calls.get(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    sweeps = one["calls"].get("boundary.sweep", 0)
    steps_all = sum(part["steps"] for part in parts)
    return {
        "cli.build_parser_ms": per_call("cli.build_parser", 1e3),
        "cli.main_ms": per_call("cli.main", 1e3),
        "cli.calls": one["calls"].get("cli.main", 0),
        "units.parse_quantity_us": per_call("units.parse_quantity", 1e6),
        "units.parse_quantity_calls": one["calls"].get("units.parse_quantity", 0),
        "discrimination.verdict_us": per_call("discrimination.verdict", 1e6),
        "discrimination.verdict_calls": one["calls"].get("discrimination.verdict", 0),
        "boundary.sweep_ms": per_call("boundary.sweep", 1e3),
        "boundary.verdicts_per_sweep": ratio(one["sweep_verdicts"], sweeps),
        "boundary.bisection_verdicts": ratio(one["sweep_verdicts"] - one["sweep_rows"], sweeps),
        "boundary.curve_to_csv_ms": per_call("boundary.curve_to_csv", 1e3),
        "evolution.evolve_ms": per_call("evolution.evolve", 1e3),
        "evolution.steps": one["steps"],
        "evolution.step_us": ratio(self_s.get("evolution.evolve", 0.0) * 1e6, steps_all),
        "evolution.samples": one["samples"],
        "evolution.to_csv_ms": per_call("evolution.to_csv", 1e3),
        "evolution.to_json_ms": per_call("evolution.to_json", 1e3),
        "evolution.output_bytes": one["output_bytes"],
        "states.density_matrix_us": per_call("states.density_matrix", 1e6),
        "states.density_matrix_constructs": one["calls"].get("states.density_matrix", 0),
        "states.validate_us": per_call("states.validate", 1e6),
        "evolution.flops_computed": ratio(one["flops"], one["steps"]),
        "evolution.bytes_computed": ratio(one["bytes"], one["steps"]),
        "trace.problems_per_s": traced_pps,
        "trace.untraced_problems_per_s": untraced_pps,
        "trace.overhead_pct": ratio(untraced_pps, traced_pps) * 100.0 - 100.0 if traced_pps else 0.0,
    }


def counts(part: dict) -> dict:
    """The exact work counts of one pass, for comparing passes and runs."""
    return {key: part[key] for key in ("calls", "steps", "samples", "flops", "bytes",
                                       "sweep_verdicts", "sweep_rows", "output_bytes")}
