"""Command-line interface.

Subcommands
    boundary <trapped|free-flight>   critical mass for the given geometry
    tau <scenario>                   discrimination verdict for one setup
    evolve                           two-level decay trajectory as CSV/JSON
    sweep <scenario>                 one-axis grid scan with flip bisection
    curve <scenario>                 visibility-decay curve for a verdict

The scenario is a positional argument; `collapsim tau --help` (and `sweep`,
`curve`) lists the flags each scenario takes.  Each scenario flag, its
help and its kind come from `boundary.PARAMETERS` and `COUNTS`: quantity
flags take '<number> <unit>' strings ('100 m/s', '10 um', '2.5 GeV/c2'), a
count takes an integer.  Exit codes: 0 success, 2 usage error (bad,
missing or unused flags, unknown units, invalid parameters, a derived
scale that underflows or overflows, a run that could overflow, an `--out`
path that cannot be written; one `error:` line on stderr), 1 a sweep
without a flip or with a non-monotone regime pattern.  Handlers only
parse, route and print; the library checks every input, `--theta` and
`evolve`'s rate and gap included.  Its errors name a bad value by its field
(`mean_velocity must be below c`), a missing or unused flag without `--`.
`evolve` and `curve` print a run one way: its health warnings as `warning:`
lines on stderr, then `evolution.trajectory_to_json_text` under `--json`,
else the command's CSV.  `boundary` and `sweep` print report/1 as
`boundary.report_to_json_text` writes it, and `tau` prints verdict/1 as
`json.dumps(indent=2)` does.  `boundary --unit` chooses the unit of its
text line only: report/1 gives masses in kg, so `--unit` with `--json` is
a usage error.
The argument parser is built once per process, on the first call to
`main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import discrimination as disc
from .boundary import (COUNTS, PARAMETERS, SCENARIOS, BoundaryReport,
                       Scenario, SweepError, SweepSpec, _row_values,
                       curve_to_csv, curve_trajectory, mass_boundary,
                       report_to_json_text, scenario_verdict, sweep)
from .evolution import (EvolutionConfig, Method, evolve, trajectory_to_csv,
                        trajectory_to_json_text, two_level_decay)
from .units import (MASS, UNITS, DimensionError, Quantity, UnitError,
                    format_quantity, parse_quantity, preferred_unit)

DEFAULT_MASS_UNIT = "GeV/c2"


def _quantity_arg(text: str) -> Quantity:
    try:
        return parse_quantity(text)
    except UnitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p: argparse.ArgumentParser) -> None:
    """Output flags, and the margin eta, of the commands built on a verdict."""
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", metavar="PATH", help="write output to PATH")
    p.add_argument("--eta", type=float, default=1.0, metavar="REAL",
                   help="margin for the trapped strong inequalities (>= 1)")


def _scenario_params(args) -> dict:
    """{name: Quantity} of the scenario flags that were given, a count
    wrapped as a dimensionless Quantity; boundary checks the map."""
    return {name: Quantity(value) if name in COUNTS else value
            for name in PARAMETERS
            if (value := getattr(args, name, None)) is not None}


def _dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _run_text(args, traj, to_csv) -> str:
    """A run's output: one `warning:` line on stderr per health warning,
    then trajectory/1 under --json, else to_csv(traj)."""
    for line in traj.warnings:
        print(f"warning: {line}", file=sys.stderr)
    return trajectory_to_json_text(traj) if args.json else to_csv(traj)


def _verdict_text(verdict: disc.DiscriminationVerdict) -> str:
    lines = []
    if verdict.is_infinite:
        lines.append("tau: infinite")
    else:
        lines.append(f"tau: {format_quantity(verdict.tau, 's')}")
    lines.append(f"regime: {verdict.regime.value}")
    lines.append(f"reason: {verdict.reason.value}")
    if verdict.derivation:
        lines.append("derivation:")
        for sym, q in verdict.derivation:
            lines.append(f"  {sym} = {q.value:.6g} {preferred_unit(q.dim)}")
    return "\n".join(lines) + "\n"


def _cmd_boundary(args) -> str:
    if args.json and args.unit is not None:
        raise ValueError("--unit does not apply to --json: report/1 gives "
                         "masses in kg")
    report = mass_boundary(args.scenario, args.v, args.D, args.theta, args.eta)
    if args.json:
        return report_to_json_text(report)
    mass = format_quantity(report.critical_value,
                           args.unit or DEFAULT_MASS_UNIT)
    return f"critical_mass: {mass}\n"


def _cmd_tau(args) -> str:
    verdict = scenario_verdict(args.scenario, _scenario_params(args), args.eta)
    if args.json:
        return _dump(verdict.to_json())
    return _verdict_text(verdict)


def _cmd_evolve(args) -> str:
    rho0, H, rates = two_level_decay(args.rate, args.gap)
    cfg = EvolutionConfig(t_end=args.t_end, dt=args.dt,
                          method=args.method,
                          record_stride=args.stride)
    return _run_text(args, evolve(rho0, H, rates, cfg), trajectory_to_csv)


def _cmd_sweep(args) -> str:
    spec = SweepSpec(Scenario(args.scenario), args.axis, args.min, args.max,
                     count=args.count, spacing=args.spacing,
                     fixed=_scenario_params(args), eta=args.eta)
    report = sweep(spec)
    if args.json:
        return report_to_json_text(report)
    return _report_text(report)


def _report_text(report: BoundaryReport) -> str:
    lines = [f"scenario: {report.scenario.value}  axis: {report.axis}"]
    for value, unit, tau, regime, _ in _row_values(report):
        tau = "infinite" if tau is None else f"{tau:.6g} s"
        lines.append(f"  {value:.6g} {unit}  tau={tau}  regime={regime}")
    if report.critical_value is None:
        lines.append("critical: none within grid")
    else:
        cv = report.critical_value
        lines.append(f"critical: {cv.value:.8g} {preferred_unit(cv.dim)}")
    return "\n".join(lines) + "\n"


def _cmd_curve(args) -> str:
    verdict = scenario_verdict(args.scenario, _scenario_params(args), args.eta)
    traj = curve_trajectory(verdict, args.t_end, dt=args.dt,
                            record_stride=args.stride)
    return _run_text(args, traj, curve_to_csv)


def _scenario_command(sub, command: str, summary: str, entries,
                      handler) -> argparse.ArgumentParser:
    """`command <scenario>` over the given SCENARIOS entries, taking the flags
    of them all, each with its PARAMETERS help and a count as an int; its
    help lists each scenario's own flags."""
    lines = ["scenario flags:"] + [
        " ".join([f"  {e.name}:"] + [f"--{n}" for n in e.params]
                 + [f"[--{n}]" for n in e.optional]) for e in entries]
    p = sub.add_parser(command, help=summary, epilog="\n".join(lines),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("scenario", choices=[e.name for e in entries])
    taken = {name for e in entries for name in e.inputs}
    for name in filter(taken.__contains__, PARAMETERS):
        p.add_argument(f"--{name}", help=PARAMETERS[name],
                       type=int if name in COUNTS else _quantity_arg)
    _add_common(p)
    p.set_defaults(handler=handler)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="collapsim",
        description="Pairwise spontaneous-collapse timescales, master-equation "
                    "trajectories, and quantum/classical boundary sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boundary", help="critical mass for a geometry")
    p.add_argument("scenario", choices=["trapped", "free-flight"])
    p.add_argument("--v", type=_quantity_arg, required=True, help="speed")
    p.add_argument("--D", type=_quantity_arg, required=True, help="separation")
    p.add_argument("--theta", type=float, default=None,
                   help="trajectory angle (free-flight)")
    _add_common(p)
    p.add_argument("--unit",
                   choices=[u for u, (_, dim) in UNITS.items() if dim == MASS],
                   help=f"mass unit of the text output (default "
                        f"{DEFAULT_MASS_UNIT}); --json gives kg")
    p.set_defaults(handler=_cmd_boundary)

    _scenario_command(sub, "tau", "discrimination verdict for one setup",
                      SCENARIOS.values(), _cmd_tau)

    p = sub.add_parser("evolve", help="two-level decay trajectory")
    p.add_argument("--rate", type=_quantity_arg, required=True,
                   help="pair decay rate, e.g. '1 1/s'")
    p.add_argument("--t-end", dest="t_end", type=_quantity_arg, required=True)
    p.add_argument("--dt", type=_quantity_arg, default=None)
    p.add_argument("--gap", type=_quantity_arg, default=None,
                   help="diagonal energy gap for the second state")
    p.add_argument("--method", choices=[m.value for m in Method], default="rk4")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", metavar="PATH", help="write output to PATH")
    p.set_defaults(handler=_cmd_evolve)

    p = _scenario_command(sub, "sweep", "one-axis grid scan",
                          [SCENARIOS[s] for s in Scenario], _cmd_sweep)
    p.add_argument("--axis", required=True)
    p.add_argument("--min", type=_quantity_arg, required=True)
    p.add_argument("--max", type=_quantity_arg, required=True)
    p.add_argument("--count", type=int, default=21)
    p.add_argument("--spacing", choices=["geometric", "linear"],
                   default="geometric")

    p = _scenario_command(sub, "curve", "visibility decay curve",
                          SCENARIOS.values(), _cmd_curve)
    p.add_argument("--t-end", dest="t_end", type=_quantity_arg)
    p.add_argument("--dt", type=_quantity_arg)
    p.add_argument("--stride", type=int, default=1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        text = args.handler(args)
    except (ValueError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
