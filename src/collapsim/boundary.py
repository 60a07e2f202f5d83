"""Parameter sweeps that locate the quantum/classical boundary, and
visibility-decay curves that compose a verdict with the evolver.

The boundary is not a fixed mass: it is the surface in (mass, velocity,
separation, angle, ...) space where a scenario's verdict flips between a
finite collapse time and an everlasting superposition.  Sweeps evaluate the
verdict on a grid along one axis and then bisect the flip interval on the
verdict itself (not on an inverted formula), so they stay correct if the
discrimination margins change; the closed-form critical-mass operations
remain available as cross-checks.  `SweepSpec` checks a sweep's names,
eta, count, grid and counts when it is built; each point's values are
checked by its scenario's spec, so a bad value raises from `sweep`.
`mass_boundary` is the mass scan behind `collapsim boundary`.

`sweep` evaluates the grid one point at a time, in grid order: the
point's spec check, then the scenario's kernel over SI floats
(`discrimination`), whose output is the row; so each row equals the
verdict at its point, bit for bit, and an invalid grid raises its first
invalid point's error.  Bisection calls the kernel alone, with the fixed
values taken once as floats: the grid has checked them, and a midpoint
between two valid points is valid.

A report is written as the report/1 dict (`BoundaryReport.to_json`) or
as that dict's indented JSON text (`report_to_json_text`, equal to
json.dumps(..., indent=2) + "\\n"); both read each row's values from
`_row_values`, and the report/1 layout is written once (`_document`).

A decay curve is one `Trajectory`: `curve_trajectory` runs it from a
verdict, and `curve_to_csv` reads its times and visibility 2|rho_01|.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from . import discrimination as disc
from .discrimination import (DiscriminationVerdict, FreeFlightSpec,
                             OscillatorSpec, Regime, TrappedPairSpec,
                             ValidationError)
from .evolution import (EvolutionConfig, Trajectory, _json_float, csv_text,
                        evolve, json_text, two_level_decay)
from .units import DIMENSIONLESS, Quantity, preferred_unit, quantity

REPORT_SCHEMA_ID = "report/1"

BISECTION_REL_TOL = 1e-6

# Most grid points one sweep may evaluate: 100x the largest sweep in use,
# so that a mistyped --count fails at once instead of running for hours.
MAX_SWEEP_POINTS = 10 ** 4


class SweepError(RuntimeError):
    """The regime pattern along the grid is not a single monotone flip."""


@dataclass(frozen=True)
class ScenarioEntry:
    """One scenario: required and optional parameter names, and its verdict.

    spec(params, eta) builds, and so checks, what verdict(spec) evaluates,
    from a {name: Quantity} map holding every name in params, any of
    optional and nothing else; _check_params enforces that, and checks
    each count, before either runs.  A scenario with a boundary has a
    kernel(floats, eta): its discrimination kernel at a map of the same
    names to SI floats, unchecked.  Only a scenario that uses_eta accepts
    eta != 1.
    """

    name: str
    params: tuple[str, ...]
    spec: Callable[[dict, float], object]
    verdict: Callable[[object], DiscriminationVerdict]
    kernel: Callable[[dict, float], tuple] | None = None
    optional: tuple[str, ...] = ()
    uses_eta: bool = False

    @property
    def has_boundary(self) -> bool:
        return self.kernel is not None


# What each parameter of SCENARIOS means, in the table's order.  Each is a
# Quantity; a count is a whole number, a dimensionless Quantity checked once
# per parameter map, and a count axis is rounded at a sweep's grid points.
PARAMETERS = {"M": "mass", "v": "speed", "D": "separation",
              "E": "energy gap override", "L": "source-to-plate distance",
              "d": "slit width", "gap": "resonant energy gap",
              "omega0": "angular frequency", "n": "oscillator quantum number"}
COUNTS = frozenset({"n"})

# Verdicts and kernels look up disc.<fn> when called, so wrapping it later
# (tracing, profiling) still sees every dispatch through this table.
SCENARIOS: dict[str, ScenarioEntry] = {entry.name: entry for entry in (
    ScenarioEntry(
        "trapped", ("M", "v", "D"), optional=("E",), uses_eta=True,
        spec=lambda p, eta: TrappedPairSpec(
            mass=p["M"], mean_velocity=p["v"], separation=p["D"],
            energy_gap=p.get("E"), margin=eta),
        verdict=lambda spec: disc.trapped_tau(spec),
        kernel=lambda p, eta: disc._trapped(p["M"], p["v"], p["D"],
                                            p.get("E"), eta)),
    ScenarioEntry(
        "free-flight", ("M", "v", "D", "L", "d"),
        spec=lambda p, eta: FreeFlightSpec(
            mass=p["M"], speed=p["v"], slit_separation=p["D"],
            source_distance=p["L"], slit_width=p["d"]),
        verdict=lambda spec: disc.free_flight_tau(spec),
        kernel=lambda p, eta: disc._free_flight(p["M"], p["v"], p["D"],
                                                p["L"])),
    ScenarioEntry("photon", (), spec=lambda p, eta: None,
                  verdict=lambda spec: disc.photon_tau()),
    ScenarioEntry("rabi", ("gap",), spec=lambda p, eta: p["gap"],
                  verdict=lambda gap: disc.rabi_tau(gap)),
    ScenarioEntry(
        "oscillator", ("M", "omega0", "n"),
        spec=lambda p, eta: OscillatorSpec(
            mass=p["M"], angular_frequency=p["omega0"],
            quantum_number=p["n"].value),
        verdict=lambda spec: disc.oscillator_verdict(spec),
        kernel=lambda p, eta: disc._oscillator(p["M"], p["omega0"], p["n"])),
)}

# The scenarios a sweep can scan, e.g. Scenario.FREE_FLIGHT == "free-flight".
Scenario = enum.Enum(
    "Scenario", [(name.upper().replace("-", "_"), name)
                 for name, entry in SCENARIOS.items() if entry.has_boundary],
    type=str, module=__name__)


@dataclass(frozen=True)
class SweepSpec:
    """One-axis scan of a scenario: grid plus fixed remaining parameters.

    Quantities throughout.  fixed holds every parameter of the scenario but
    the axis, any of its optional ones and nothing else; a missing, unused,
    axis or non-Quantity entry raises ValidationError, as does a count, in
    fixed or as the axis, that is not dimensionless.  A count axis is
    rounded at grid points.  eta is the margin, which only a scenario that
    uses it accepts != 1.  The spec keeps its own copy of fixed.
    """

    scenario: Scenario
    axis: str
    minimum: Quantity
    maximum: Quantity
    count: int
    spacing: str = "geometric"
    fixed: dict = field(default_factory=dict)
    eta: float = 1.0

    def __post_init__(self):
        valid = [s.value for s in Scenario]
        if self.scenario not in valid:
            raise ValidationError(
                f"cannot sweep scenario '{self.scenario}' (one of {valid})")
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        object.__setattr__(self, "fixed", dict(self.fixed))
        entry = SCENARIOS[self.scenario]
        if self.axis not in entry.params:
            raise ValidationError(
                f"axis '{self.axis}' is not a {entry.name} parameter "
                f"(one of {entry.params})")
        try:
            if not 2 <= operator.index(self.count) <= MAX_SWEEP_POINTS:
                raise ValidationError(f"count must be between 2 and "
                                      f"{MAX_SWEEP_POINTS}, got {self.count}")
        except TypeError:
            raise ValidationError(
                f"count must be an integer, got {self.count!r}") from None
        if self.minimum.dim != self.maximum.dim:
            raise ValidationError("grid endpoints must share a dimension")
        if not (self.minimum.is_finite and self.maximum.is_finite):
            raise ValidationError("grid endpoints must be finite")
        if not self.minimum.value < self.maximum.value:
            raise ValidationError("grid needs minimum < maximum")
        if self.spacing not in ("geometric", "linear"):
            raise ValidationError(f"unknown spacing '{self.spacing}'")
        if self.spacing == "geometric" and self.minimum.value <= 0.0:
            raise ValidationError("geometric spacing needs minimum > 0")
        if not math.isfinite(self.maximum.value - self.minimum.value):
            raise ValidationError("linear grid width maximum - minimum "
                                  "overflows")
        _check_params(entry, self.fixed, self.eta, self.axis)
        if self.axis in COUNTS:
            disc._require_dim(self.minimum, DIMENSIONLESS, self.axis)


@dataclass(frozen=True)
class SweepRow:
    """One grid point; to_json formats the verdict's derivation."""

    value: Quantity
    tau: Quantity
    regime: Regime
    derivation: tuple


@dataclass(frozen=True)
class BoundaryReport:
    scenario: Scenario
    axis: str
    rows: tuple[SweepRow, ...]
    critical_value: Quantity | None

    def to_json(self) -> dict:
        return _document(self, map(_row_values, self.rows))


def _row_values(row: SweepRow) -> tuple:
    """A report/1 row's values in document order: value, unit, tau (None if
    infinite), regime and the derivation's digest."""
    return (row.value.value, preferred_unit(row.value.dim),
            row.tau.value if row.tau.is_finite else None, row.regime.value,
            _derivation_digest(row.derivation))


def _document(report: BoundaryReport, rows) -> dict:
    """The report/1 document of the report, one row per tuple of values
    (`_row_values`)."""
    critical = report.critical_value
    return {
        "schema": REPORT_SCHEMA_ID,
        "scenario": report.scenario.value,
        "axis": report.axis,
        "rows": [{"value": value, "unit": unit,
                  "tau": {"value": tau, "unit": "s"}, "regime": regime,
                  "digest": digest}
                 for value, unit, tau, regime, digest in rows],
        "critical_value": None if critical is None else {
            "value": critical.value, "unit": preferred_unit(critical.dim)},
    }


def report_to_json_text(report: BoundaryReport) -> str:
    """`json.dumps(report.to_json(), indent=2) + "\\n"`, byte for byte,
    without json's pure-Python indenting encoder: `evolution.json_text`
    fills one template per row with its values (`_row_values`), each
    spelled as json.dumps spells it.  A row's value and tau are floats,
    as `sweep` makes them."""
    encode = encode_basestring_ascii
    rows = [(_json_float(value), encode(unit),
             "null" if tau is None else _json_float(tau), encode(regime),
             encode(digest))
            for value, unit, tau, regime, digest in map(_row_values,
                                                         report.rows)]
    return json_text(_document(report, [(None,) * 5]), "rows", rows)


def _derivation_digest(derivation: tuple) -> str:
    parts = [f"{sym}={q.value:.6g} {preferred_unit(q.dim)}"
             for sym, q in derivation]
    return "; ".join(parts)


def _check_params(entry: ScenarioEntry, params: dict, eta: float,
                  axis: str | None = None) -> None:
    """The one check of a parameter map and margin: every name of
    entry.params but the sweep axis, any of entry.optional, nothing else,
    only Quantities, then dimensionless counts, and eta == 1 unless used."""
    if eta != 1.0 and not entry.uses_eta:
        raise ValidationError(f"{entry.name} takes no margin eta, got {eta}")
    for name in entry.params:
        if name != axis and name not in params:
            raise ValidationError(f"missing {name} for {entry.name}")
    for name, value in params.items():
        if name == axis:
            raise ValidationError(f"{name} is the sweep axis")
        if name not in entry.params and name not in entry.optional:
            raise ValidationError(f"{entry.name} does not take {name}")
        if not isinstance(value, Quantity):
            raise ValidationError(f"{name} must be a Quantity, "
                                  f"got {type(value).__name__}")
    for name in COUNTS.intersection(params):
        disc._require_dim(params[name], DIMENSIONLESS, name)


def scenario_verdict(scenario: str, params: dict, eta: float = 1.0
                     ) -> DiscriminationVerdict:
    """Evaluate one SCENARIOS entry from a {name: Quantity} parameter map.

    An unknown scenario, an eta != 1 it does not use, and a missing, unused
    or non-Quantity parameter raise ValidationError.
    """
    entry = SCENARIOS.get(scenario)
    if entry is None:
        raise ValidationError(
            f"unknown scenario '{scenario}' (one of {list(SCENARIOS)})")
    _check_params(entry, params, eta)
    return entry.verdict(entry.spec(params, eta))


def _verdict_at(spec: SweepSpec, x: float) -> SweepRow:
    """The row at axis value x (SI scale; a count may be real): the
    point's spec check, then its kernel, whose output is the row."""
    entry = SCENARIOS[spec.scenario]
    params = spec.fixed.copy()
    value = params[spec.axis] = Quantity(x, spec.minimum.dim)
    tau, regime, _, derivation = disc._outcome(
        *entry.spec(params, spec.eta)._kernel())
    return SweepRow(value, tau, regime, derivation)


def _bisect(spec: SweepSpec, below: SweepRow, above: SweepRow) -> float:
    """Refine the flip between two adjacent rows to BISECTION_REL_TOL (of
    the upper row's value while the lower end is a count rounded to 0).
    Each midpoint is a finite double even where lo + hi or lo * hi is not,
    and the loop ends once no double lies strictly between lo and hi.
    Each midpoint asks the kernel alone whether the window is closed."""
    kernel, eta, axis = SCENARIOS[spec.scenario].kernel, spec.eta, spec.axis
    floats = {name: q.value for name, q in spec.fixed.items()}
    lo, hi = below.value.value, above.value.value
    lo_closed = not below.tau.is_finite
    geometric = spec.spacing == "geometric"
    while (hi - lo) > BISECTION_REL_TOL * (lo or above.value.value):
        if not (geometric and lo):
            mid = 0.5 * lo + 0.5 * hi
        elif sys.float_info.min <= lo * hi < math.inf:
            mid = math.sqrt(lo * hi)
        else:
            # Only here: it may differ from sqrt(lo * hi) in the last bit.
            mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles (subnormal tolerance)
        floats[axis] = mid
        if kernel(floats, eta)[0] == lo_closed:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def sweep(spec: SweepSpec) -> BoundaryReport:
    """Evaluate the scenario along the grid and locate the regime flip.

    Exactly one flip is bisected to 1e-6 relative; none leaves
    critical_value at None; more than one raises SweepError naming the
    offending interval.  Output is deterministic for identical specs.
    """
    space = np.geomspace if spec.spacing == "geometric" else np.linspace
    grid = space(spec.minimum.value, spec.maximum.value, spec.count)
    points = grid.tolist()
    if spec.axis in COUNTS:
        points = [float(round(x)) for x in points]
    rows = [_verdict_at(spec, x) for x in points]

    flips = [i for i in range(len(grid) - 1)
             if rows[i].tau.is_finite != rows[i + 1].tau.is_finite]
    if len(flips) > 1:
        i, j = flips[0], flips[1]
        raise SweepError(
            "regime flips more than once along the grid: between "
            f"{grid[i]:.6g}..{grid[i + 1]:.6g} and {grid[j]:.6g}..{grid[j + 1]:.6g} "
            f"({preferred_unit(spec.minimum.dim)})")
    critical = None
    if flips:
        i = flips[0]
        critical = Quantity(_bisect(spec, *rows[i:i + 2]), spec.minimum.dim)
    return BoundaryReport(spec.scenario, spec.axis, tuple(rows), critical)


def mass_boundary(scenario: Scenario | str, v: Quantity, D: Quantity,
                  theta: float | None = None, eta: float = 1.0
                  ) -> BoundaryReport:
    """Sweep 31 geometric masses over 1e-3..1e12 GeV/c2, wide enough for any
    desk-scale geometry; no flip raises SweepError.  A free flight needs an
    angle theta in (0, 1): L = D/theta, slit width d = D/10."""
    fixed = {"v": v, "D": D}
    if scenario == Scenario.TRAPPED and theta is not None:
        raise ValidationError("trapped boundary does not take theta")
    if scenario == Scenario.FREE_FLIGHT:
        if theta is None:
            raise ValidationError("free-flight boundary needs theta")
        if not 0.0 < theta < 1.0:
            raise ValidationError(f"theta must be in (0, 1), got {theta}")
        fixed.update(L=D / theta, d=D / 10.0)
    report = sweep(SweepSpec(scenario, "M", quantity(1e-3, "GeV/c2"),
                             quantity(1e12, "GeV/c2"), count=31, fixed=fixed,
                             eta=eta))
    if report.critical_value is None:
        raise SweepError("no regime flip for masses in [1e-3, 1e12] GeV/c2")
    return report


def curve_trajectory(verdict: DiscriminationVerdict,
                     t_end: Quantity | None = None, *,
                     dt: Quantity | None = None,
                     record_stride: int = 1) -> Trajectory:
    """Trajectory of an equal two-state superposition decaying at the
    verdict's rate (rate 0, hence constant, for an infinite tau).

    The default horizon is five decay times, or 1 s for an infinite tau.
    The default step is t_end/512, an exact divisor, so the last sample
    lands on t_end itself rather than on the next whole step past it.
    """
    rho0, H, rates = two_level_decay(verdict.rate)
    if t_end is None:
        t_end = quantity(1.0, "s") if verdict.is_infinite else 5.0 * verdict.tau
    if dt is None:
        dt = t_end / 512.0
    cfg = EvolutionConfig(t_end=t_end, dt=dt, record_stride=record_stride)
    return evolve(rho0, H, rates, cfg)


def curve_to_csv(traj: Trajectory) -> str:
    """The `time_s,visibility` CSV of a run: 2|rho_01| at every sample."""
    return csv_text(["time_s", "visibility"], traj.times,
                    traj.visibility(0, 1))
