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

A decay curve is one `Trajectory`: `curve_trajectory` runs it from a
verdict, and `curve_to_csv` reads its times and visibility 2|rho_01|.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import discrimination as disc
from .discrimination import (DiscriminationVerdict, FreeFlightSpec,
                             OscillatorSpec, Regime, TrappedPairSpec,
                             ValidationError)
from .evolution import (EvolutionConfig, Trajectory, csv_text, evolve,
                        two_level_decay)
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

    verdict(params, eta) evaluates a {name: Quantity} map holding every name
    in params, any of optional and nothing else; _check_params enforces
    that, and checks each count, before any verdict runs.  Only a scenario
    that uses_eta accepts eta != 1; sweeps scan those with has_boundary.
    """

    name: str
    params: tuple[str, ...]
    verdict: Callable[[dict, float], DiscriminationVerdict]
    optional: tuple[str, ...] = ()
    uses_eta: bool = False
    has_boundary: bool = True


# What each parameter of SCENARIOS means, in the table's order.  Each is a
# Quantity; a count is a whole number, a dimensionless Quantity checked once
# per parameter map, and a count axis is rounded at a sweep's grid points.
PARAMETERS = {"M": "mass", "v": "speed", "D": "separation",
              "E": "energy gap override", "L": "source-to-plate distance",
              "d": "slit width", "gap": "resonant energy gap",
              "omega0": "angular frequency", "n": "oscillator quantum number"}
COUNTS = frozenset({"n"})

# Verdicts look up disc.<fn> when called, so wrapping it later (tracing,
# profiling) still sees every dispatch through this table.
SCENARIOS: dict[str, ScenarioEntry] = {entry.name: entry for entry in (
    ScenarioEntry(
        "trapped", ("M", "v", "D"), optional=("E",), uses_eta=True,
        verdict=lambda p, eta: disc.trapped_tau(TrappedPairSpec(
            mass=p["M"], mean_velocity=p["v"], separation=p["D"],
            energy_gap=p.get("E"), margin=eta))),
    ScenarioEntry(
        "free-flight", ("M", "v", "D", "L", "d"),
        verdict=lambda p, eta: disc.free_flight_tau(FreeFlightSpec(
            mass=p["M"], speed=p["v"], slit_separation=p["D"],
            source_distance=p["L"], slit_width=p["d"]))),
    ScenarioEntry("photon", (), verdict=lambda p, eta: disc.photon_tau(),
                  has_boundary=False),
    ScenarioEntry("rabi", ("gap",), has_boundary=False,
                  verdict=lambda p, eta: disc.rabi_tau(p["gap"])),
    ScenarioEntry(
        "oscillator", ("M", "omega0", "n"),
        verdict=lambda p, eta: disc.oscillator_verdict(OscillatorSpec(
            mass=p["M"], angular_frequency=p["omega0"],
            quantum_number=p["n"].value))),
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
        return {
            "schema": REPORT_SCHEMA_ID,
            "scenario": self.scenario.value,
            "axis": self.axis,
            "rows": [
                {
                    "value": row.value.value,
                    "unit": preferred_unit(row.value.dim),
                    "tau": {"value": None if not row.tau.is_finite else row.tau.value,
                            "unit": "s"},
                    "regime": row.regime.value,
                    "digest": _derivation_digest(row.derivation),
                }
                for row in self.rows
            ],
            "critical_value": None if self.critical_value is None else {
                "value": self.critical_value.value,
                "unit": preferred_unit(self.critical_value.dim),
            },
        }


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
    return entry.verdict(params, eta)


def _verdict_at(spec: SweepSpec, x: float) -> DiscriminationVerdict:
    """The verdict at axis value x (SI scale; a count may be real)."""
    params = spec.fixed.copy()
    params[spec.axis] = Quantity(x, spec.minimum.dim)
    return SCENARIOS[spec.scenario].verdict(params, spec.eta)


def _bisect(spec: SweepSpec, below: SweepRow, above: SweepRow) -> float:
    """Refine the flip between two adjacent rows to BISECTION_REL_TOL (of
    the upper row's value while the lower end is a count rounded to 0).
    Each midpoint is a finite double even where lo + hi or lo * hi is not,
    and the loop ends once no double lies strictly between lo and hi."""
    lo, hi = below.value.value, above.value.value
    lo_infinite = not below.tau.is_finite
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
        if _verdict_at(spec, mid).is_infinite == lo_infinite:
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

    rows = []
    for x in grid.tolist():
        if spec.axis in COUNTS:
            x = float(round(x))
        verdict = _verdict_at(spec, x)
        rows.append(SweepRow(Quantity(x, spec.minimum.dim), verdict.tau,
                             verdict.regime, verdict.derivation))

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
