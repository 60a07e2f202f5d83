"""Parameter sweeps that locate the quantum/classical boundary, and
visibility-decay curves that compose a verdict with the evolver.

The boundary is not a fixed mass: it is the surface in (mass, velocity,
separation, angle, ...) space where a scenario's verdict flips between a
finite collapse time and an everlasting superposition.  Sweeps evaluate the
verdict on a grid along one axis and then bisect the flip interval on the
verdict itself (not on an inverted formula), so they stay correct if the
discrimination margins change; the closed-form critical-mass operations
remain available as cross-checks.  `SweepSpec` checks a sweep's names,
eta, count, grid and counts when it is built; the values are checked on
the grid, so a bad value raises from `sweep`.  `mass_boundary` is the
mass scan behind `collapsim boundary`.

`SCENARIOS` holds data only, and one binder (`_arguments`) gives
`scenario_verdict` and `sweep` a scenario's arguments in the table's order.

A sweep's grid (`_grid`) is Python floats, bit for bit the grid that
numpy's geomspace or linspace gives in its baseline loops, so it does not
depend on the SIMD features of the CPU.  `sweep` builds the scenario's
spec once, at the first grid point, which checks every dimension (no
later point can change one) and that point's values, and takes its
`_values()`: its check's and kernel's arguments.  Each value check holds
on an interval of the axis value (positive and finite, v < c, d < D < L,
n >= 0), so checking the grid's least and greatest points checks them
all.  Then, in grid order, each point overwrites its axis's slot in that
list and runs the kernel, whose output is the row.  So each row equals
the verdict at its point, bit for bit.  Only where an extreme point fails
its check does each point run its check before its kernel, so that an
invalid grid raises its first invalid point's error.  Bisection calls the
kernel alone on the same list, by the same argument: a midpoint between
two valid points is valid.

A row keeps the kernel's floats, and builds Quantities, or the verdict at
its point, only when it is read; the flip test, bisection and the writers
read the floats.  A report is written as the report/1 dict
(`BoundaryReport.to_json`) or as that dict's indented JSON text
(`report_to_json_text`, equal to json.dumps(..., indent=2) + "\\n"); both
read each row's values from `_row_values`, as `cli`'s text of a sweep
does, and the report/1 layout is written once (`_document`).

A decay curve is one `Trajectory`: `curve_trajectory` runs it from a
verdict, and `curve_to_csv` reads its times and visibility 2|rho_01|.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import discrimination as disc
from .discrimination import (DiscriminationVerdict, FreeFlightSpec,
                             OscillatorSpec, TrappedPairSpec, ValidationError)
from .evolution import (EvolutionConfig, Trajectory, _json_float, csv_text,
                        evolve, json_text, two_level_decay)
from .units import (DIMENSIONLESS, TIME, Dimension, Quantity,
                    preferred_unit, quantity)

REPORT_SCHEMA_ID = "report/1"

BISECTION_REL_TOL = 1e-6

# Most grid points one sweep may evaluate: 100x the largest sweep in use,
# so that a mistyped --count fails at once instead of running for hours.
MAX_SWEEP_POINTS = 10 ** 4


class SweepError(RuntimeError):
    """The regime pattern along the grid is not a single monotone flip."""


@dataclass(frozen=True)
class ScenarioEntry:
    """One scenario, as data: its parameter names, its spec class (None
    where the verdict takes the arguments itself) and the names of its
    verdict, value check and kernel in `discrimination`, looked up when
    called, so that tracing and tests can substitute them.

    `_arguments` binds a checked {name: Quantity} map to the table's order:
    the inputs (None if omitted, a count as its float), then eta if it
    uses_eta, which only then may be != 1.  The check and the kernel take
    the spec's `_values()`: the same arguments as SI floats.
    """

    name: str
    params: tuple[str, ...]
    verdict: str
    spec: type | None = None
    check: str | None = None
    kernel: str | None = None
    optional: tuple[str, ...] = ()
    uses_eta: bool = False

    @property
    def inputs(self) -> tuple[str, ...]:
        """Every parameter name, params then optional: the table's order."""
        return self.params + self.optional

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

SCENARIOS: dict[str, ScenarioEntry] = {entry.name: entry for entry in (
    ScenarioEntry("trapped", ("M", "v", "D"), "trapped_tau", TrappedPairSpec,
                  "_check_trapped", "_trapped", optional=("E",),
                  uses_eta=True),
    ScenarioEntry("free-flight", ("M", "v", "D", "L", "d"), "free_flight_tau",
                  FreeFlightSpec, "_check_free_flight", "_free_flight"),
    ScenarioEntry("photon", (), "photon_tau"),
    ScenarioEntry("rabi", ("gap",), "rabi_tau"),
    ScenarioEntry("oscillator", ("M", "omega0", "n"), "oscillator_verdict",
                  OscillatorSpec, "_check_oscillator", "_oscillator"),
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
        if self.axis not in entry.inputs:
            raise ValidationError(
                f"axis '{self.axis}' is not a {entry.name} parameter "
                f"(one of {entry.inputs})")
        try:
            if not 2 <= operator.index(self.count) <= MAX_SWEEP_POINTS:
                raise ValidationError(f"count must be between 2 and "
                                      f"{MAX_SWEEP_POINTS}, got {self.count}")
        except TypeError:
            raise ValidationError(
                f"count must be an integer, got {self.count!r}") from None
        disc._require_quantity(self.minimum, "minimum")
        disc._require_quantity(self.maximum, "maximum")
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


class SweepRow(NamedTuple):
    """One grid point: its axis value x in SI, the axis's dimension, and
    the kernel's output there, (closed, tau, margin, values).  The
    properties build Quantities, and the verdict, only when they are read;
    `_row_values` reads the floats."""

    x: float
    dim: Dimension
    output: tuple

    @property
    def value(self) -> Quantity:
        return Quantity(self.x, self.dim)

    @property
    def tau(self) -> Quantity:
        closed, tau, _, _ = self.output
        return disc.INFINITE_TAU if closed else Quantity(tau, TIME)

    @property
    def verdict(self) -> DiscriminationVerdict:
        """The verdict at this point, equal to the scenario's verdict."""
        return DiscriminationVerdict(*disc._outcome(*self.output))


@dataclass(frozen=True)
class BoundaryReport:
    scenario: Scenario
    axis: str
    rows: tuple[SweepRow, ...]
    critical_value: Quantity | None

    def to_json(self) -> dict:
        return _document(self, [
            (value, unit, tau, regime, _derivation_digest(values))
            for value, unit, tau, regime, values in _row_values(self)])


def _row_values(report: BoundaryReport) -> list[tuple]:
    """Each report/1 row's values in document order, read from the floats:
    value, unit, tau (None if infinite), regime and the kernel's derivation
    values, which the JSON writers digest (`_derivation_digest`).  A
    report's rows share its axis's dimension, as `sweep` makes them, so the
    unit is looked up once.  The regime is read as `_value_`, which is
    `.value` without its descriptor call."""
    rows = report.rows
    unit = preferred_unit(rows[0].dim) if rows else None
    regime = disc._regime
    return [(x, unit, tau, regime(closed, margin)._value_, values)
            for x, _, (closed, tau, margin, values) in rows]


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
             encode(_derivation_digest(values)))
            for value, unit, tau, regime, values in _row_values(report)]
    return json_text(_document(report, [(None,) * 5]), "rows", rows)


# The unit of each symbol a kernel derives, as a digest writes it.
_DIGEST_UNITS = {sym: preferred_unit(dim)
                 for sym, dim in disc._DERIVATION_DIMENSIONS.items()}


@functools.cache
def _digest_template(symbols: tuple[str, ...]) -> str:
    """The digest of values under these symbols as one %-template, e.g.
    "E=%.6g J; omega_min=%.6g 1/s": %.6g spells a float as :.6g does."""
    return "; ".join([f"{sym}=%.6g {_DIGEST_UNITS[sym]}" for sym in symbols])


def _derivation_digest(values: dict) -> str:
    """A kernel's derivation values as report/1's digest text."""
    return _digest_template(tuple(values)) % tuple(values.values())


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
        if name not in entry.inputs:
            raise ValidationError(f"{entry.name} does not take {name}")
        disc._require_quantity(value, name)
    for name in COUNTS.intersection(params):
        disc._require_dim(params[name], DIMENSIONLESS, name)


def _arguments(entry: ScenarioEntry, params: dict, eta: float) -> list:
    """The entry's arguments from a checked parameter map, in table order:
    each input (None if omitted, a count as its float), then eta if the
    entry uses it."""
    return [params[name].value if name in COUNTS else params.get(name)
            for name in entry.inputs] + [eta] * entry.uses_eta


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
    args = _arguments(entry, params, eta)
    verdict = getattr(disc, entry.verdict)
    return verdict(*args) if entry.spec is None else verdict(entry.spec(*args))


def _grid(spacing: str, lo: float, hi: float, count: int) -> list[float]:
    """count points from lo to hi, each equal to numpy's geomspace or
    linspace point as numpy's baseline loops compute it: its SIMD power
    moves some points by up to a few hundred ulp.  Python's float
    arithmetic does not depend on the CPU, so the grid does not either.

    A linear point is i * step + lo, or i / div * width + lo where the
    step underflows to 0; a geometric one is 10 ** (i * step + log10(lo))
    on the logarithms, inf where that overflows, as numpy's power gives.
    The ends are lo and hi themselves."""
    div = count - 1
    if spacing == "linear":
        width = hi - lo
        step = width / div
        if not step:
            return [i / div * width + lo for i in range(div)] + [hi]
        return [i * step + lo for i in range(div)] + [hi]
    a = math.log10(lo)
    step = (math.log10(hi) - a) / div
    inner = []
    for i in range(1, div):
        try:
            inner.append(10.0 ** (i * step + a))
        except OverflowError:
            inner.append(math.inf)
    return [lo, *inner, hi]


def _checks_hold(check, values: list, slot: int, extremes) -> bool:
    """Whether the value check passes with the axis's slot set to each of
    the grid's least and greatest points.  Each check is an interval in
    the axis value while the other values are fixed, so then it passes at
    every point between them."""
    try:
        for x in extremes:
            values[slot] = x
            check(*values)
    except ValidationError:
        return False
    return True


def _bisect(spec: SweepSpec, kernel, values: list, slot: int,
            below: SweepRow, above: SweepRow) -> float:
    """Refine the flip between two adjacent rows to BISECTION_REL_TOL (of
    the upper row's value while the lower end is a count rounded to 0).
    Each midpoint is a finite double even where lo + hi or lo * hi is not,
    and the loop ends once no double lies strictly between lo and hi.
    Each midpoint asks the kernel alone, on the sweep's values with the
    axis's slot set to it, whether the window is closed."""
    lo, hi = below.x, above.x
    lo_closed = below.output[0]
    geometric = spec.spacing == "geometric"
    while (hi - lo) > BISECTION_REL_TOL * (lo or above.x):
        if not (geometric and lo):
            mid = 0.5 * lo + 0.5 * hi
        elif sys.float_info.min <= lo * hi < math.inf:
            mid = math.sqrt(lo * hi)
        else:
            # Only here: it may differ from sqrt(lo * hi) in the last bit.
            mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles (subnormal tolerance)
        values[slot] = mid
        if kernel(*values)[0] == lo_closed:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def sweep(spec: SweepSpec) -> BoundaryReport:
    """Evaluate the scenario along the grid and locate the regime flip.

    Each point runs on the first point's spec's `_values()` with the axis's
    slot overwritten; the values are checked at the grid's least and
    greatest points, and at every point only where one of those fails.
    Exactly one flip is bisected to 1e-6 relative; none leaves
    critical_value at None; more than one raises SweepError naming the
    offending interval.  Output is deterministic for identical specs.
    """
    grid = _grid(spec.spacing, spec.minimum.value, spec.maximum.value,
                 spec.count)
    points = grid
    if spec.axis in COUNTS:  # an inf point is left for its check to refuse
        points = [float(round(x)) if x < math.inf else x for x in grid]
    entry, dim = SCENARIOS[spec.scenario], spec.minimum.dim
    params = spec.fixed.copy()
    params[spec.axis] = Quantity(points[0], dim)
    values = entry.spec(*_arguments(entry, params, spec.eta))._values()
    slot = entry.inputs.index(spec.axis)
    check, kernel = getattr(disc, entry.check), getattr(disc, entry.kernel)
    if not _checks_hold(check, values, slot, (min(points), max(points))):
        for x in points:  # raises the first invalid point's error
            values[slot] = x
            check(*values)
            kernel(*values)
    rows = []
    for x in points:
        values[slot] = x
        rows.append(SweepRow(x, dim, kernel(*values)))

    flips = [i for i in range(len(rows) - 1)
             if rows[i].output[0] != rows[i + 1].output[0]]
    if len(flips) > 1:
        i, j = flips[0], flips[1]
        raise SweepError(
            "regime flips more than once along the grid: between "
            f"{grid[i]:.6g}..{grid[i + 1]:.6g} and {grid[j]:.6g}..{grid[j + 1]:.6g} "
            f"({preferred_unit(spec.minimum.dim)})")
    critical = None
    if flips:
        i = flips[0]
        critical = Quantity(_bisect(spec, kernel, values, slot,
                                    *rows[i:i + 2]), dim)
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
        disc._check_theta(theta)
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
