"""Discrimination timescales tau_ij for pairs of repeatedly readable states.

Each scenario analysis asks the same question: can the two states be told
apart, repeatedly and non-destructively, by a physically allowed probe?  If
yes, the answer is the minimal measuring time tau (which doubles as the
spontaneous decay timescale of their superposition); if no, tau is infinite
and the superposition is everlasting.

Scenario classes
  * trapped pair: Heisenberg-microscope readout of which trap holds the
    particle.  The probe photon must resolve the trap separation D
    (wavelength < D/2) while staying below the trap's energy gap E, so a
    window of usable frequencies exists only when E*D >= 4*pi*hbar*c.
  * free flight: Doppler speed-meter readout of which slit the particle is
    heading for.  The photon must resolve the transverse-velocity split
    v*theta while its recoil stays below that resolution, giving the
    frequency window 2c/D <= omega <= sqrt(p c^2 / (2 hbar L)), open only
    when p*theta*D >= 8*hbar.
  * flying photon: any record of the trajectory takes at least the flight
    time itself, so discrimination can never complete; tau is infinite.
  * Rabi-driven system: the only candidate readable states are adiabatic
    states, and a probe fast enough to resolve them carries energy far
    above the level splitting and destroys the system; tau is infinite.
  * mechanical oscillator: position readout at resolution sqrt(n)*r0/2
    needs photon energy below the oscillator energy n*hbar*omega0, which
    is possible only above the quantum number n* = (4 pi c / v0)^(2/3).

All comparisons are taken at the stated equalities (a margin factor eta
lets callers explore conservative readings of the strong inequalities).
Each verdict and closed form refuses a derived scale that underflows to 0
or overflows, naming it, before the scale can divide anything.
Regime is Marginal when the deciding ratio is within a factor of 2 of its
threshold, reflecting that these are order-of-magnitude criteria.

Each scenario with a window (trapped, free flight, oscillator) has one
kernel over SI floats (`_trapped`, `_free_flight`, `_oscillator`): it
returns whether the window is closed, tau (None if so), the deciding ratio
and the derivation's values, whose dimensions `_DERIVATION_DIMENSIONS`
declares.  Beside each kernel, one function checks the values of its
inputs on the same floats (`_check_trapped`, `_check_free_flight`,
`_check_oscillator`).  Both take the spec's `_values()`, its fields' SI
values in field order, which is `boundary.SCENARIOS`'s order: `boundary`
passes a spec its fields positionally.  A spec checks every field's
dimension, then its values, so a spec that is wrong in both ways reports
its dimension.  A verdict runs the kernel on them and wraps its output
(`_outcome`); `_regime` is the one rule for the regime of an output, which
`_outcome` and `boundary`'s report writers share.
hbar, c, sqrt, the scale check and the power are keyword defaults, so the
kernels also run on Quantities: the tests check each derived dimension
so, and `doppler_window` keeps its bounds' dimensions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .states import CollapseRateMatrix, index_of
from .units import (C, DIMENSIONLESS, ENERGY, HBAR, LENGTH, MASS, PER_SECOND,
                    PI, SPEED, TIME, Quantity, preferred_unit)


class ValidationError(ValueError):
    """A scenario spec or operation argument violates its contract."""


class Regime(str, enum.Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"
    MARGINAL = "marginal"


class Reason(str, enum.Enum):
    WINDOW_CLOSED = "window_closed"
    PHOTON_FLIGHT_TIME = "photon_flight_time"
    RABI_PROBE_DESTROYS = "rabi_probe_destroys"
    DISCRIMINABLE = "discriminable"


INFINITE_TAU = Quantity(math.inf, TIME)

VERDICT_SCHEMA_ID = "verdict/1"

# Deciding ratios within a factor of 2 of threshold are reported Marginal.
MARGINAL_BAND = 2.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


# These run on every spec, and `_positive` at a sweep's least and greatest
# grid points (at every point of an invalid grid), so their messages are
# formatted only when a check fails.
def _require_quantity(q, name: str) -> None:
    if not isinstance(q, Quantity):
        raise ValidationError(f"{name} must be a Quantity, "
                              f"got {type(q).__name__}")


def _require_dim(q: Quantity, dim, name: str) -> None:
    _require_quantity(q, name)
    if q.dim is not dim:
        raise ValidationError(f"{name} must have dimension {dim.si_name()}, "
                              f"got {q.dim.si_name()}")


def _positive(name: str, value: float) -> None:
    """The value check of a positive input: 0 < value < inf."""
    if not 0.0 < value < math.inf:
        bound = "positive" if value <= 0.0 else "finite"
        raise ValidationError(f"{name} must be {bound}, got {value!r}")


def _require_positive(q: Quantity, dim, name: str) -> None:
    _require_dim(q, dim, name)
    _positive(name, q.value)


def _in_range(name: str, x: float) -> float:
    """x, a scale derived from valid inputs, if it is positive and finite;
    one that underflows to 0 or overflows raises ValidationError naming it,
    before it can divide anything."""
    if 0.0 < x < math.inf:
        return x
    raise ValidationError(f"{name} {'overflows' if x else 'underflows to 0'}")


def _scale(name: str, q: Quantity) -> Quantity:
    """q, if its value is `_in_range`."""
    _in_range(name, q.value)
    return q


@dataclass(frozen=True)
class DiscriminationVerdict:
    """Outcome of a discrimination analysis.

    tau is infinite exactly when regime is QUANTUM.  The derivation records
    the named intermediate values, in order, for auditability.
    """

    tau: Quantity
    regime: Regime
    reason: Reason
    derivation: tuple[tuple[str, Quantity], ...] = field(default=())

    def __post_init__(self):
        if (not self.tau.is_finite) != (self.regime is Regime.QUANTUM):
            raise ValidationError("tau is infinite iff regime is quantum")

    @property
    def is_infinite(self) -> bool:
        return not self.tau.is_finite

    @property
    def rate(self) -> Quantity:
        """Decay rate 1/tau in 1/s; exactly 0 for an infinite tau.  A finite
        tau that is not positive, or whose rate overflows, raises
        ValidationError."""
        if self.is_infinite:
            return Quantity(0.0, PER_SECOND)
        _require(self.tau.value > 0.0,
                 f"tau must be positive, got {self.tau.value!r}")
        return _scale("1/tau", 1.0 / self.tau)

    def to_json(self) -> dict:
        return {
            "schema": VERDICT_SCHEMA_ID,
            "infinite": self.is_infinite,
            "tau": {"value": None if self.is_infinite else self.tau.value,
                    "unit": "s"},
            "regime": self.regime.value,
            "reason": self.reason.value,
            "derivation": [
                {"symbol": sym, "value": q.value, "unit": preferred_unit(q.dim)}
                for sym, q in self.derivation
            ],
        }


def _quantum_verdict(reason: Reason, derivation=()) -> DiscriminationVerdict:
    return DiscriminationVerdict(INFINITE_TAU, Regime.QUANTUM, reason,
                                 tuple(derivation))


# The dimension of each symbol that a windowed scenario's kernel derives.
_DERIVATION_DIMENSIONS = {
    "E": ENERGY, "omega_min": PER_SECOND, "omega_max": PER_SECOND,
    "lambda": LENGTH, "p": MASS * SPEED, "theta": DIMENSIONLESS,
    "omega_low": PER_SECOND, "omega_high": PER_SECOND, "flight_time": TIME,
    "window_margin": DIMENSIONLESS, "r0": LENGTH, "v0": SPEED,
    "n_star": DIMENSIONLESS, "v_n": SPEED}


def _regime(closed: bool, margin: float) -> Regime:
    """The regime of a kernel's output: quantum where the probe window is
    closed, else Marginal when the deciding ratio margin is within
    MARGINAL_BAND of its threshold, else classical."""
    if closed:
        return Regime.QUANTUM
    return Regime.MARGINAL if margin < MARGINAL_BAND else Regime.CLASSICAL


def _outcome(closed: bool, tau, margin: float, values: dict) -> tuple:
    """(tau, regime, reason, derivation) of a kernel's output: an infinite
    tau where the probe window is closed, and the regime of `_regime`."""
    derivation = tuple([(sym, Quantity(value, _DERIVATION_DIMENSIONS[sym]))
                        for sym, value in values.items()])
    regime = _regime(closed, margin)
    if closed:
        return INFINITE_TAU, regime, Reason.WINDOW_CLOSED, derivation
    return Quantity(tau, TIME), regime, Reason.DISCRIMINABLE, derivation


@dataclass(frozen=True)
class TrappedPairSpec:
    """Particle held in one of two identical traps separated by D.

    energy_gap overrides the default estimate E = M v^2 for the trap's
    level spacing.  margin (finite eta >= 1) tightens both probe constraints.
    """

    mass: Quantity
    mean_velocity: Quantity
    separation: Quantity
    energy_gap: Quantity | None = None
    margin: float = 1.0

    def __post_init__(self):
        _require_dim(self.mass, MASS, "mass")
        _require_dim(self.mean_velocity, SPEED, "mean_velocity")
        _require_dim(self.separation, LENGTH, "separation")
        if self.energy_gap is not None:
            _require_dim(self.energy_gap, ENERGY, "energy_gap")
        _check_trapped(*self._values())

    def _values(self) -> list:
        """`_check_trapped`'s and `_trapped`'s arguments, in field order."""
        gap = self.energy_gap
        return [self.mass.value, self.mean_velocity.value,
                self.separation.value, None if gap is None else gap.value,
                self.margin]


@dataclass(frozen=True)
class FreeFlightSpec:
    """Particle flying from a point source toward a double slit.

    Geometry: source at distance L from the plate, slits separated by D,
    each of width d, with 0 < d < D < L.  The spanned angle is
    theta = D / L.
    """

    mass: Quantity
    speed: Quantity
    slit_separation: Quantity
    source_distance: Quantity
    slit_width: Quantity

    def __post_init__(self):
        _require_dim(self.mass, MASS, "mass")
        _require_dim(self.speed, SPEED, "speed")
        _require_dim(self.slit_separation, LENGTH, "slit_separation")
        _require_dim(self.source_distance, LENGTH, "source_distance")
        _require_dim(self.slit_width, LENGTH, "slit_width")
        _check_free_flight(*self._values())

    def _values(self) -> list:
        """`_check_free_flight`'s and `_free_flight`'s arguments."""
        return [self.mass.value, self.speed.value, self.slit_separation.value,
                self.source_distance.value, self.slit_width.value]


@dataclass(frozen=True)
class OscillatorSpec:
    """Mechanical oscillator in the number state n.

    A real quantum_number is accepted: the threshold comparison extends to
    it, which is what bisection along the n axis refines.
    """

    mass: Quantity
    angular_frequency: Quantity
    quantum_number: int

    def __post_init__(self):
        _require_dim(self.mass, MASS, "mass")
        _require_dim(self.angular_frequency, PER_SECOND, "angular_frequency")
        _check_oscillator(*self._values())

    def _values(self) -> list:
        """`_check_oscillator`'s and `_oscillator`'s arguments."""
        return [self.mass.value, self.angular_frequency.value,
                self.quantum_number]


def _check_trapped(M, v, D, E, eta) -> None:
    """The trapped pair's value checks, on SI floats: M, v, D and E (unless
    None) positive and finite, v < c, and a finite margin eta >= 1."""
    _positive("mass", M)
    _positive("mean_velocity", v)
    _require(v < C.value, "mean_velocity must be below c")
    _positive("separation", D)
    if E is not None:
        _positive("energy_gap", E)
    _check_margin(eta)


def _check_margin(eta) -> None:
    """The trapped strong inequalities' margin eta: real, finite, >= 1."""
    try:
        if 1.0 <= eta < math.inf:
            return
        bound = ">= 1" if math.isfinite(eta) else "finite"
    except TypeError:
        bound = "a real number"
    raise ValidationError(f"margin eta must be {bound}, got {eta!r}")


def _trapped(M, v, D, E, eta, *, hbar=HBAR.value, c=C.value,
             scale=_in_range):
    """The trapped pair's kernel: E (None for M v^2), then the window
    [omega_min, omega_max] = [4 pi c / D, E / (hbar eta)]."""
    if E is None:
        E = scale("E = M v^2", M * v ** 2)
    omega_max = scale("omega_max", E / (hbar * eta))
    omega_min = scale("omega_min", 4.0 * PI * c / D)
    lam = scale("lambda", 2.0 * PI * c / omega_max)
    closed = omega_min > omega_max
    tau = None if closed else scale("tau", 4.0 * PI / omega_max)
    return closed, tau, omega_max / omega_min, {
        "E": E, "omega_min": omega_min, "omega_max": omega_max, "lambda": lam}


def trapped_tau(spec: TrappedPairSpec) -> DiscriminationVerdict:
    """Heisenberg-microscope discrimination of the two trap states.

    The probe must satisfy hbar*omega <= E/eta (gentleness) and
    lambda = 2 pi c / omega < D/2 (resolution), which opens a window
    [omega_min, omega_max] = [4 pi c / D, E / (hbar eta)].  When the window
    is open, the minimal send-plus-receive time at the gentlest usable
    setting is tau = 4 pi / omega_max.
    """
    return DiscriminationVerdict(*_outcome(*_trapped(*spec._values())))


def trapped_critical_mass(v: Quantity, D: Quantity, eta: float = 1.0) -> Quantity:
    """Mass at which the trapped window just opens: M* = 4 pi hbar c eta / (D v^2).

    At M*, the gap estimate E = M v^2 satisfies E*D = 4 pi hbar c eta.
    """
    _require_positive(v, SPEED, "v")
    _require(v < C, "v must be below c")
    _require_positive(D, LENGTH, "D")
    _check_margin(eta)
    return _scale("M*",
                  4.0 * PI * HBAR * C * eta / _scale("D v^2", D * v ** 2))


def doppler_error(omega: Quantity, tau_photon: Quantity) -> Quantity:
    """Transverse-velocity resolution of a Doppler speed meter, c/(2 omega tau)."""
    _require_positive(omega, PER_SECOND, "omega")
    _require_positive(tau_photon, TIME, "tau_photon")
    return _scale("doppler error",
                  C / _scale("2 omega tau", 2.0 * omega * tau_photon))


def doppler_back_action(omega: Quantity, M: Quantity) -> Quantity:
    """Velocity kick from one scattered probe photon, 2 hbar omega / (c M)."""
    _require_positive(omega, PER_SECOND, "omega")
    _require_positive(M, MASS, "M")
    return _scale("back-action", 2.0 * HBAR * omega / _scale("c M", C * M))


def _doppler_bounds(M, v, D, L, hbar, c, sqrt, scale) -> tuple:
    """(omega_low, omega_high) of the speed meter, open window or not."""
    omega_low = scale("omega_low", 2.0 * c / D)
    p = scale("p = M v", M * v)
    hbar_l = scale("2 hbar L", 2.0 * hbar * L)
    omega_high = scale("omega_high", sqrt(p * c ** 2 / hbar_l))
    return omega_low, omega_high


def doppler_window(spec: FreeFlightSpec) -> tuple[Quantity, Quantity] | None:
    """Usable photon frequencies for the speed meter, or None when closed.

    Lower bound 2c/D: the resolution requirement error <= v*theta/2 within
    the flight-time duration budget.  Upper bound sqrt(p c^2 / (2 hbar L)):
    the recoil must stay below half the resolution.  The bounds are taken
    on the spec's Quantities, so each carries its derived dimension.
    """
    omega_low, omega_high = _doppler_bounds(
        spec.mass, spec.speed, spec.slit_separation, spec.source_distance,
        HBAR, C, Quantity.sqrt, _scale)
    if omega_low > omega_high:
        return None
    return omega_low, omega_high


def _check_free_flight(M, v, D, L, d) -> None:
    """The free flight's value checks, on SI floats: every input positive
    and finite, d < D < L, and v < c."""
    _positive("mass", M)
    _positive("speed", v)
    _positive("slit_separation", D)
    _positive("source_distance", L)
    _positive("slit_width", d)
    _require(d < D, "slit_width must be smaller than slit_separation")
    _require(D < L, "slit_separation must be smaller than source_distance")
    _require(v < C.value, "speed must be below c")


def _free_flight(M, v, D, L, d, *, hbar=HBAR.value, c=C.value,
                 sqrt=math.sqrt, scale=_in_range):
    """The free flight's kernel: the speed meter's window, theta = D / L,
    the flight time L / v and the window margin p theta D / (8 hbar); d
    is unused, taken to share `_check_free_flight`'s signature."""
    omega_low, omega_high = _doppler_bounds(M, v, D, L, hbar, c, sqrt, scale)
    p = M * v
    theta = scale("theta", D / L)
    flight_time = scale("flight_time", L / v)
    margin = scale("window_margin", p * D / (8.0 * hbar) * theta)
    closed = omega_low > omega_high
    tau = None if closed else scale("tau",
                                    2.0 * c / (omega_high * v * theta))
    return closed, tau, margin, {
        "p": p, "theta": theta, "omega_low": omega_low,
        "omega_high": omega_high, "flight_time": flight_time,
        "window_margin": margin}


def free_flight_tau(spec: FreeFlightSpec) -> DiscriminationVerdict:
    """Doppler speed-meter discrimination of the two slit trajectories.

    With the window open, the verdict time is tau = 2c/(omega_high v theta):
    the shortest photon duration that resolves v*theta/2 at the highest
    admissible frequency, doubled for send plus receive.  At the threshold
    p*theta*D = 8*hbar this equals the flight time L/v exactly, so one
    flight attenuates the coherence by 1/e.
    """
    return DiscriminationVerdict(*_outcome(*_free_flight(*spec._values())))


def free_flight_critical_mass(v: Quantity, theta: float, D: Quantity) -> Quantity:
    """Mass at which the speed-meter window just opens: M* = 8 hbar / (v theta D)."""
    _require_positive(v, SPEED, "v")
    _require(v < C, "v must be below c")
    _check_theta(theta)
    _require_positive(D, LENGTH, "D")
    return _scale("M*", 8.0 * HBAR / _scale("v theta D", v * theta * D))


def _check_theta(theta) -> None:
    """The angle theta = D / L of the free-flight closed forms, in (0, 1)."""
    try:
        if 0.0 < theta < 1.0:
            return
        bound = "in (0, 1)"
    except TypeError:
        bound = "a real number"
    raise ValidationError(f"theta must be {bound}, got {theta!r}")


def photon_tau() -> DiscriminationVerdict:
    """A flying photon's trajectory can only be known after the flight.

    No measurement can finish before the photon itself arrives, so the
    trajectories are never discriminable in flight and the coherence length
    is unbounded, regardless of arm length.
    """
    return _quantum_verdict(Reason.PHOTON_FLIGHT_TIME)


def rabi_tau(resonant_gap: Quantity) -> DiscriminationVerdict:
    """Driven two-level system near resonance: no readable state exists.

    Resolving the adiabatic states needs a probe far above the splitting
    |E2 - E1|, which would destroy the system, so the superposition is
    protected for any positive gap.
    """
    _require_positive(resonant_gap, ENERGY, "resonant_gap")
    return _quantum_verdict(Reason.RABI_PROBE_DESTROYS,
                            [("resonant_gap", resonant_gap)])


def _check_oscillator(M, omega0, n) -> None:
    """The oscillator's value checks, on SI floats: M and omega0 positive
    and finite, and n a finite real number >= 0."""
    _positive("mass", M)
    _positive("angular_frequency", omega0)
    try:
        if 0 <= n < math.inf:
            return
        bound = ">= 0" if n < 0 else "finite"
    except TypeError:
        bound = "a real number"
    raise ValidationError(f"quantum_number must be {bound}, got {n!r}")


def _oscillator(M, omega0, n, *, hbar=HBAR.value, c=C.value, sqrt=math.sqrt,
                power=pow, scale=_in_range):
    """The oscillator's kernel: r0, v0 and the threshold n* of
    `oscillator_verdict`, and v_n = sqrt(n) v0."""
    two_m_omega = scale("2 M omega0", 2.0 * M * omega0)
    r0 = scale("r0", sqrt(hbar / two_m_omega))
    v0 = scale("v0", r0 * omega0)
    n_star = scale("n_star", power(4.0 * PI * c / v0, 2.0 / 3.0))
    # n <= n*; n_star > 0, so the window is closed at n = 0 too.
    closed = not n > n_star
    tau = None if closed else scale("tau", 4.0 * PI / (n * omega0))
    return closed, tau, n / n_star, {
        "r0": r0, "v0": v0, "n_star": n_star, "v_n": sqrt(n) * v0}


def oscillator_verdict(spec: OscillatorSpec) -> DiscriminationVerdict:
    """Position readout of a mechanical oscillator in number state n.

    Amplitudes: r0 = sqrt(hbar / (2 M omega0)) (zero-point), rn = sqrt(n) r0,
    velocity v0 = r0 omega0.  Resolving rn/2 needs photon energy
    4 pi hbar c / (sqrt(n) r0), which stays below the oscillator energy
    n hbar omega0 only for n > n* = (4 pi c / v0)^(2/3).  The 4 pi factor is
    kept from that derivation even though order-of-magnitude statements of
    the threshold drop it.  Low-lying states (any n <= n*, in particular
    n = 0) are quantum no matter how heavy the oscillator.  Above n*, the
    minimal send-plus-receive probe time at the gentlest usable frequency
    is tau = 4 pi / (n omega0).
    """
    return DiscriminationVerdict(*_outcome(*_oscillator(*spec._values())))


def build_rate_matrix(basis: tuple[str, ...],
                      pair_verdicts: dict) -> CollapseRateMatrix:
    """Assemble 1/tau_ij from per-pair verdicts; unlisted pairs stay at 0.

    Keys are (i, j) pairs of names or indices with i != j; each unordered
    pair may appear once.
    """
    n = len(basis)
    rates = np.zeros((n, n))
    seen = set()
    for (a, b), verdict in pair_verdicts.items():
        i, j = index_of(basis, a), index_of(basis, b)
        if i == j:
            raise ValidationError(f"rate requires two distinct states, got ({a}, {b})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValidationError(f"duplicate verdict for pair {key}")
        seen.add(key)
        rate = verdict.rate.value
        rates[i, j] = rate
        rates[j, i] = rate
    return CollapseRateMatrix(basis, rates)
