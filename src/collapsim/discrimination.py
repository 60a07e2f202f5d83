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

A sweep passes the three scenarios with a window (trapped, free flight,
oscillator) a spec whose swept parameter holds a whole grid (a
`units.PointwiseArray`).  Each check then judges every point, the
window's open/closed test is a mask, and the verdict is the list of the
points' verdicts (or one verdict, when no formula reads the swept
parameter).  A failed check's message need not name the first bad point;
`boundary.sweep` asks that point alone for it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .states import CollapseRateMatrix, index_of
from .units import (C, ENERGY, HBAR, LENGTH, MASS, PER_SECOND, PI, SPEED,
                    TIME, Quantity, preferred_unit)


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


def _holds(condition) -> bool:
    """Whether a check holds: condition, or for an array of conditions (one
    per grid point) whether every one does.  The checks below test
    `condition is True` first, which settles every passing scalar check
    without a call, since bisection makes thousands of them."""
    return condition is True or (condition is not False
                                 and bool(condition.all()))


def _require(condition, message: str) -> None:
    if condition is not True and not _holds(condition):
        raise ValidationError(message)


# These two run on every spec a sweep builds, so their messages are
# formatted only when a check fails.
def _require_dim(q: Quantity, dim, name: str) -> None:
    if q.dim != dim:
        raise ValidationError(f"{name} must have dimension {dim.si_name()}, "
                              f"got {q.dim.si_name()}")


def _require_positive(q: Quantity, dim, name: str) -> None:
    _require_dim(q, dim, name)
    value = q.value
    valid = (value > 0.0) & (value < math.inf)
    if valid is True or _holds(valid):
        return
    if not _holds(value > 0.0):
        raise ValidationError(f"{name} must be positive, got {value!r}")
    raise ValidationError(f"{name} must be finite, got {value!r}")


def _scale(name: str, q: Quantity) -> Quantity:
    """q, a scale derived from valid inputs, if it is positive and finite;
    one that underflows to 0 or overflows raises ValidationError naming it,
    before it can divide anything."""
    value = q.value
    valid = (value > 0.0) & (value < math.inf)
    if valid is True or _holds(valid):
        return q
    raise ValidationError(
        f"{name} {'overflows' if _holds(value != 0.0) else 'underflows to 0'}")


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


def _finite_verdict(tau: Quantity, margin: float, derivation) -> DiscriminationVerdict:
    regime = Regime.MARGINAL if margin < MARGINAL_BAND else Regime.CLASSICAL
    return DiscriminationVerdict(_scale("tau", tau), regime,
                                 Reason.DISCRIMINABLE, tuple(derivation))


def _quantum_verdict(reason: Reason, derivation=()) -> DiscriminationVerdict:
    return DiscriminationVerdict(INFINITE_TAU, Regime.QUANTUM, reason,
                                 tuple(derivation))


def _window_verdict(closed, tau, margin, derivation):
    """Quantum where the probe window is closed, else finite at tau() with
    its deciding ratio margin.  tau is called only when the window of a
    single point is open, since at a closed one it may not be computable.

    Over a grid, closed is a bool array; the result is each point's
    verdict in a list, tau() and margin are taken over the whole grid, and
    each entry of the derivation is one Quantity or an array of them."""
    if not isinstance(closed, np.ndarray):
        if closed:
            return _quantum_verdict(Reason.WINDOW_CLOSED, derivation)
        return _finite_verdict(tau(), margin, derivation)
    tau = tau()
    shape = closed.shape
    # One column of (symbol, Quantity) pairs per entry; a point's
    # derivation is its row.
    columns = [[(sym, q)] * shape[0] if not isinstance(q.value, np.ndarray)
               else [(sym, Quantity(x, q.dim)) for x in q.value.tolist()]
               for sym, q in derivation]
    return [_quantum_verdict(Reason.WINDOW_CLOSED, row) if is_closed else
            _finite_verdict(Quantity(t, tau.dim), m, row)
            for is_closed, t, m, row in zip(
                closed.tolist(), np.broadcast_to(tau.value, shape).tolist(),
                np.broadcast_to(margin, shape).tolist(), zip(*columns))]


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
        _require_positive(self.mass, MASS, "mass")
        _require_positive(self.mean_velocity, SPEED, "mean_velocity")
        _require(self.mean_velocity < C, "mean_velocity must be below c")
        _require_positive(self.separation, LENGTH, "separation")
        if self.energy_gap is not None:
            _require_positive(self.energy_gap, ENERGY, "energy_gap")
        _require(math.isfinite(self.margin),
                 f"margin must be finite, got {self.margin}")
        _require(self.margin >= 1.0, f"margin must be >= 1, got {self.margin}")


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
        _require_positive(self.mass, MASS, "mass")
        _require_positive(self.speed, SPEED, "speed")
        _require_positive(self.slit_separation, LENGTH, "slit_separation")
        _require_positive(self.source_distance, LENGTH, "source_distance")
        _require_positive(self.slit_width, LENGTH, "slit_width")
        _require(self.slit_width < self.slit_separation,
                 "slit_width must be smaller than slit_separation")
        _require(self.slit_separation < self.source_distance,
                 "slit_separation must be smaller than source_distance")
        _require(self.speed < C, "speed must be below c")

    @property
    def theta(self) -> float:
        return (self.slit_separation / self.source_distance).value


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
        _require_positive(self.mass, MASS, "mass")
        _require_positive(self.angular_frequency, PER_SECOND, "angular_frequency")
        n = self.quantum_number
        if not _holds(n >= 0):
            raise ValidationError(f"quantum_number must be >= 0, got {n}")
        if not _holds(n < math.inf):
            raise ValidationError(f"quantum_number must be finite, got {n}")


def trapped_tau(spec: TrappedPairSpec) -> DiscriminationVerdict:
    """Heisenberg-microscope discrimination of the two trap states.

    The probe must satisfy hbar*omega <= E/eta (gentleness) and
    lambda = 2 pi c / omega < D/2 (resolution), which opens a window
    [omega_min, omega_max] = [4 pi c / D, E / (hbar eta)].  When the window
    is open, the minimal send-plus-receive time at the gentlest usable
    setting is tau = 4 pi / omega_max.
    """
    energy = spec.energy_gap
    if energy is None:
        energy = _scale("E = M v^2", spec.mass * spec.mean_velocity ** 2)
    omega_max = _scale("omega_max", energy / (HBAR * spec.margin))
    omega_min = _scale("omega_min", 4.0 * PI * C / spec.separation)
    lam = _scale("lambda", 2.0 * PI * C / omega_max)
    derivation = [("E", energy), ("omega_min", omega_min),
                  ("omega_max", omega_max), ("lambda", lam)]
    return _window_verdict(omega_min > omega_max, lambda: 4.0 * PI / omega_max,
                           omega_max.value / omega_min.value, derivation)


def trapped_critical_mass(v: Quantity, D: Quantity, eta: float = 1.0) -> Quantity:
    """Mass at which the trapped window just opens: M* = 4 pi hbar c eta / (D v^2).

    At M*, the gap estimate E = M v^2 satisfies E*D = 4 pi hbar c eta.
    """
    _require_positive(v, SPEED, "v")
    _require(v < C, "v must be below c")
    _require_positive(D, LENGTH, "D")
    _require(math.isfinite(eta), f"eta must be finite, got {eta}")
    _require(eta >= 1.0, f"eta must be >= 1, got {eta}")
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


def _doppler_bounds(spec: FreeFlightSpec) -> tuple[Quantity, Quantity]:
    """(omega_low, omega_high) of the speed meter, open window or not."""
    omega_low = _scale("omega_low", 2.0 * C / spec.slit_separation)
    p = _scale("p = M v", spec.mass * spec.speed)
    hbar_l = _scale("2 hbar L", 2.0 * HBAR * spec.source_distance)
    omega_high = _scale("omega_high", (p * C ** 2 / hbar_l).sqrt())
    return omega_low, omega_high


def doppler_window(spec: FreeFlightSpec) -> tuple[Quantity, Quantity] | None:
    """Usable photon frequencies for the speed meter, or None when closed.

    Lower bound 2c/D: the resolution requirement error <= v*theta/2 within
    the flight-time duration budget.  Upper bound sqrt(p c^2 / (2 hbar L)):
    the recoil must stay below half the resolution.
    """
    omega_low, omega_high = _doppler_bounds(spec)
    if omega_low > omega_high:
        return None
    return omega_low, omega_high


def free_flight_tau(spec: FreeFlightSpec) -> DiscriminationVerdict:
    """Doppler speed-meter discrimination of the two slit trajectories.

    With the window open, the verdict time is tau = 2c/(omega_high v theta):
    the shortest photon duration that resolves v*theta/2 at the highest
    admissible frequency, doubled for send plus receive.  At the threshold
    p*theta*D = 8*hbar this equals the flight time L/v exactly, so one
    flight attenuates the coherence by 1/e.
    """
    omega_low, omega_high = _doppler_bounds(spec)
    p = spec.mass * spec.speed
    theta = _scale("theta", Quantity(spec.theta))
    flight_time = _scale("flight_time", spec.source_distance / spec.speed)
    margin = _scale("window_margin", p * spec.slit_separation / (8.0 * HBAR)
                    * theta).value
    derivation = [("p", p), ("theta", theta),
                  ("omega_low", omega_low), ("omega_high", omega_high),
                  ("flight_time", flight_time),
                  ("window_margin", Quantity(margin))]
    return _window_verdict(
        omega_low > omega_high,
        lambda: 2.0 * C / (omega_high * spec.speed * theta), margin,
        derivation)


def free_flight_critical_mass(v: Quantity, theta: float, D: Quantity) -> Quantity:
    """Mass at which the speed-meter window just opens: M* = 8 hbar / (v theta D)."""
    _require_positive(v, SPEED, "v")
    _require(v < C, "v must be below c")
    _require(0.0 < theta < 1.0, f"theta must be in (0, 1), got {theta}")
    _require_positive(D, LENGTH, "D")
    return _scale("M*", 8.0 * HBAR / _scale("v theta D", v * theta * D))


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
    two_m_omega = _scale("2 M omega0",
                         2.0 * spec.mass * spec.angular_frequency)
    r0 = _scale("r0", (HBAR / two_m_omega).sqrt())
    v0 = _scale("v0", r0 * spec.angular_frequency)
    n_star = _scale("n_star",
                    Quantity((4.0 * PI * C / v0).value ** (2.0 / 3.0)))
    n = Quantity(spec.quantum_number)
    derivation = [("r0", r0), ("v0", v0), ("n_star", n_star),
                  ("v_n", n.sqrt() * v0)]
    # n_star > 0, so the window is closed at n = 0 too.
    return _window_verdict(
        n.value <= n_star.value,
        lambda: 4.0 * PI / (n * spec.angular_frequency),
        n.value / n_star.value, derivation)


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
