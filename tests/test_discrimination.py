import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from collapsim import discrimination
from collapsim.discrimination import (MARGINAL_BAND, DiscriminationVerdict,
                                      FreeFlightSpec, OscillatorSpec, Reason,
                                      Regime, TrappedPairSpec,
                                      ValidationError,
                                      build_rate_matrix, doppler_back_action,
                                      doppler_error, doppler_window,
                                      free_flight_critical_mass,
                                      free_flight_tau, oscillator_verdict,
                                      photon_tau, rabi_tau,
                                      trapped_critical_mass, trapped_tau)
from collapsim.states import make_basis
from collapsim.units import (C, DIMENSIONLESS, ENERGY, HBAR, LENGTH, MASS,
                             PER_SECOND, PI, SPEED, TIME, Quantity,
                             parse_quantity, quantity)

HBAR_V = 1.054571817e-34
C_V = 2.99792458e8
GEV = 1.78266192e-27


def trapped(mass_gev, v=100.0, D=1e-5, **kw):
    return TrappedPairSpec(mass=quantity(mass_gev, "GeV/c2"),
                           mean_velocity=quantity(v, "m/s"),
                           separation=quantity(D, "m"), **kw)


def free_flight(mass_gev, v=1e3, D=1e-5, L=1.0, d=1e-6):
    return FreeFlightSpec(mass=quantity(mass_gev, "GeV/c2"),
                          speed=quantity(v, "m/s"),
                          slit_separation=quantity(D, "m"),
                          source_distance=quantity(L, "m"),
                          slit_width=quantity(d, "m"))


def oscillator(mass_kg, omega, n):
    return oscillator_verdict(OscillatorSpec(
        mass=quantity(mass_kg, "kg"),
        angular_frequency=quantity(omega, "rad/s"), quantum_number=n))


def oscillator_n_star(mass_kg, omega):
    """The threshold n* of the oscillator's own derivation."""
    return dict(oscillator(mass_kg, omega, 0).derivation)["n_star"].value


# A valid spec of each class; one field at a time is replaced below.
VALID_SPECS = {
    TrappedPairSpec: dict(mass=quantity(1, "kg"),
                          mean_velocity=quantity(100, "m/s"),
                          separation=quantity(10, "um"),
                          energy_gap=quantity(1, "eV")),
    FreeFlightSpec: dict(mass=quantity(1, "kg"), speed=quantity(1e3, "m/s"),
                         slit_separation=quantity(10, "um"),
                         source_distance=quantity(1, "m"),
                         slit_width=quantity(1, "um")),
    OscillatorSpec: dict(mass=quantity(40, "kg"),
                         angular_frequency=quantity(6.283, "rad/s"),
                         quantum_number=0),
}


@pytest.mark.parametrize("cls, field, unit, si_name", [
    (TrappedPairSpec, "mass", "kg", "kg"),
    (TrappedPairSpec, "mean_velocity", "m/s", "m s^-1"),
    (TrappedPairSpec, "separation", "m", "m"),
    (TrappedPairSpec, "energy_gap", "J", "kg m^2 s^-2"),
    (FreeFlightSpec, "speed", "m/s", "m s^-1"),
    (OscillatorSpec, "angular_frequency", "rad/s", "s^-1"),
], ids=lambda v: v.__name__ if isinstance(v, type) else v)
def test_validation_messages_are_exact(cls, field, unit, si_name):
    wrong = "s" if unit == "m" else "m"
    cases = [
        (quantity(1, wrong),
         f"{field} must have dimension {si_name}, got {wrong}"),
        (quantity(0, unit), f"{field} must be positive, got 0.0"),
        (quantity(-1, unit), f"{field} must be positive, got -1.0"),
        (quantity(math.inf, unit), f"{field} must be finite, got inf"),
        (quantity(math.nan, unit), f"{field} must be finite, got nan"),
    ]
    for value, message in cases:
        with pytest.raises(ValidationError) as info:
            cls(**{**VALID_SPECS[cls], field: value})
        assert str(info.value) == message


# A spec wrong in two ways, a bad value in one field and a bad dimension
# in a later one, reports the dimension: each spec checks every field's
# dimension before any value.
@pytest.mark.parametrize("cls, wrong, message", [
    (TrappedPairSpec, dict(mass=quantity(-1, "kg"),
                           energy_gap=quantity(1, "m")),
     "energy_gap must have dimension kg m^2 s^-2, got m"),
    (TrappedPairSpec, dict(mean_velocity=quantity(4e8, "m/s"),
                           separation=quantity(1, "s")),
     "separation must have dimension m, got s"),
    (FreeFlightSpec, dict(slit_separation=quantity(2, "m"),
                          slit_width=quantity(1, "s")),
     "slit_width must have dimension m, got s"),
    (OscillatorSpec, dict(mass=quantity(-1, "kg"),
                          angular_frequency=quantity(1, "m")),
     "angular_frequency must have dimension s^-1, got m"),
], ids=["trapped-mass", "trapped-speed", "free-flight", "oscillator"])
def test_dimensions_are_checked_before_values(cls, wrong, message):
    with pytest.raises(ValidationError) as info:
        cls(**{**VALID_SPECS[cls], **wrong})
    assert str(info.value) == message


@pytest.mark.parametrize("v", [C_V, 4e8], ids=["c", "above"])
def test_speed_at_or_above_c_rejected(v):
    speed, D = quantity(v, "m/s"), quantity(10, "um")
    cases = [
        (lambda: trapped(1.0, v=v), "mean_velocity must be below c"),
        (lambda: free_flight(1.0, v=v), "speed must be below c"),
        (lambda: trapped_critical_mass(speed, D), "v must be below c"),
        (lambda: free_flight_critical_mass(speed, 1e-5, D),
         "v must be below c"),
    ]
    for build, message in cases:
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message


class TestNonFinite:
    def test_infinite_mass_rejected(self):
        with pytest.raises(ValidationError, match="mass must be finite"):
            trapped(math.inf)

    def test_infinite_slit_distance_rejected(self):
        with pytest.raises(ValidationError, match="source_distance"):
            free_flight(1.0, L=math.inf)

    def test_infinite_quantum_number_rejected(self):
        with pytest.raises(ValidationError, match="quantum_number must be finite"):
            OscillatorSpec(mass=quantity(40, "kg"),
                           angular_frequency=quantity(6.283, "rad/s"),
                           quantum_number=math.inf)

    def test_nan_quantum_number_rejected(self):
        with pytest.raises(ValidationError) as info:
            OscillatorSpec(mass=quantity(40, "kg"),
                           angular_frequency=quantity(6.283, "rad/s"),
                           quantum_number=math.nan)
        assert str(info.value) == "quantum_number must be finite, got nan"

    def test_infinite_margin_rejected(self):
        with pytest.raises(ValidationError, match="^margin eta must be "
                           "finite, got inf$"):
            trapped(2000.0, margin=math.inf)

    def test_infinite_critical_mass_eta_rejected(self):
        with pytest.raises(ValidationError, match="^margin eta must be "
                           "finite, got inf$"):
            trapped_critical_mass(quantity(100, "m/s"), quantity(10, "um"),
                                  math.inf)

    @pytest.mark.parametrize("build", [
        lambda eta: trapped(2000.0, margin=eta),
        lambda eta: trapped_critical_mass(quantity(100, "m/s"),
                                          quantity(10, "um"), eta),
    ], ids=["spec", "critical-mass"])
    def test_margin_below_one_rejected(self, build):
        with pytest.raises(ValidationError, match=re.escape(
                "margin eta must be >= 1, got 0.5") + "$"):
            build(0.5)


# Valid inputs whose derived scale underflows to 0 or overflows; each is
# refused by name before it can divide anything.
SCALE_CASES = [
    (lambda: trapped_tau(trapped(1.0, v=1e-300)), "E = M v^2 underflows to 0"),
    (lambda: trapped_tau(trapped(1.0, energy_gap=quantity(1e300, "J"))),
     "omega_max overflows"),
    (lambda: trapped_tau(trapped(1.0, energy_gap=quantity(1e-300, "J"),
                                 margin=1e300)),
     "omega_max underflows to 0"),
    (lambda: trapped_tau(trapped(1.0, D=1e-300)), "omega_min overflows"),
    (lambda: free_flight_tau(free_flight(1.0, D=1e-310, d=1e-311)),
     "omega_low overflows"),
    (lambda: free_flight_tau(free_flight(1.0, D=1e-299, L=2e-299,
                                         d=1e-300)),
     "2 hbar L underflows to 0"),
    (lambda: free_flight_tau(FreeFlightSpec(
        Quantity(1e300, MASS), Quantity(1e-300, SPEED),
        Quantity(1e5, LENGTH), Quantity(1e10, LENGTH), Quantity(1.0, LENGTH))),
     "flight_time overflows"),
    (lambda: oscillator_verdict(OscillatorSpec(
        quantity(1e-300, "kg"), quantity(1e-300, "rad/s"), 7)),
     "2 M omega0 underflows to 0"),
    (lambda: oscillator_verdict(OscillatorSpec(
        quantity(1, "kg"), quantity(1e300, "rad/s"), 7)),
     "r0 underflows to 0"),
    (lambda: oscillator_verdict(OscillatorSpec(
        quantity(1, "kg"), quantity(1e10, "rad/s"), 1e300)),
     "tau underflows to 0"),
]


@pytest.mark.parametrize("verdict, message", SCALE_CASES,
                         ids=[message for _, message in SCALE_CASES])
def test_derived_scale_out_of_range_is_named(verdict, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        verdict()


# Closed forms whose divisor or result underflows to 0 or overflows, and
# the rate of a verdict built with a finite tau out of range; each is
# refused by name instead of dividing by zero or returning inf.
CLOSED_FORM_CASES = [
    (lambda: trapped_critical_mass(quantity(1e-300, "m/s"),
                                   quantity(10, "um")),
     "D v^2 underflows to 0"),
    (lambda: trapped_critical_mass(quantity(1e-150, "m/s"),
                                   quantity(1, "m"), 1e300),
     "M* overflows"),
    (lambda: free_flight_critical_mass(quantity(1e-300, "m/s"), 1e-300,
                                       quantity(1e-300, "m")),
     "v theta D underflows to 0"),
    (lambda: free_flight_critical_mass(quantity(1e8, "m/s"), 0.5,
                                       quantity(1e300, "m")),
     "M* underflows to 0"),
    (lambda: doppler_error(quantity(1e-300, "1/s"), quantity(1e-300, "s")),
     "2 omega tau underflows to 0"),
    (lambda: doppler_error(quantity(1e-160, "1/s"), quantity(1e-160, "s")),
     "doppler error overflows"),
    (lambda: doppler_back_action(quantity(1e300, "1/s"),
                                 quantity(1e-300, "kg")),
     "back-action overflows"),
    (lambda: DiscriminationVerdict(Quantity(0.0, TIME), Regime.CLASSICAL,
                                   Reason.DISCRIMINABLE).rate,
     "tau must be positive, got 0.0"),
    (lambda: DiscriminationVerdict(Quantity(-1.0, TIME), Regime.CLASSICAL,
                                   Reason.DISCRIMINABLE).rate,
     "tau must be positive, got -1.0"),
    (lambda: DiscriminationVerdict(Quantity(1e-320, TIME), Regime.CLASSICAL,
                                   Reason.DISCRIMINABLE).rate,
     "1/tau overflows"),
]


@pytest.mark.parametrize("value, message", CLOSED_FORM_CASES,
                         ids=[message for _, message in CLOSED_FORM_CASES])
def test_closed_form_scale_out_of_range_is_named(value, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        value()


decade = st.floats(min_value=-323, max_value=308)


@given(st.sampled_from(["trapped", "free-flight", "oscillator"]),
       st.lists(decade, min_size=5, max_size=5))
def test_valid_inputs_give_finite_scales_or_a_validation_error(kind, exps):
    m, v, x, y, z = (10.0 ** e for e in exps)
    try:
        mass, speed = Quantity(m, MASS), Quantity(min(v, 2e8), SPEED)
        if kind == "trapped":
            verdict = trapped_tau(TrappedPairSpec(
                mass, speed, Quantity(x, LENGTH), Quantity(y, ENERGY),
                margin=1.0 + z))
        elif kind == "free-flight":
            d, D, L = (Quantity(w, LENGTH) for w in sorted((x, y, z)))
            verdict = free_flight_tau(FreeFlightSpec(mass, speed, D, L, d))
        else:
            verdict = oscillator_verdict(OscillatorSpec(
                mass, Quantity(v, PER_SECOND), x))
    except ValidationError:
        return
    assert verdict.tau.value > 0.0 and verdict.rate.is_finite
    for symbol, q in verdict.derivation:
        assert math.isfinite(q.value), symbol
        assert q.value > 0.0 or symbol == "v_n", symbol


def dimensionless_power(q, exponent):
    assert q.dim is DIMENSIONLESS
    return Quantity(q.value ** exponent)


# Each kernel's inputs at an open window, and the keyword arguments besides
# hbar, c and the scale check that make it run on Quantities.
OPEN_WINDOWS = {
    "trapped": (discrimination._trapped,
                [quantity(1e6, "GeV/c2"), quantity(100, "m/s"),
                 quantity(10, "um"), None, 2.0], {}),
    "trapped-gap": (discrimination._trapped,
                    [quantity(1, "kg"), quantity(100, "m/s"),
                     quantity(10, "um"), quantity(1, "eV"), 1.0], {}),
    "free-flight": (discrimination._free_flight,
                    [quantity(100, "GeV/c2"), quantity(1e3, "m/s"),
                     quantity(10, "um"), quantity(1, "m"),
                     quantity(1, "um")],
                    {"sqrt": Quantity.sqrt}),
    "oscillator": (discrimination._oscillator,
                   [quantity(40, "kg"), quantity(6.283, "rad/s"),
                    Quantity(1e19)],
                   {"sqrt": Quantity.sqrt, "power": dimensionless_power}),
}


# The verdicts run each kernel on SI floats, so no call checks a derived
# dimension; this test does, once, by running the kernels on Quantities.
@pytest.mark.parametrize("kernel, args, ops", OPEN_WINDOWS.values(),
                         ids=OPEN_WINDOWS)
def test_kernels_derive_their_declared_dimensions(kernel, args, ops):
    closed, tau, margin, values = kernel(
        *args, hbar=HBAR, c=C, scale=discrimination._scale, **ops)
    assert closed is False
    assert tau.dim is TIME and margin.dim is DIMENSIONLESS
    assert {sym: q.dim for sym, q in values.items()} == \
        {sym: discrimination._DERIVATION_DIMENSIONS[sym] for sym in values}
    # On floats, the same formulas give the same bits.
    assert kernel(*[getattr(a, "value", a) for a in args]) == \
        (closed, tau.value, margin.value,
         {sym: q.value for sym, q in values.items()})


class TestTrapped:
    def test_boundary_case_tau_is_separation_over_c(self):
        # At E*D = 4 pi hbar c the window pinches to a point and both
        # branch expressions coincide: tau = 4 pi / omega_max = D / c.
        m_star = trapped_critical_mass(quantity(100, "m/s"), quantity(10, "um"))
        verdict = trapped_tau(trapped(m_star.to("GeV/c2") * (1 + 1e-12)))
        assert verdict.tau.value == pytest.approx(1e-5 / C_V, rel=1e-9, abs=0)
        assert verdict.tau.value == pytest.approx(3.3356e-14, rel=1e-4, abs=0)
        assert verdict.regime is Regime.MARGINAL
        assert verdict.reason is Reason.DISCRIMINABLE

    def test_light_particle_is_quantum(self):
        # E = 1.78e-23 J, E*D = 1.78e-28 J m, far below 3.97e-25 J m
        verdict = trapped_tau(trapped(1.0))
        assert verdict.is_infinite
        assert verdict.regime is Regime.QUANTUM
        derived = dict(verdict.derivation)
        assert derived["E"].value == pytest.approx(1.7826619200000001e-23,
                                                   rel=1e-12, abs=0)
        assert derived["E"].value * 1e-5 < 4 * PI * HBAR_V * C_V

    def test_slow_heavy_mass_stays_quantum(self):
        # v -> 0 admits superposition at any mass: a tonne-scale object at
        # 1e-15 m/s has E*D ~ 1e-29 J m, far below 4 pi hbar c
        verdict = trapped_tau(trapped(1e6 / GEV, v=1e-15))
        assert verdict.is_infinite

    def test_energy_override_is_used(self):
        spec = trapped(1.0, energy_gap=quantity(1e-15, "J"))
        verdict = trapped_tau(spec)
        assert not verdict.is_infinite
        assert dict(verdict.derivation)["E"].value == 1e-15

    def test_margin_shrinks_window(self):
        m_star = trapped_critical_mass(quantity(100, "m/s"), quantity(10, "um"))
        at_boundary = trapped(m_star.to("GeV/c2") * 1.5)
        assert not trapped_tau(at_boundary).is_infinite
        conservative = trapped(m_star.to("GeV/c2") * 1.5, margin=2.0)
        assert trapped_tau(conservative).is_infinite

    def test_derivation_symbols(self):
        verdict = trapped_tau(trapped(1e5))
        assert [s for s, _ in verdict.derivation] == \
            ["E", "omega_min", "omega_max", "lambda"]

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            trapped(-1.0)
        with pytest.raises(ValidationError):
            trapped(1.0, v=0.0)
        with pytest.raises(ValidationError):
            TrappedPairSpec(mass=quantity(1, "kg"),
                            mean_velocity=quantity(1, "m/s"),
                            separation=quantity(1, "um"), margin=0.5)


class TestTrappedCriticalMass:
    def test_fast_trap_boundary(self):
        m = trapped_critical_mass(quantity(100, "m/s"), quantity(10, "um"))
        assert m.to("GeV/c2") == pytest.approx(2228.628809137063,
                                               rel=1e-12, abs=0)
        assert 2.0e3 <= m.to("GeV/c2") <= 2.5e3

    def test_slow_trap_boundary(self):
        m = trapped_critical_mass(quantity(1, "m/s"), quantity(10, "um"))
        assert m.to("GeV/c2") == pytest.approx(2.2286288091370627e7,
                                               rel=1e-12, abs=0)
        assert 2.0e7 <= m.to("GeV/c2") <= 2.5e7

    def test_inverse_square_velocity_scaling(self):
        m100 = trapped_critical_mass(quantity(100, "m/s"), quantity(10, "um"))
        m200 = trapped_critical_mass(quantity(200, "m/s"), quantity(10, "um"))
        assert m200.value == pytest.approx(m100.value / 4.0, rel=1e-12, abs=0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            trapped_critical_mass(quantity(0, "m/s"), quantity(10, "um"))


class TestDoppler:
    def test_error_direct_arithmetic(self):
        # c / (2 * 1e15 * 1e-6) = c / 2e9
        err = doppler_error(quantity(1e15, "rad/s"), quantity(1e-6, "s"))
        assert err.value == pytest.approx(C_V / 2e9, rel=1e-12, abs=0)
        assert err.value == pytest.approx(0.149896229, rel=1e-9, abs=0)

    def test_error_scaling(self):
        base = doppler_error(quantity(1e15, "rad/s"), quantity(1e-6, "s"))
        assert doppler_error(quantity(1e15, "rad/s"), quantity(2e-6, "s")).value \
            == pytest.approx(base.value / 2)
        assert doppler_error(quantity(2e15, "rad/s"), quantity(1e-6, "s")).value \
            == pytest.approx(base.value / 2)

    def test_back_action_direct_arithmetic(self):
        kick = doppler_back_action(quantity(1e15, "rad/s"), quantity(1, "GeV/c2"))
        assert kick.value == pytest.approx(2 * HBAR_V * 1e15 / (C_V * GEV),
                                           rel=1e-12, abs=0)
        assert kick.value == pytest.approx(0.3947, rel=1e-3, abs=0)

    def test_back_action_scaling(self):
        base = doppler_back_action(quantity(1e15, "rad/s"), quantity(1, "GeV/c2"))
        assert doppler_back_action(quantity(2e15, "rad/s"),
                                   quantity(1, "GeV/c2")).value \
            == pytest.approx(2 * base.value)
        assert doppler_back_action(quantity(1e15, "rad/s"),
                                   quantity(2, "GeV/c2")).value \
            == pytest.approx(base.value / 2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            doppler_error(quantity(0, "rad/s"), quantity(1, "s"))
        with pytest.raises(ValidationError):
            doppler_back_action(quantity(1, "rad/s"), quantity(0, "kg"))


class TestDopplerWindow:
    def test_boundary_instance_pinches(self):
        # p D^2 / L = 8 hbar makes both bounds equal 2c/D
        m_star = free_flight_critical_mass(quantity(1e3, "m/s"), 1e-5,
                                           quantity(10, "um"))
        spec = free_flight(m_star.to("GeV/c2") * (1 + 1e-12))
        low, high = doppler_window(spec)
        assert low.value == pytest.approx(2 * C_V / 1e-5, rel=1e-12, abs=0)
        assert high.value == pytest.approx(low.value, rel=1e-6, abs=0)

    def test_light_mass_closed(self):
        assert doppler_window(free_flight(0.5)) is None

    def test_quadrupled_momentum_doubles_upper_bound(self):
        low1, high1 = doppler_window(free_flight(100.0))
        low4, high4 = doppler_window(free_flight(400.0))
        assert low4.value == low1.value
        assert high4.value == pytest.approx(2 * high1.value, rel=1e-12, abs=0)


class TestFreeFlight:
    def test_boundary_tau_equals_flight_time(self):
        m_star = free_flight_critical_mass(quantity(1e3, "m/s"), 1e-5,
                                           quantity(10, "um"))
        verdict = free_flight_tau(free_flight(m_star.to("GeV/c2") * (1 + 1e-12)))
        assert verdict.tau.value == pytest.approx(1.0 / 1e3, rel=1e-9, abs=0)
        assert verdict.regime is Regime.MARGINAL

    def test_heavy_mass_finite_and_classical(self):
        verdict = free_flight_tau(free_flight(100.0))
        assert not verdict.is_infinite
        assert verdict.tau.value < 1.0 / 1e3
        assert verdict.regime is Regime.CLASSICAL
        margin = dict(verdict.derivation)["window_margin"].value
        assert margin == pytest.approx(21.13, rel=1e-3, abs=0)

    def test_light_mass_quantum(self):
        verdict = free_flight_tau(free_flight(1.0))
        assert verdict.is_infinite
        assert verdict.reason is Reason.WINDOW_CLOSED
        margin = dict(verdict.derivation)["window_margin"].value
        assert margin == pytest.approx(0.2113, rel=1e-3, abs=0)

    def test_geometry_invariants_enforced(self):
        with pytest.raises(ValidationError):
            free_flight(100.0, d=2e-5)           # d >= D
        with pytest.raises(ValidationError):
            free_flight(100.0, D=2.0, d=1e-6)    # D >= L
        with pytest.raises(ValidationError):
            free_flight(100.0, v=3.1e8)          # v >= c


class TestFreeFlightCriticalMass:
    def test_typical_double_slit(self):
        m = free_flight_critical_mass(quantity(1e3, "m/s"), 1e-5,
                                      quantity(10, "um"))
        assert m.to("GeV/c2") == pytest.approx(4.732571241550949,
                                               rel=1e-12, abs=0)
        assert 4.5 <= m.to("GeV/c2") <= 5.0

    def test_halving_separation_doubles_mass(self):
        m1 = free_flight_critical_mass(quantity(1e3, "m/s"), 1e-5,
                                       quantity(10, "um"))
        m2 = free_flight_critical_mass(quantity(1e3, "m/s"), 1e-5,
                                       quantity(5, "um"))
        assert m2.value == pytest.approx(2 * m1.value, rel=1e-12, abs=0)

    def test_only_theta_times_separation_matters(self):
        m1 = free_flight_critical_mass(quantity(1e3, "m/s"), 1e-5,
                                       quantity(10, "um"))
        m2 = free_flight_critical_mass(quantity(1e3, "m/s"), 2e-5,
                                       quantity(5, "um"))
        assert m2.value == pytest.approx(m1.value, rel=1e-12, abs=0)


class TestPhotonAndRabi:
    def test_photon_always_infinite(self):
        verdict = photon_tau()
        assert verdict.is_infinite
        assert verdict.regime is Regime.QUANTUM
        assert verdict.reason is Reason.PHOTON_FLIGHT_TIME
        assert verdict.rate.value == 0.0

    def test_rabi_any_gap_infinite(self):
        for gap in ("1e-30 J", "1 eV", "1e6 eV"):
            verdict = rabi_tau(parse_quantity(gap))
            assert verdict.is_infinite
            assert verdict.reason is Reason.RABI_PROBE_DESTROYS

    def test_rabi_zero_gap_rejected(self):
        with pytest.raises(ValidationError):
            rabi_tau(quantity(0, "J"))

    def test_rabi_infinite_gap_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            rabi_tau(quantity(math.inf, "J"))


class TestOscillator:
    def test_ground_state_quantum_no_matter_how_heavy(self):
        for mass_kg in (1e-27, 1e-15, 1.0, 40.0, 1e2):
            spec = OscillatorSpec(mass=quantity(mass_kg, "kg"),
                                  angular_frequency=quantity(2 * math.pi, "rad/s"),
                                  quantum_number=0)
            assert oscillator_verdict(spec).is_infinite

    def test_threshold_constant(self):
        # v0 = 1 m/s: n* = (4 pi c)^(2/3); the order-of-magnitude quote
        # (c/v0)^(2/3) sits a factor (4 pi)^(2/3) below it.
        omega0 = 1.0
        mass = HBAR_V / 2.0     # makes r0 = 1 m, v0 = 1 m/s at omega0 = 1
        spec = OscillatorSpec(mass=quantity(mass, "kg"),
                              angular_frequency=quantity(omega0, "rad/s"),
                              quantum_number=0)
        derived = dict(oscillator_verdict(spec).derivation)
        assert derived["v0"].value == pytest.approx(1.0, rel=1e-12, abs=0)
        n_star = derived["n_star"].value
        assert n_star == pytest.approx((4 * PI * C_V) ** (2 / 3),
                                       rel=1e-12, abs=0)
        assert n_star == pytest.approx(2.42e6, rel=1e-2, abs=0)
        assert n_star / C_V ** (2 / 3) == pytest.approx((4 * PI) ** (2 / 3),
                                                        rel=1e-12, abs=0)

    def test_deep_classical_side(self):
        mass = HBAR_V / 2.0
        spec0 = OscillatorSpec(mass=quantity(mass, "kg"),
                               angular_frequency=quantity(1.0, "rad/s"),
                               quantum_number=0)
        n_star = dict(oscillator_verdict(spec0).derivation)["n_star"].value
        spec = OscillatorSpec(mass=quantity(mass, "kg"),
                              angular_frequency=quantity(1.0, "rad/s"),
                              quantum_number=int(100 * n_star))
        verdict = oscillator_verdict(spec)
        assert verdict.regime is Regime.CLASSICAL
        assert verdict.tau.value == pytest.approx(
            4 * PI / int(100 * n_star), rel=1e-12, abs=0)

    def test_marginal_band(self):
        mass = HBAR_V / 2.0
        spec0 = OscillatorSpec(mass=quantity(mass, "kg"),
                               angular_frequency=quantity(1.0, "rad/s"),
                               quantum_number=0)
        n_star = dict(oscillator_verdict(spec0).derivation)["n_star"].value
        spec = OscillatorSpec(mass=quantity(mass, "kg"),
                              angular_frequency=quantity(1.0, "rad/s"),
                              quantum_number=int(1.5 * n_star))
        assert oscillator_verdict(spec).regime is Regime.MARGINAL

    def test_margin_at_the_band_is_classical(self):
        # margin = n / n*: exactly MARGINAL_BAND at n = 2 n*, and the next
        # float below 2 n* falls inside the band.
        n_star = oscillator_n_star(HBAR_V / 2.0, 1.0)
        at_band = oscillator(HBAR_V / 2.0, 1.0, MARGINAL_BAND * n_star)
        assert at_band.regime is Regime.CLASSICAL
        below = np.nextafter(MARGINAL_BAND * n_star, 0.0)
        assert oscillator(HBAR_V / 2.0, 1.0, below).regime is Regime.MARGINAL

    @given(st.floats(1e-30, 1e3), st.floats(1e-3, 1e6),
           st.floats(0.5, 2.0))
    @example(HBAR_V / 2.0, 1.0, 1.0)
    @example(1.0, 2 * math.pi, 1.0)
    @example(1e-25, 1e5, 1.0)
    def test_quantum_up_to_n_star_inclusive(self, mass, omega, factor):
        # "allowed if E D <= 4 pi hbar c": n = n* itself is still quantum.
        n_star = oscillator_n_star(mass, omega)
        n = factor * n_star
        assert oscillator(mass, omega, n).is_infinite == (n <= n_star)
        assert oscillator(mass, omega, n_star).is_infinite
        assert not oscillator(mass, omega,
                              np.nextafter(n_star, math.inf)).is_infinite

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            OscillatorSpec(mass=quantity(1, "kg"),
                           angular_frequency=quantity(1, "rad/s"),
                           quantum_number=-1)


@pytest.mark.parametrize("tau, regime", [
    (Quantity(math.inf, TIME), Regime.CLASSICAL),
    (Quantity(1.0, TIME), Regime.QUANTUM)], ids=["infinite", "finite"])
def test_verdict_tau_must_match_its_regime(tau, regime):
    with pytest.raises(ValidationError, match="^tau is infinite iff regime "
                       "is quantum$"):
        DiscriminationVerdict(tau, regime, Reason.WINDOW_CLOSED)


class TestRateMatrixBuilder:
    def test_two_level(self):
        basis = make_basis("here", "there")
        one_second = DiscriminationVerdict(quantity(1, "s"), Regime.CLASSICAL,
                                           Reason.DISCRIMINABLE)
        m = build_rate_matrix(basis, {("here", "there"): one_second})
        assert m.rates.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_no_verdicts_gives_pure_schroedinger_limit(self):
        basis = make_basis("a", "b", "c")
        m = build_rate_matrix(basis, {})
        assert not m.rates.any()

    def test_three_level_single_pair(self):
        basis = make_basis("a", "b", "c")
        verdict = DiscriminationVerdict(quantity(0.5, "s"), Regime.CLASSICAL,
                                        Reason.DISCRIMINABLE)
        m = build_rate_matrix(basis, {("a", "c"): verdict})
        assert m.rates[0, 2] == m.rates[2, 0] == 2.0
        assert np.count_nonzero(m.rates) == 2

    def test_duplicate_pair_rejected(self):
        basis = make_basis("a", "b")
        with pytest.raises(ValidationError, match=r"^duplicate verdict for "
                           r"pair \(0, 1\)$"):
            build_rate_matrix(basis, {("a", "b"): photon_tau(),
                                      (1, "a"): photon_tau()})

    def test_diagonal_pair_rejected(self):
        basis = make_basis("a", "b")
        verdict = photon_tau()
        with pytest.raises(ValidationError):
            build_rate_matrix(basis, {("a", "a"): verdict})


class TestVerdictJson:
    def test_finite_verdict_document(self):
        verdict = trapped_tau(trapped(1e5))
        doc = verdict.to_json()
        assert doc["schema"] == "verdict/1"
        assert doc["infinite"] is False
        assert doc["tau"]["unit"] == "s"
        assert doc["tau"]["value"] == verdict.tau.value
        assert all(set(e) == {"symbol", "value", "unit"}
                   for e in doc["derivation"])

    def test_infinite_verdict_document(self):
        doc = photon_tau().to_json()
        assert doc["infinite"] is True
        assert doc["tau"]["value"] is None
        assert doc["regime"] == "quantum"


# --- property tests over random scenario parameters ----------------------

mass_exp = st.floats(min_value=-2, max_value=10)       # GeV/c2 decades
speed_exp = st.floats(min_value=-2, max_value=4)       # m/s decades
length_exp = st.floats(min_value=-7, max_value=-3)     # m decades


@given(mass_exp, speed_exp, length_exp)
def test_trapped_finite_iff_criterion(me, ve, de):
    m, v, D = 10.0 ** me, 10.0 ** ve, 10.0 ** de
    lhs = (m * GEV) * v * v * D
    rhs = 4 * PI * HBAR_V * C_V
    assume(abs(lhs / rhs - 1.0) > 1e-9)
    verdict = trapped_tau(trapped(m, v=v, D=D))
    assert (not verdict.is_infinite) == (lhs >= rhs)


@given(mass_exp, speed_exp, length_exp, st.floats(min_value=1.0, max_value=10.0))
def test_trapped_criterion_scales_with_margin(me, ve, de, eta):
    m, v, D = 10.0 ** me, 10.0 ** ve, 10.0 ** de
    lhs = (m * GEV) * v * v * D
    rhs = 4 * PI * HBAR_V * C_V * eta
    assume(abs(lhs / rhs - 1.0) > 1e-9)
    verdict = trapped_tau(trapped(m, v=v, D=D, margin=eta))
    assert (not verdict.is_infinite) == (lhs >= rhs)


@given(mass_exp, speed_exp, length_exp, st.floats(min_value=0.5, max_value=3.0))
def test_free_flight_finite_iff_criterion(me, ve, de, lscale):
    m, v, D, L = 10.0 ** me, 10.0 ** ve, 10.0 ** de, lscale
    assume(D < L)
    spec = free_flight(m, v=v, D=D, L=L, d=D / 10)
    theta = D / L
    p = m * GEV * v
    criterion = p * theta * D >= 8 * HBAR_V
    assume(abs(p * theta * D / (8 * HBAR_V) - 1.0) > 1e-9)
    verdict = free_flight_tau(spec)
    assert (not verdict.is_infinite) == criterion
    if not verdict.is_infinite:
        assert verdict.tau.value <= (L / v) * (1 + 1e-12)
    assert (doppler_window(spec) is not None) == criterion


@given(speed_exp, length_exp, st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=-1e-9, max_value=1e-9))
def test_free_flight_threshold_tau_within_flight_time(ve, de, L, delta):
    # Within 1e-9 of M* the window opens or stays closed on rounding alone;
    # an open window by itself keeps tau within the flight time L/v.
    v, D = 10.0 ** ve, 10.0 ** de
    assume(D < L)
    speed, separation = quantity(v, "m/s"), quantity(D, "m")
    m_star = free_flight_critical_mass(speed, D / L, separation)
    spec = FreeFlightSpec(mass=m_star * (1.0 + delta), speed=speed,
                          slit_separation=separation,
                          source_distance=quantity(L, "m"),
                          slit_width=quantity(D / 10, "m"))
    verdict = free_flight_tau(spec)
    assert verdict.is_infinite == (doppler_window(spec) is None)
    if not verdict.is_infinite:
        assert verdict.tau.value <= (L / v) * (1 + 1e-12)


@given(mass_exp, speed_exp, length_exp, st.floats(min_value=0.0, max_value=1.0))
def test_back_action_bounded_in_window(me, ve, de, frac):
    # Eq-(8)-style check: with the photon duration L/(4v) implied by the
    # window's upper bound, the recoil stays below half the resolution at
    # every admissible frequency, with equality at the top of the window.
    m, v, D = 10.0 ** me, 10.0 ** ve, 10.0 ** de
    L = 1.0
    assume(D < L)
    spec = free_flight(m, v=v, D=D, L=L, d=D / 10)
    window = doppler_window(spec)
    assume(window is not None)
    low, high = window
    omega = Quantity(low.value + frac * (high.value - low.value), low.dim)
    duration = quantity(L / (4 * v), "s")
    kick = doppler_back_action(omega, quantity(m, "GeV/c2"))
    resolution = doppler_error(omega, duration)
    assert kick.value <= 0.5 * resolution.value * (1 + 1e-9)


@given(mass_exp, speed_exp, length_exp,
       st.floats(min_value=1.01, max_value=100.0))
def test_trapped_tau_weakly_decreases(me, ve, de, factor):
    m, v, D = 10.0 ** me, 10.0 ** ve, 10.0 ** de
    base = trapped_tau(trapped(m, v=v, D=D)).rate.value
    assert trapped_tau(trapped(m * factor, v=v, D=D)).rate.value >= base
    assert trapped_tau(trapped(m, v=v * factor, D=D)).rate.value >= base
    assert trapped_tau(trapped(m, v=v, D=D * factor)).rate.value >= base


@given(speed_exp, length_exp, st.floats(min_value=1.0, max_value=10.0))
def test_trapped_critical_mass_constant_product(ve, de, eta):
    v, D = 10.0 ** ve, 10.0 ** de
    m_star = trapped_critical_mass(quantity(v, "m/s"), quantity(D, "m"), eta)
    product = m_star.value * v * v * D
    assert product == pytest.approx(4 * PI * HBAR_V * C_V * eta,
                                    rel=1e-12, abs=0)


@given(speed_exp, length_exp,
       st.floats(min_value=-8, max_value=-2))
def test_free_flight_critical_mass_exact_scaling(ve, de, te):
    v, D, theta = 10.0 ** ve, 10.0 ** de, 10.0 ** te
    m_star = free_flight_critical_mass(quantity(v, "m/s"), theta,
                                       quantity(D, "m"))
    assert m_star.value * v * theta * D == pytest.approx(8 * HBAR_V,
                                                         rel=1e-12, abs=0)
