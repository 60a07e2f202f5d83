"""The library's entry points under edge values and wrong-typed inputs.

Each call returns a value or refuses its input as ValueError (a run that
could overflow included, which `evolve` refuses before its first step),
DimensionError or SweepError, never another exception and never a numpy
warning (warnings are raised as errors here).  `evolve` runs from
`two_level_decay` and from a random three-level system, with both methods
and strides 1, 7 and 1e9.  A Quantity argument may be drawn as a value that
is not one, and an eta or theta as one that is not a real number.
"""

import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from collapsim.boundary import (SCENARIOS, Scenario, SweepError, SweepSpec,
                                mass_boundary, scenario_verdict, sweep)
from collapsim.discrimination import (FreeFlightSpec, OscillatorSpec,
                                      TrappedPairSpec, doppler_back_action,
                                      doppler_error, free_flight_critical_mass,
                                      rabi_tau, trapped_critical_mass)
from collapsim.evolution import (EvolutionConfig, Method, analytic_isolated,
                                  evolve, two_level_decay)
from collapsim.states import CollapseRateMatrix, Hamiltonian, pure_state
from collapsim.units import (DIMENSIONLESS, ENERGY, HBAR, LENGTH, MASS,
                             PER_SECOND, SPEED, TIME, DimensionError,
                             Quantity)

EDGES = [1.0, 2.5, 1e300, 1e-300, 1e308, 1e-320, 0.0, -1.0, -1e308,
         math.inf, -math.inf, math.nan]
DIMENSIONS = [MASS, LENGTH, TIME, SPEED, ENERGY, PER_SECOND, DIMENSIONLESS]
# The dimension of each scenario parameter.
RIGHT = {"M": MASS, "v": SPEED, "D": LENGTH, "E": ENERGY, "L": LENGTH,
         "d": LENGTH, "gap": ENERGY, "omega0": PER_SECOND,
         "n": DIMENSIONLESS}

edge = st.sampled_from(EDGES)
# An eta or a theta: an edge value, or one that is not a real number.
ratio = st.sampled_from(EDGES + ["2", Quantity(0.5)])


@st.composite
def quantities(draw, dim):
    """An edge value, mostly in the given dimension; one draw in ten is a
    value that is not a Quantity."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([1.0, None, "1 kg"]))
    return Quantity(draw(edge),
                    draw(st.sampled_from([dim] * 3 + DIMENSIONS)))


@st.composite
def scenario_params(draw, entry, axis=None):
    """Each parameter of the entry but the axis, and any optional one: an
    optional axis too, sometimes, which the sweep must refuse."""
    names = [name for name in entry.params if name != axis]
    names += [name for name in entry.optional if draw(st.booleans())]
    return {name: draw(quantities(RIGHT[name])) for name in names}


@st.composite
def verdict_calls(draw):
    entry = draw(st.sampled_from(list(SCENARIOS.values())))
    return scenario_verdict, (entry.name, draw(scenario_params(entry)),
                              draw(ratio))


def sweep_of(*args, **kwargs):
    return sweep(SweepSpec(*args, **kwargs))


@st.composite
def sweep_calls(draw):
    scenario = draw(st.sampled_from(list(Scenario)))
    entry = SCENARIOS[scenario]
    axis = draw(st.sampled_from(entry.inputs))
    dim = RIGHT[axis]
    return sweep_of, (scenario, axis, draw(quantities(dim)),
                      draw(quantities(dim)),
                      draw(st.sampled_from([2, 3, 5])),
                      draw(st.sampled_from(["geometric", "linear"])),
                      draw(scenario_params(entry, axis)), draw(ratio))


def closed_form_calls():
    return st.one_of(
        st.tuples(st.just(trapped_critical_mass),
                  st.tuples(quantities(SPEED), quantities(LENGTH), ratio)),
        st.tuples(st.just(free_flight_critical_mass),
                  st.tuples(quantities(SPEED), ratio, quantities(LENGTH))),
        st.tuples(st.just(doppler_error),
                  st.tuples(quantities(PER_SECOND), quantities(TIME))),
        st.tuples(st.just(doppler_back_action),
                  st.tuples(quantities(PER_SECOND), quantities(MASS))))


def decay_of(rate, t):
    """The closed-form decay of an equal superposition at a pair rate."""
    basis = ("here", "there")
    rates = CollapseRateMatrix(basis, [[0.0, rate], [rate, 0.0]])
    return analytic_isolated(pure_state([1.0, 1.0], basis), rates, t)


def analytic_calls():
    return st.tuples(st.just(decay_of), st.tuples(edge, quantities(TIME)))


def run(rho0, H, rates, t_end, dt, method, stride):
    return evolve(rho0, H, rates, EvolutionConfig(t_end, dt, method, stride))


def two_level_run(rate, gap, *cfg):
    return run(*two_level_decay(rate, gap), *cfg)


def three_level_run(amplitudes, energies, coupling, rates, *cfg):
    """A pure state, a Hermitian H of two level energies and one real or
    imaginary coupling (each hbar times a frequency in 1/s), and a
    symmetric rate matrix of three pair rates."""
    basis = ("a", "b", "c")
    (e1, e2), (g, phase), (r01, r02, r12) = energies, coupling, rates
    hbar = HBAR.value
    H = Hamiltonian(basis, [[0, hbar * g * phase, 0],
                            [hbar * g * phase.conjugate(), hbar * e1, 0],
                            [0, 0, hbar * e2]])
    R = CollapseRateMatrix(basis, [[0, r01, r02], [r01, 0, r12],
                                   [r02, r12, 0]])
    return run(pure_state(amplitudes, basis), H, R, *cfg)


def run_config(time):
    """t_end, dt (None for the AUTO step), method and record_stride."""
    return (time, st.none() | time, st.sampled_from(list(Method)),
            st.sampled_from([1, 7, 10 ** 9]))


# Mostly values a run can take, so that most three-level draws integrate.
runnable = st.sampled_from([0.0, 1.0, 2.5] * 4 + EDGES)


def evolve_calls():
    seconds = st.builds(Quantity, runnable, st.just(TIME))
    return st.one_of(
        st.tuples(st.just(two_level_run), st.tuples(
            quantities(PER_SECOND), st.none() | quantities(ENERGY),
            *run_config(quantities(TIME)))),
        st.tuples(st.just(three_level_run), st.tuples(
            st.tuples(runnable, runnable, runnable),
            st.tuples(runnable, runnable),
            st.tuples(runnable, st.sampled_from([1, 1j])),
            st.tuples(runnable, runnable, runnable),
            *run_config(seconds))))


# No call may take longer than 5 s.
@settings(deadline=5000, max_examples=600)
@given(call=st.one_of(verdict_calls(), sweep_calls(), closed_form_calls(),
                      analytic_calls(), evolve_calls()))
# A run refused for overflowing at t = 30000 s, which no edge value
# reaches.
@example(call=(two_level_run, (Quantity(1.0, PER_SECOND), None,
                               Quantity(1e5, TIME), Quantity(1e3, TIME),
                               Method.RK4, 7)))
# Trapped mass grids up to the largest double: the first returns its five
# rows; the middle point of the second overflows to inf and is refused.
@example(call=(sweep_of, (Scenario.TRAPPED, "M",
                          Quantity(1.79769313486e308, MASS),
                          Quantity(1.7976931348623157e308, MASS), 5,
                          "geometric", {"v": Quantity(1e-150, SPEED),
                                        "D": Quantity(1e-5, LENGTH)})))
@example(call=(sweep_of, (Scenario.TRAPPED, "M",
                          Quantity(1.7976931348623155e308, MASS),
                          Quantity(1.7976931348623157e308, MASS), 3,
                          "geometric", {"v": Quantity(1e-150, SPEED),
                                        "D": Quantity(1e-5, LENGTH)})))
def test_entry_points_return_or_refuse(call):
    function, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            function(*args)
        except (ValueError, DimensionError, SweepError):
            pass


M, V, D = (Quantity(1e-20, MASS), Quantity(100.0, SPEED),
           Quantity(1e-5, LENGTH))
FIXED = {"v": V, "D": D}
SECOND = Quantity(1.0, TIME)


# Each call with one argument of the wrong type, and the name that its
# refusal begins with.
WRONG_TYPES = {
    "TrappedPairSpec mass": (lambda: TrappedPairSpec(5.0, V, D), "mass"),
    "TrappedPairSpec margin": (
        lambda: TrappedPairSpec(M, V, D, margin="2"), "margin eta"),
    "FreeFlightSpec speed": (
        lambda: FreeFlightSpec(M, None, D, Quantity(1.0, LENGTH),
                               Quantity(1e-6, LENGTH)), "speed"),
    "OscillatorSpec quantum_number": (
        lambda: OscillatorSpec(M, Quantity(1e3, PER_SECOND), Quantity(3)),
        "quantum_number"),
    "rabi_tau": (lambda: rabi_tau(5.0), "resonant_gap"),
    "trapped_critical_mass": (lambda: trapped_critical_mass(100.0, D), "v"),
    "doppler_error": (lambda: doppler_error(1.0, SECOND), "omega"),
    "free_flight_critical_mass Quantity theta": (
        lambda: free_flight_critical_mass(V, Quantity(1e-5), D), "theta"),
    "free_flight_critical_mass str theta": (
        lambda: free_flight_critical_mass(V, "1e-5", D), "theta"),
    "scenario_verdict eta": (
        lambda: scenario_verdict("trapped", {"M": M, **FIXED}, eta="2"),
        "margin eta"),
    "sweep eta": (
        lambda: sweep_of("trapped", "M", Quantity(1e-25, MASS),
                         Quantity(1e-15, MASS), 5, fixed=FIXED, eta="2"),
        "margin eta"),
    "mass_boundary theta": (
        lambda: mass_boundary("free-flight", V, D, "1e-5"), "theta"),
    "SweepSpec minimum": (
        lambda: SweepSpec("trapped", "M", 1.0, 2.0, 5, fixed=FIXED),
        "minimum"),
    "EvolutionConfig t_end": (lambda: EvolutionConfig(t_end=1.0), "t_end"),
    "EvolutionConfig dt": (
        lambda: EvolutionConfig(t_end=SECOND, dt=0.1), "dt"),
    "two_level_decay": (lambda: two_level_decay(1.0), "rate"),
    "analytic_isolated": (lambda: decay_of(1.0, 1.0), "t"),
}


@pytest.mark.parametrize("call, name", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_a_wrong_typed_argument_is_refused_by_name(call, name):
    with pytest.raises((ValueError, DimensionError), match=f"^{name} must "):
        call()
