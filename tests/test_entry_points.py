"""The library's entry points under edge values.

Each call returns a value or refuses its input as ValueError,
DimensionError, SweepError or IntegrationError (a run that blows up, which
the CLI reports as exit 1), never another exception and never a numpy
warning (warnings are raised as errors here).  `evolve` runs from
`two_level_decay` and from a random three-level system, with both methods
and strides 1, 7 and 1e9.
"""

import math
import warnings

from hypothesis import example, given, settings, strategies as st

from collapsim.boundary import (SCENARIOS, Scenario, SweepError, SweepSpec,
                                scenario_verdict, sweep)
from collapsim.discrimination import (doppler_back_action, doppler_error,
                                      free_flight_critical_mass,
                                      trapped_critical_mass)
from collapsim.evolution import (EvolutionConfig, IntegrationError, Method,
                                  analytic_isolated, evolve, two_level_decay)
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


def quantities(dim):
    """An edge value, mostly in the given dimension."""
    return st.builds(Quantity, edge, st.sampled_from([dim] * 3 + DIMENSIONS))


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
                              draw(edge))


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
                      draw(scenario_params(entry, axis)), draw(edge))


def closed_form_calls():
    return st.one_of(
        st.tuples(st.just(trapped_critical_mass),
                  st.tuples(quantities(SPEED), quantities(LENGTH), edge)),
        st.tuples(st.just(free_flight_critical_mass),
                  st.tuples(quantities(SPEED), edge, quantities(LENGTH))),
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
# A run that blows up at t = 30000 s, which no edge value reaches.
@example(call=(two_level_run, (Quantity(1.0, PER_SECOND), None,
                               Quantity(1e5, TIME), Quantity(1e3, TIME),
                               Method.RK4, 7)))
def test_entry_points_return_or_refuse(call):
    function, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            function(*args)
        except (ValueError, DimensionError, SweepError, IntegrationError):
            pass
