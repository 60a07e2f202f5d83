import copy
import dataclasses
import inspect
import json
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import collapsim.boundary as boundary_mod
from collapsim import discrimination
from collapsim.boundary import (BISECTION_REL_TOL, COUNTS, MAX_SWEEP_POINTS,
                                PARAMETERS, SCENARIOS, BoundaryReport,
                                Scenario, SweepError, SweepRow, SweepSpec,
                                curve_to_csv, curve_trajectory, mass_boundary,
                                report_to_json_text, scenario_verdict, sweep)
from collapsim.discrimination import (DiscriminationVerdict, FreeFlightSpec,
                                      OscillatorSpec, Reason, Regime,
                                      TrappedPairSpec, ValidationError,
                                      free_flight_critical_mass,
                                      free_flight_tau, oscillator_verdict,
                                      photon_tau, rabi_tau,
                                      trapped_critical_mass, trapped_tau)
from collapsim.cli import _report_text, main
from collapsim.evolution import trajectory_to_csv
from collapsim.schemas import REPORT_SCHEMA, VERDICT_SCHEMA
from collapsim.units import (C, DIMENSIONLESS, ENERGY, LENGTH, MASS, SPEED,
                             TIME, Dimension, Quantity, preferred_unit,
                             quantity)

HBAR_V = 1.054571817e-34
GEV = 1.78266192e-27


def trapped_sweep(count=25, v=100.0, eta=1.0):
    return SweepSpec(Scenario.TRAPPED, "M",
                     quantity(1, "GeV/c2"), quantity(1e6, "GeV/c2"),
                     count=count, spacing="geometric",
                     fixed={"v": quantity(v, "m/s"), "D": quantity(10, "um")},
                     eta=eta)


def free_flight_fixed():
    return {"v": quantity(1e3, "m/s"), "D": quantity(10, "um"),
            "L": quantity(1, "m"), "d": quantity(1, "um")}


def raises_exactly(message):
    return pytest.raises(ValidationError, match=f"^{re.escape(message)}$")


class TestSweepSpec:
    def test_axis_must_belong_to_scenario(self):
        # Any input may be the axis, an optional one (E) too.
        with raises_exactly("axis 'L' is not a trapped parameter "
                            "(one of ('M', 'v', 'D', 'E'))"):
            SweepSpec(Scenario.TRAPPED, "L", quantity(1, "m"),
                      quantity(2, "m"), count=5, fixed={})

    def test_count_at_least_two(self):
        with pytest.raises(ValidationError, match="count"):
            trapped_sweep(count=1)

    def test_count_at_most_the_cap(self):
        assert trapped_sweep(count=MAX_SWEEP_POINTS).count == MAX_SWEEP_POINTS
        with pytest.raises(ValidationError, match="count .* 10000, got 10001"):
            trapped_sweep(count=MAX_SWEEP_POINTS + 1)

    def test_ordered_endpoints(self):
        with pytest.raises(ValidationError):
            SweepSpec(Scenario.TRAPPED, "M", quantity(2, "kg"),
                      quantity(1, "kg"), count=5, fixed={})

    @pytest.mark.parametrize("scenario", ["rabi", "bogus"])
    def test_unknown_scenario_names_the_sweepable_ones(self, scenario):
        with pytest.raises(ValidationError,
                           match="one of.*'trapped', 'free-flight', 'oscillator'"):
            SweepSpec(scenario, "M", quantity(1, "kg"), quantity(2, "kg"),
                      count=5, fixed={})

    def test_scenario_name_becomes_a_member(self):
        spec = SweepSpec("trapped", "M", quantity(1, "kg"), quantity(2, "kg"),
                         count=5, fixed={"v": quantity(100, "m/s"),
                                         "D": quantity(10, "um")})
        assert spec.scenario is Scenario.TRAPPED

    @pytest.mark.parametrize("fixed, message", [
        ({"v": quantity(100, "m/s"), "D": quantity(10, "um"),
          "L": quantity(1, "m")}, "trapped does not take L"),
        ({"v": quantity(100, "m/s"), "D": quantity(10, "um"),
          "M": quantity(3, "kg")}, "M is the sweep axis"),
        ({"v": quantity(100, "m/s")}, "missing D for trapped"),
    ], ids=["unused", "axis", "missing"])
    def test_fixed_holds_exactly_the_other_parameters(self, fixed, message):
        with raises_exactly(message):
            SweepSpec(Scenario.TRAPPED, "M", quantity(1, "kg"),
                      quantity(2, "kg"), count=5, fixed=fixed)

    def test_fixed_values_must_be_quantities(self):
        with raises_exactly("n must be a Quantity, got int"):
            SweepSpec(Scenario.OSCILLATOR, "M", quantity(1e-30, "kg"),
                      quantity(1e-10, "kg"), count=5,
                      fixed={"omega0": quantity(1e5, "rad/s"), "n": 3})

    def test_endpoints_must_share_a_dimension(self):
        with raises_exactly("grid endpoints must share a dimension"):
            SweepSpec(Scenario.TRAPPED, "M", quantity(1, "kg"),
                      quantity(2, "m"), count=5, fixed={})

    @pytest.mark.parametrize("minimum, maximum", [
        (1.0, math.inf), (-math.inf, 1.0)], ids=["max", "min"])
    def test_infinite_endpoint_refused(self, minimum, maximum):
        with raises_exactly("grid endpoints must be finite"):
            SweepSpec(Scenario.TRAPPED, "M", quantity(minimum, "kg"),
                      quantity(maximum, "kg"), count=5, spacing="linear",
                      fixed={"v": quantity(100, "m/s"),
                             "D": quantity(10, "um")})

    def test_linear_grid_whose_width_overflows_refused(self):
        with raises_exactly("linear grid width maximum - minimum overflows"):
            SweepSpec(Scenario.TRAPPED, "M", quantity(-1e308, "kg"),
                      quantity(1e308, "kg"), count=5, spacing="linear",
                      fixed={"v": quantity(100, "m/s"),
                             "D": quantity(10, "um")})

    def test_unknown_spacing_refused(self):
        with raises_exactly("unknown spacing 'cubic'"):
            SweepSpec(Scenario.TRAPPED, "M", quantity(1, "kg"),
                      quantity(2, "kg"), count=5, spacing="cubic", fixed={})

    def test_geometric_needs_positive_minimum(self):
        with pytest.raises(ValidationError, match="geometric"):
            SweepSpec(Scenario.TRAPPED, "M", Quantity(-1.0, quantity(1, "kg").dim),
                      quantity(1, "kg"), count=5, fixed={})

    @pytest.mark.parametrize("count", [2.5, 30.0, "9"])
    def test_count_must_be_an_integer(self, count):
        with raises_exactly(f"count must be an integer, got {count!r}"):
            trapped_sweep(count=count)

    def test_numpy_integer_count_accepted(self):
        assert len(sweep(trapped_sweep(count=np.int64(9))).rows) == 9

    def test_eta_refused_where_unused(self):
        with raises_exactly("free-flight takes no margin eta, got 2.0"):
            SweepSpec(Scenario.FREE_FLIGHT, "M", quantity(0.1, "GeV/c2"),
                      quantity(1e4, "GeV/c2"), count=5,
                      fixed=free_flight_fixed(), eta=2.0)

    def test_later_edits_to_fixed_do_not_reach_the_sweep(self):
        fixed = {"v": quantity(100, "m/s"), "D": quantity(10, "um")}
        spec = SweepSpec(Scenario.TRAPPED, "M", quantity(1, "GeV/c2"),
                         quantity(1e6, "GeV/c2"), count=9, fixed=fixed)
        fixed["v"] = quantity(1e-6, "m/s")
        fixed["L"] = quantity(1, "m")
        assert sweep(spec).to_json() == sweep(trapped_sweep(count=9)).to_json()

    def test_pickle_and_deepcopy_round_trip(self):
        spec = trapped_sweep(count=9)
        for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert clone == spec
            assert sweep(clone).to_json() == sweep(spec).to_json()

    def test_sweep_checks_no_parameter_map(self, monkeypatch):
        spec = trapped_sweep(count=9)
        calls = []
        real = boundary_mod._check_params
        monkeypatch.setattr(boundary_mod, "_check_params",
                            lambda *args: calls.append(args) or real(*args))
        assert sweep(spec).critical_value is not None
        assert calls == []


class TestTrappedSweep:
    def test_critical_mass_matches_closed_form(self):
        report = sweep(trapped_sweep())
        closed = trapped_critical_mass(quantity(100, "m/s"), quantity(10, "um"))
        assert report.critical_value is not None
        assert report.critical_value.value == pytest.approx(closed.value,
                                                            rel=1e-6, abs=0)

    def test_rows_ordered_and_regimes_split(self):
        report = sweep(trapped_sweep())
        values = [row.value.value for row in report.rows]
        assert values == sorted(values)
        regimes = [row.verdict.regime for row in report.rows]
        assert regimes[0] is Regime.QUANTUM
        assert regimes[-1] is Regime.CLASSICAL

    def test_slow_limit_never_flips(self):
        report = sweep(trapped_sweep(v=1e-6))
        assert report.critical_value is None
        assert all(row.verdict.regime is Regime.QUANTUM for row in report.rows)

    def test_margin_moves_boundary(self):
        eta = 3.0
        report = sweep(trapped_sweep(eta=eta))
        closed = trapped_critical_mass(quantity(100, "m/s"), quantity(10, "um"),
                                       eta)
        assert report.critical_value.value == pytest.approx(closed.value,
                                                            rel=1e-6, abs=0)

    def test_deterministic_byte_identical(self):
        import json
        a = json.dumps(sweep(trapped_sweep()).to_json(), sort_keys=True)
        b = json.dumps(sweep(trapped_sweep()).to_json(), sort_keys=True)
        assert a == b

    def test_linear_velocity_sweep_matches_closed_form(self):
        M, D = quantity(1e4, "GeV/c2"), quantity(10, "um")
        v_ref = quantity(100, "m/s")
        spec = SweepSpec(Scenario.TRAPPED, "v", quantity(1, "m/s"),
                         quantity(200, "m/s"), count=21, spacing="linear",
                         fixed={"M": M, "D": D})
        report = sweep(spec)
        assert ([row.value.value for row in report.rows]
                == np.linspace(1.0, 200.0, 21).tolist())
        # M* scales as 1/v^2, so the flip speed is v_ref sqrt(M*(v_ref) / M).
        closed = v_ref.value * math.sqrt(
            trapped_critical_mass(v_ref, D).value / M.value)
        assert report.critical_value.value == pytest.approx(
            closed, rel=BISECTION_REL_TOL, abs=0)


class TestFreeFlightSweep:
    def test_critical_mass_matches_closed_form(self):
        spec = SweepSpec(Scenario.FREE_FLIGHT, "M",
                         quantity(0.1, "GeV/c2"), quantity(1e4, "GeV/c2"),
                         count=25, fixed=free_flight_fixed())
        report = sweep(spec)
        closed = free_flight_critical_mass(quantity(1e3, "m/s"), 1e-5,
                                           quantity(10, "um"))
        assert report.critical_value.value == pytest.approx(closed.value,
                                                            rel=1e-6, abs=0)

    def test_velocity_axis_also_flips(self):
        fixed = free_flight_fixed()
        del fixed["v"]
        fixed["M"] = quantity(5, "GeV/c2")
        spec = SweepSpec(Scenario.FREE_FLIGHT, "v",
                         quantity(10, "m/s"), quantity(1e5, "m/s"),
                         count=17, fixed=fixed)
        report = sweep(spec)
        # 8 hbar / (M theta D) at theta = 1e-5, D = 10 um, M = 5 GeV
        expected = 8 * HBAR_V / (5 * GEV * 1e-5 * 1e-5)
        assert report.critical_value.value == pytest.approx(expected,
                                                            rel=1e-6, abs=0)


class TestOscillatorSweep:
    def test_mass_axis_flips_from_classical_to_quantum(self):
        # at fixed n, heavier oscillators have smaller v0, hence larger n*
        fixed = {"omega0": quantity(1e5, "rad/s"), "n": Quantity(10 ** 7)}
        spec = SweepSpec(Scenario.OSCILLATOR, "M",
                         quantity(1e-30, "kg"), quantity(1e-10, "kg"),
                         count=21, fixed=fixed)
        report = sweep(spec)
        assert report.rows[0].verdict.regime in (Regime.CLASSICAL,
                                                 Regime.MARGINAL)
        assert report.rows[-1].verdict.regime is Regime.QUANTUM
        assert report.critical_value is not None
        # critical mass makes n* = n exactly
        m = report.critical_value.value
        v0 = math.sqrt(HBAR_V * 1e5 / (2 * m))
        n_star = (4 * math.pi * 2.99792458e8 / v0) ** (2 / 3)
        assert n_star == pytest.approx(1e7, rel=1e-5, abs=0)

    def test_quantum_number_axis_uses_integer_grid(self):
        fixed = {"M": quantity(1e-24, "kg"), "omega0": quantity(1e5, "rad/s")}
        spec = SweepSpec(Scenario.OSCILLATOR, "n",
                         Quantity(1.0), Quantity(1e12),
                         count=13, fixed=fixed)
        report = sweep(spec)
        for row in report.rows:
            assert row.value.value == round(row.value.value)
        if report.critical_value is not None:
            v0 = math.sqrt(HBAR_V * 1e5 / (2 * 1e-24))
            n_star = (4 * math.pi * 2.99792458e8 / v0) ** (2 / 3)
            assert report.critical_value.value == pytest.approx(
                n_star, rel=1e-5, abs=0)

    @pytest.mark.filterwarnings("error")
    def test_quantum_number_axis_past_the_doubles_refuses_inf(self):
        # The middle point overflows to inf, which is not rounded: the
        # check of n refuses it.
        spec = SweepSpec(Scenario.OSCILLATOR, "n",
                         Quantity(1.7976931348623155e308),
                         Quantity(sys.float_info.max), count=3,
                         fixed={"M": quantity(1e-20, "kg"),
                                "omega0": quantity(1e-3, "rad/s")})
        with raises_exactly("quantum_number must be finite, got inf"):
            sweep(spec)

    def test_quantum_number_axis_bisects_between_its_rounded_rows(self):
        # n* = 10.2 here; the grid ends 10.4 and 20.4 round to the rows
        # n = 10 (quantum) and n = 20 (marginal), which bracket it.
        fixed = {"M": quantity(3.942625681831795e-46, "kg"),
                 "omega0": quantity(1e5, "rad/s")}
        spec = SweepSpec(Scenario.OSCILLATOR, "n", Quantity(10.4),
                         Quantity(20.4), count=2, spacing="linear",
                         fixed=fixed)
        report = sweep(spec)
        assert [row.value.value for row in report.rows] == [10.0, 20.0]
        assert [row.verdict.regime for row in report.rows] == [
            Regime.QUANTUM, Regime.MARGINAL]
        assert report.critical_value.value == pytest.approx(10.2,
                                                            rel=1e-6, abs=0)

    @pytest.mark.parametrize("mass", [1e-50, 1e-60])
    def test_quantum_number_axis_bisects_up_from_zero(self, monkeypatch,
                                                      mass):
        # The geometric grid 0.1..10 rounds to the rows 0, 0, 1, 3, 10, and
        # n* < 1, so the flip's lower row is n = 0, where no geometric
        # midpoint moves.  A bound on the kernel calls, which the grid and
        # every bisection step make, stands in for a hang.
        calls, real = [], discrimination._oscillator

        def bounded(M, omega0, n):
            calls.append(n)
            assert len(calls) < 100, "bisection does not converge"
            return real(M, omega0, n)

        monkeypatch.setattr(discrimination, "_oscillator", bounded)
        fixed = {"M": quantity(mass, "kg"), "omega0": quantity(1e5, "rad/s")}
        spec = SweepSpec(Scenario.OSCILLATOR, "n", Quantity(0.1),
                         Quantity(10.0), count=5, fixed=fixed)
        report = sweep(spec)
        assert [row.value.value for row in report.rows] == [0, 0, 1, 3, 10]
        v0 = math.sqrt(HBAR_V * 1e5 / (2 * mass))
        n_star = (4 * math.pi * 2.99792458e8 / v0) ** (2 / 3)
        assert n_star < 1
        assert report.critical_value.value == pytest.approx(n_star,
                                                            rel=1e-5, abs=0)

    def test_quantum_number_axis_in_metres_rejected(self):
        fixed = {"M": quantity(1e-24, "kg"), "omega0": quantity(1e5, "rad/s")}
        with raises_exactly("n must have dimension dimensionless, got m"):
            SweepSpec(Scenario.OSCILLATOR, "n",
                      quantity(1, "m"), quantity(1e12, "m"),
                      count=13, fixed=fixed)

    def test_fixed_quantum_number_in_metres_rejected(self):
        fixed = {"omega0": quantity(1e5, "rad/s"), "n": quantity(1e7, "m")}
        with raises_exactly("n must have dimension dimensionless, got m"):
            SweepSpec(Scenario.OSCILLATOR, "M",
                      quantity(1e-30, "kg"), quantity(1e-10, "kg"),
                      count=21, fixed=fixed)

    def test_no_sweep_point_rechecks_n(self, monkeypatch):
        # SweepSpec checks n once; each point's spec still checks M and
        # omega0, through the same helper.
        specs = [SweepSpec(Scenario.OSCILLATOR, "n", Quantity(1.0),
                           Quantity(1e12), count=13,
                           fixed={"M": quantity(1e-24, "kg"),
                                  "omega0": quantity(1e5, "rad/s")}),
                 SweepSpec(Scenario.OSCILLATOR, "M", quantity(1e-30, "kg"),
                           quantity(1e-10, "kg"), count=21,
                           fixed={"omega0": quantity(1e5, "rad/s"),
                                  "n": Quantity(10 ** 7)})]
        names, real = [], discrimination._require_dim
        monkeypatch.setattr(discrimination, "_require_dim",
                            lambda q, dim, name: names.append(name)
                            or real(q, dim, name))
        for spec in specs:
            names.clear()
            assert sweep(spec).critical_value is not None
            assert {"mass", "angular_frequency"} <= set(names)
            assert "n" not in names


# A base value for every parameter of each sweepable scenario, each near
# its flip; a sweep below spans up to 10**0.9 either side of it, where
# every spec stays valid (free flight keeps d < D < L).  The trapped pair's
# optional E, near 4 pi hbar c / D = 0.248 eV, is given only where it is
# the axis (`base_fixed`).
SWEEP_BASES = {
    "trapped": {"M": quantity(2000, "GeV/c2"), "v": quantity(100, "m/s"),
                "D": quantity(10, "um"), "E": quantity(0.25, "eV")},
    "free-flight": {"M": quantity(5, "GeV/c2"), **free_flight_fixed()},
    "oscillator": {"M": quantity(4e-28, "kg"),
                   "omega0": quantity(1e5, "rad/s"), "n": Quantity(1e7)},
}


def base_fixed(scenario, axis):
    """The base values of the scenario's required parameters but the axis."""
    base = SWEEP_BASES[scenario]
    return {name: base[name] for name in SCENARIOS[Scenario(scenario)].params
            if name != axis}


def test_sweep_bases_cover_every_sweepable_scenario():
    assert set(SWEEP_BASES) == {s.value for s in Scenario}
    for scenario in Scenario:
        assert set(SWEEP_BASES[scenario.value]) == \
            set(SCENARIOS[scenario].inputs)


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
@given(data=st.data(),
       tenths=st.lists(st.integers(min_value=-9, max_value=9), min_size=2,
                       max_size=2, unique=True).map(sorted),
       count=st.integers(min_value=2, max_value=9),
       spacing=st.sampled_from(["geometric", "linear"]))
def test_sweep_rows_equal_single_verdicts(scenario, data, tenths, count,
                                          spacing):
    base = SWEEP_BASES[scenario.value]
    axis = data.draw(st.sampled_from(SCENARIOS[scenario].inputs))
    fixed = base_fixed(scenario.value, axis)
    lo, hi = (base[axis] * 10 ** (k / 10) for k in tenths)
    spec = SweepSpec(scenario, axis, lo, hi, count=count,
                     spacing=spacing, fixed=fixed)
    for row in sweep(spec).rows:
        verdict = scenario_verdict(scenario, {**fixed, axis: row.value})
        assert repr((row.tau, row.verdict)) == repr((verdict.tau, verdict))


# Points where numpy's power rounds differently from Python's float **,
# which the grid's verdicts apply to each point.  Each sweep's rows must
# equal the verdict at each point alone.
def test_trapped_speed_grid_squares_each_point_as_python_does():
    v = 360.8375561642087
    assert v ** 2 == 130203.74193855848 != np.power(v, 2) == v * v
    # At 1 kg, E = M v^2 is v ** 2 itself.
    spec = SweepSpec(Scenario.TRAPPED, "v", quantity(v, "m/s"),
                     quantity(1e3, "m/s"), count=7,
                     fixed={"M": quantity(1, "kg"), "D": quantity(10, "um")})
    rows = sweep(spec).rows
    assert rows[0].value.value == v
    assert dict(rows[0].verdict.derivation)["E"].value == 130203.74193855848
    assert_rows_are_single_verdicts(spec, rows)


def test_oscillator_mass_grid_takes_n_star_as_python_does():
    omega0 = quantity(1e5, "rad/s")
    spec = SweepSpec(Scenario.OSCILLATOR, "M", quantity(1e-30, "kg"),
                     quantity(1e-20, "kg"), count=21,
                     fixed={"omega0": omega0, "n": Quantity(1e7)})
    # At the 18th mass, (4 pi c / v0) ** (2/3) differs from np.power's
    # where numpy dispatches its AVX-512 power loop; its scalar loop
    # agrees with Python's there.
    assert_rows_are_single_verdicts(spec, sweep(spec).rows)


def test_rounded_count_axis_rows_are_single_verdicts():
    spec = SweepSpec(Scenario.OSCILLATOR, "n", Quantity(0.3), Quantity(40.7),
                     count=17, spacing="linear",
                     fixed={"M": quantity(3.942625681831795e-46, "kg"),
                            "omega0": quantity(1e5, "rad/s")})
    rows = sweep(spec).rows
    assert [row.value.value for row in rows] == \
        [float(round(x)) for x in np.linspace(0.3, 40.7, 17).tolist()]
    assert {row.verdict.regime for row in rows} == {
        Regime.QUANTUM, Regime.MARGINAL, Regime.CLASSICAL}
    assert_rows_are_single_verdicts(spec, rows)


def assert_rows_are_single_verdicts(spec, rows):
    for row in rows:
        verdict = scenario_verdict(spec.scenario, {**spec.fixed,
                                                   spec.axis: row.value},
                                   spec.eta)
        assert repr((row.value, row.tau, row.verdict)) == \
            repr((row.value, verdict.tau, verdict))


def test_energy_gap_axis_locates_the_closed_form_gap():
    # E is an optional trapped input, and a sweep may scan it: with E
    # given, M v^2 decides nothing, and the window opens at
    # E* = 4 pi hbar c eta / D.
    D, eta = quantity(10, "um"), 2.0
    spec = SweepSpec(Scenario.TRAPPED, "E", quantity(1e-21, "J"),
                     quantity(1e-18, "J"), count=7,
                     fixed={"M": quantity(1, "kg"), "v": quantity(100, "m/s"),
                            "D": D}, eta=eta)
    report = sweep(spec)
    e_star = 4 * math.pi * HBAR_V * C.value * eta / D.value
    assert report.critical_value.dim is ENERGY
    assert report.critical_value.value == pytest.approx(
        e_star, rel=BISECTION_REL_TOL, abs=0)
    assert_rows_are_single_verdicts(spec, report.rows)


def grid_points(spec):
    """The points `sweep` evaluates: its grid, which
    `test_grid_is_numpys_baseline_grid` pins, rounded on a count axis."""
    points = boundary_mod._grid(spec.spacing, spec.minimum.value,
                                spec.maximum.value, spec.count)
    if spec.axis in COUNTS:
        return [float(round(x)) for x in points]
    return points


@st.composite
def grid_cases(draw):
    """(spacing, lo, hi, count) of a grid that SweepSpec accepts: geometric
    ends anywhere in the positive doubles, or a linear width from the
    least subnormal up, and any count up to the budget."""
    count = draw(st.integers(min_value=2, max_value=MAX_SWEEP_POINTS))
    if draw(st.booleans()):
        ends = st.floats(min_value=5e-324, max_value=sys.float_info.max)
        lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2,
                                      unique=True)))
        return "geometric", lo, hi, count
    width = draw(st.floats(min_value=5e-324, max_value=sys.float_info.max))
    # A start near the width too, so that subnormal widths meet a start
    # they can move.
    lo = draw(st.floats(allow_nan=False, allow_infinity=False)
              | st.integers(-10 ** 6, 10 ** 6).map(lambda k: k * width))
    hi = lo + width
    assume(lo < hi and math.isfinite(hi - lo))
    return "linear", lo, hi, count


# Prints the grid of each (spacing, lo, hi, count) read from stdin, as
# numpy's geomspace or linspace gives it, in float.hex.
NUMPY_GRIDS = """
import json, sys
import numpy as np
grids = []
for spacing, lo, hi, count in json.load(sys.stdin):
    space = np.geomspace if spacing == "geometric" else np.linspace
    with np.errstate(over="ignore"):  # a point past the largest double
        grid = space(float.fromhex(lo), float.fromhex(hi), count)
    grids.append([x.hex() for x in grid.tolist()])
json.dump(grids, sys.stdout)
"""


def test_grid_is_numpys_baseline_grid():
    # Bit for bit the grid of numpy's baseline loops, in one Python whose
    # numpy has its dispatched CPU features disabled; where numpy
    # dispatches its SIMD power, some geometric points differ.
    from test_trajectory_golden import dispatched_cpu_features
    cases = []

    @settings(deadline=None, max_examples=300)
    @given(case=grid_cases())
    def draw(case):
        cases.append(case)

    draw()
    env = dict(os.environ)
    # A feature disabled here already reads as absent: keep it disabled.
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join([
        *env.get("NPY_DISABLE_CPU_FEATURES", "").split(),
        *dispatched_cpu_features()])
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_GRIDS], capture_output=True, text=True,
        timeout=120, env=env, input=json.dumps(
            [(spacing, lo.hex(), hi.hex(), count)
             for spacing, lo, hi, count in cases]))
    assert proc.returncode == 0, proc.stderr
    assert [case for case, grid in zip(cases, json.loads(proc.stdout))
            if [x.hex() for x in boundary_mod._grid(*case)] != grid] == []


def top_of_range_sweep(lo, count):
    """A trapped mass sweep from lo kg up to the largest double."""
    return SweepSpec(Scenario.TRAPPED, "M", quantity(lo, "kg"),
                     quantity(sys.float_info.max, "kg"), count=count,
                     fixed={"v": quantity(1e-150, "m/s"),
                            "D": quantity(10, "um")})


@pytest.mark.filterwarnings("error")
def test_grid_ending_at_the_largest_double_takes_no_power_of_its_ends():
    # numpy's geomspace computed 10 ** log10(hi), which overflows, before
    # it set the end to hi.
    report = sweep(top_of_range_sweep(1.79769313486e308, 5))
    masses = [row.x for row in report.rows]
    assert masses[0] == 1.79769313486e308
    assert masses[-1] == sys.float_info.max
    assert masses == sorted(masses) and len(masses) == 5


@pytest.mark.filterwarnings("error")
def test_grid_point_past_the_largest_double_is_refused_as_inf():
    with raises_exactly("mass must be finite, got inf"):
        sweep(top_of_range_sweep(1.7976931348623155e308, 3))


# Grids that reach an invalid value.  sweep raises what the verdicts at
# the points, one at a time, raise at the first of them, with no numpy
# warning on the way.  From 1e-170 m/s the first bad speed is one whose
# M v^2 underflows, although the grid's later speeds reach c.
INVALID_GRIDS = {
    "mass-through-zero": (
        lambda: SweepSpec(Scenario.TRAPPED, "M", quantity(-5, "GeV/c2"),
                          quantity(1e3, "GeV/c2"), count=9, spacing="linear",
                          fixed={"v": quantity(100, "m/s"),
                                 "D": quantity(10, "um")}),
        "mass must be positive, got -8.913309600000001e-27"),
    "speed-past-c": (
        lambda: SweepSpec(Scenario.TRAPPED, "v", quantity(1e8, "m/s"),
                          quantity(4e8, "m/s"), count=7, spacing="linear",
                          fixed={"M": quantity(2000, "GeV/c2"),
                                 "D": quantity(10, "um")}),
        "mean_velocity must be below c"),
    "speed-underflow-before-c": (
        lambda: SweepSpec(Scenario.TRAPPED, "v", quantity(1e-170, "m/s"),
                          quantity(4e8, "m/s"), count=31,
                          fixed={"M": quantity(2000, "GeV/c2"),
                                 "D": quantity(10, "um")}),
        "E = M v^2 underflows to 0"),
    "slit-width-reaching-D": (
        lambda: SweepSpec(Scenario.FREE_FLIGHT, "d", quantity(1, "um"),
                          quantity(10, "um"), count=5, spacing="linear",
                          fixed={name: q for name, q in
                                 free_flight_fixed().items() if name != "d"}
                          | {"M": quantity(5, "GeV/c2")}),
        "slit_width must be smaller than slit_separation"),
    "energy-overflow": (
        lambda: SweepSpec(Scenario.TRAPPED, "M", quantity(1, "kg"),
                          quantity(1e300, "kg"), count=7,
                          fixed={"v": quantity(1e8, "m/s"),
                                 "D": quantity(10, "um")}),
        "E = M v^2 overflows"),
    "boundary-speed-1e-300": (
        lambda: SweepSpec(Scenario.TRAPPED, "M", quantity(1e-3, "GeV/c2"),
                          quantity(1e12, "GeV/c2"), count=31,
                          fixed={"v": quantity(1e-300, "m/s"),
                                 "D": quantity(10, "um")}),
        "E = M v^2 underflows to 0"),
    "omega-max-overflow": (
        lambda: SweepSpec(Scenario.TRAPPED, "M", quantity(1, "GeV/c2"),
                          quantity(1e6, "GeV/c2"), count=13,
                          fixed={"v": quantity(100, "m/s"),
                                 "D": quantity(10, "um"),
                                 "E": quantity(1e300, "J")}),
        "omega_max overflows"),
    "eta-inf": (lambda: trapped_sweep(count=9, eta=math.inf),
                "margin eta must be finite, got inf"),
    "eta-nan": (lambda: trapped_sweep(count=9, eta=math.nan),
                "margin eta must be finite, got nan"),
    # The first point's mass is negative, but its spec checks the fixed
    # separation's dimension first.
    "dimension-before-value": (
        lambda: SweepSpec(Scenario.TRAPPED, "M", quantity(-5, "GeV/c2"),
                          quantity(1e3, "GeV/c2"), count=9, spacing="linear",
                          fixed={"v": quantity(100, "m/s"),
                                 "D": quantity(10, "us")}),
        "separation must have dimension m, got s"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, message", INVALID_GRIDS.values(),
                         ids=INVALID_GRIDS)
def test_invalid_grid_raises_the_first_points_error(build, message):
    spec = build()
    error = first_point_error(spec)
    assert type(error) is ValidationError
    assert str(error) == message
    with raises_exactly(message):
        sweep(spec)


def first_point_error(spec):
    """What scenario_verdict raises at the first grid point where it
    raises, or None."""
    for x in grid_points(spec):
        try:
            scenario_verdict(spec.scenario, {
                **spec.fixed, spec.axis: Quantity(x, spec.minimum.dim)},
                spec.eta)
        except Exception as error:
            return error
    return None


# One validity edge per case, crossed by a linear grid along its axis:
# (scenario, axis, the axis value where it turns invalid).  Masses,
# lengths and n turn invalid at 0 and below, a speed at c and above, a
# slit width at D and a slit separation at L.
VALIDITY_EDGES = [
    ("trapped", "M", 0.0), ("trapped", "D", 0.0), ("trapped", "v", C.value),
    ("free-flight", "M", 0.0), ("free-flight", "d", 0.0),
    ("free-flight", "v", C.value),
    ("free-flight", "d", SWEEP_BASES["free-flight"]["D"].value),
    ("free-flight", "D", SWEEP_BASES["free-flight"]["L"].value),
    ("oscillator", "M", 0.0), ("oscillator", "n", 0.0),
]


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=60)
@given(edge=st.sampled_from(VALIDITY_EDGES),
       reach=st.tuples(*[st.floats(min_value=0.01, max_value=0.99)] * 2),
       count=st.integers(min_value=2, max_value=9))
def test_grid_across_a_validity_edge_raises_the_first_points_error(
        edge, reach, count):
    scenario, axis, at = edge
    base = SWEEP_BASES[scenario]
    # The grid's ends lie either side of the edge, each within a fraction
    # of the edge's value (of the base value for an edge at 0).
    scale = at or base[axis].value
    lo, hi = at - reach[0] * scale, at + reach[1] * scale
    spec = SweepSpec(scenario, axis, Quantity(lo, base[axis].dim),
                     Quantity(hi, base[axis].dim), count=count,
                     spacing="linear",
                     fixed=base_fixed(scenario, axis))
    error = first_point_error(spec)
    assert error is not None
    with pytest.raises(Exception) as info:
        sweep(spec)
    assert (type(info.value), str(info.value)) == (type(error), str(error))


def test_multiple_flips_rejected(monkeypatch):
    # No physical axis produces two flips, so close the window at two
    # masses on the finite side of the grid to fake a non-monotone pattern.
    spec = trapped_sweep(count=9)
    holes = grid_points(spec)[6:8]
    real = discrimination._trapped

    def flappy(M, *args):
        closed, tau, margin, values = real(M, *args)
        if M in holes:
            return True, None, margin, values
        return closed, tau, margin, values

    monkeypatch.setattr(discrimination, "_trapped", flappy)
    # The pair flips between grid points 4 and 5, and the holes add flips
    # at 5..6 and 7..8: the first two brackets are named.
    with pytest.raises(SweepError, match="^" + re.escape(
            "regime flips more than once along the grid: between "
            "1.78266e-24..1.00246e-23 and 1.00246e-23..5.63727e-23 (kg)")
            + "$"):
        sweep(spec)


# Parameters and the direct discrimination call for every SCENARIOS entry.
# The oscillator's n = 2.5 checks that n reaches the verdict unrounded:
# v_n = sqrt(n) v0 is in the derivation.
DIRECT_CALLS = {
    "trapped": ({"M": quantity(1e5, "GeV/c2"), "v": quantity(100, "m/s"),
                 "D": quantity(10, "um")},
                lambda p: trapped_tau(TrappedPairSpec(
                    mass=p["M"], mean_velocity=p["v"], separation=p["D"]))),
    "free-flight": ({"M": quantity(100, "GeV/c2"), **free_flight_fixed()},
                    lambda p: free_flight_tau(FreeFlightSpec(
                        mass=p["M"], speed=p["v"], slit_separation=p["D"],
                        source_distance=p["L"], slit_width=p["d"]))),
    "photon": ({}, lambda p: photon_tau()),
    "rabi": ({"gap": quantity(1, "eV")}, lambda p: rabi_tau(p["gap"])),
    "oscillator": ({"M": quantity(40, "kg"),
                    "omega0": quantity(6.283, "rad/s"), "n": Quantity(2.5)},
                   lambda p: oscillator_verdict(OscillatorSpec(
                       mass=p["M"], angular_frequency=p["omega0"],
                       quantum_number=2.5))),
}


class TestScenarioVerdict:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_dispatch_matches_direct_call(self, name):
        params, direct = DIRECT_CALLS[name]
        assert scenario_verdict(name, params).to_json() == \
            direct(params).to_json()

    @pytest.mark.parametrize(
        "name", [n for n, entry in SCENARIOS.items() if not entry.uses_eta])
    def test_eta_rejected_where_unused(self, name):
        params, _ = DIRECT_CALLS[name]
        with pytest.raises(ValidationError, match=f"^{name} takes no margin"):
            scenario_verdict(name, params, eta=2.0)

    def test_unknown_scenario_names_the_table(self):
        with pytest.raises(ValidationError,
                           match=re.escape(f"one of {list(SCENARIOS)}")):
            scenario_verdict("bogus", {})

    @pytest.mark.parametrize("name, params, message", [
        ("trapped", {"M": quantity(1, "kg")}, "missing v for trapped"),
        ("trapped", {**DIRECT_CALLS["trapped"][0], "L": quantity(1, "m")},
         "trapped does not take L"),
        ("photon", {"gap": quantity(1, "eV")}, "photon does not take gap"),
        ("trapped", {**DIRECT_CALLS["trapped"][0], "M": 2000.0},
         "M must be a Quantity, got float"),
        ("oscillator", {**DIRECT_CALLS["oscillator"][0], "n": 3},
         "n must be a Quantity, got int"),
    ], ids=["missing", "unused", "unused-photon", "float", "int-n"])
    def test_parameter_map_checked_against_the_table(self, name, params,
                                                      message):
        with raises_exactly(message):
            scenario_verdict(name, params)

    def test_oscillator_n_must_be_dimensionless(self):
        params = {**DIRECT_CALLS["oscillator"][0], "n": quantity(1, "m")}
        with raises_exactly("n must have dimension dimensionless, got m"):
            scenario_verdict("oscillator", params)

    def test_name_faults_come_before_a_count_in_metres(self):
        # n comes before E in the map, and still E is reported.
        params = {**DIRECT_CALLS["oscillator"][0], "n": quantity(1, "m"),
                  "E": quantity(1, "eV")}
        with raises_exactly("oscillator does not take E"):
            scenario_verdict("oscillator", params)

    def test_energy_override_passthrough(self):
        params = {"M": quantity(1, "GeV/c2"), "v": quantity(1, "m/s"),
                  "D": quantity(10, "um"), "E": quantity(1e-15, "J")}
        verdict = scenario_verdict(Scenario.TRAPPED, params)
        assert not verdict.is_infinite


def test_parameters_declare_the_table_names_in_table_order():
    names = [n for e in SCENARIOS.values() for n in e.params + e.optional]
    assert list(PARAMETERS) == list(dict.fromkeys(names))
    assert COUNTS <= PARAMETERS.keys()


# Valid inputs of each scenario with a boundary, all of them distinct in SI,
# and its eta.
DISTINCT_INPUTS = {
    "trapped": ({"M": quantity(1, "kg"), "v": quantity(100, "m/s"),
                 "D": quantity(10, "um"), "E": quantity(1, "eV")}, 2.0),
    "free-flight": ({"M": quantity(100, "GeV/c2"), **free_flight_fixed()},
                    1.0),
    "oscillator": ({"M": quantity(40, "kg"),
                    "omega0": quantity(6.283, "rad/s"), "n": Quantity(3.0)},
                   1.0),
}


@pytest.mark.parametrize("name", [n for n, entry in SCENARIOS.items()
                                  if entry.has_boundary])
def test_one_argument_order_per_scenario(name):
    # The table's order, its inputs and then eta where it is used, is the
    # order of the spec's fields, of the spec's `_values()` and of the
    # positional arguments of its check and its kernel, which a sweep
    # calls on that list.  The binder passes the spec its arguments in
    # that order; that each field means its table name is checked where
    # the spec is built by keyword (`test_dispatch_matches_direct_call`).
    entry = SCENARIOS[name]
    params, eta = DISTINCT_INPUTS[name]
    order = list(entry.inputs) + ["eta"] * entry.uses_eta
    values = [params[n].value for n in entry.inputs] + [eta] * entry.uses_eta
    spec = entry.spec(*boundary_mod._arguments(entry, params, eta))
    fields = [getattr(spec, f.name) for f in dataclasses.fields(spec)]
    assert [getattr(x, "value", x) for x in fields] == values
    assert spec._values() == values
    for function in (entry.check, entry.kernel):
        parameters = inspect.signature(
            getattr(discrimination, function)).parameters.values()
        assert [p.name for p in parameters
                if p.kind is p.POSITIONAL_OR_KEYWORD] == order, function


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_the_table_names_functions_and_spec_classes(name):
    # The table holds names and classes only, so a misspelt name or a
    # class of the wrong arity fails here, not at its first call.  The
    # binder reads a count's value, so no count is optional.
    entry = SCENARIOS[name]
    assert not COUNTS.intersection(entry.optional)
    named = [entry.verdict] + [f for f in (entry.check, entry.kernel) if f]
    for function in named:
        assert callable(getattr(discrimination, function, None)), function
    arity = len(entry.inputs) + entry.uses_eta
    if entry.spec is None:
        parameters = inspect.signature(
            getattr(discrimination, entry.verdict)).parameters.values()
        kind = inspect.Parameter
        assert [(p.kind, p.default) for p in parameters] == \
            [(kind.POSITIONAL_OR_KEYWORD, kind.empty)] * arity
    else:
        assert len(dataclasses.fields(entry.spec)) == arity


# A valid value for every table parameter, and theta, which none takes.
PARAM_VALUES = {"M": quantity(2000, "GeV/c2"), "v": quantity(100, "m/s"),
                "D": quantity(10, "um"), "E": quantity(1, "eV"),
                "L": quantity(1, "m"), "d": quantity(1, "um"),
                "gap": quantity(1, "eV"), "omega0": quantity(6.283, "rad/s"),
                "n": Quantity(0.0), "theta": Quantity(1e-5)}


@pytest.mark.parametrize("name", list(SCENARIOS))
@given(drop=st.sets(st.sampled_from(sorted(PARAM_VALUES))),
       add=st.sets(st.sampled_from(sorted(PARAM_VALUES))))
def test_verdict_exactly_when_the_map_fits_the_table(name, drop, add):
    entry = SCENARIOS[name]
    names = (set(entry.params + entry.optional) - drop) | add
    params = {n: PARAM_VALUES[n] for n in names}
    if set(entry.params) <= names <= set(entry.params + entry.optional):
        assert isinstance(scenario_verdict(name, params),
                          DiscriminationVerdict)
    else:
        with pytest.raises(ValidationError):
            scenario_verdict(name, params)


class TestMassBoundary:
    @pytest.mark.parametrize("v, D", [(100, 10), (1, 10)])
    def test_trapped_matches_closed_form(self, v, D):
        v, D = quantity(v, "m/s"), quantity(D, "um")
        report = mass_boundary("trapped", v, D)
        assert report.critical_value.value == pytest.approx(
            trapped_critical_mass(v, D).value, rel=BISECTION_REL_TOL, abs=0)

    def test_free_flight_matches_closed_form(self):
        v, D = quantity(1e3, "m/s"), quantity(10, "um")
        report = mass_boundary(Scenario.FREE_FLIGHT, v, D, 1e-5)
        assert report.critical_value.value == pytest.approx(
            free_flight_critical_mass(v, 1e-5, D).value,
            rel=BISECTION_REL_TOL, abs=0)

    def test_bisection_reuses_the_bracketing_rows(self, monkeypatch):
        # The kernel runs once at each of the 31 grid points, then at 21
        # bisection midpoints; the ends of the bracket are grid rows
        # already, so neither is evaluated again.  No public verdict runs.
        masses, real = [], discrimination._trapped
        monkeypatch.setattr(discrimination, "_trapped", lambda M, *args:
                            masses.append(M) or real(M, *args))
        verdicts = []
        monkeypatch.setattr(discrimination, "trapped_tau", verdicts.append)
        report = mass_boundary("trapped", quantity(100, "m/s"),
                               quantity(10, "um"))
        grid, midpoints = masses[:31], masses[31:]
        assert grid == [row.value.value for row in report.rows]
        assert all(isinstance(x, float) for x in midpoints)
        assert len(midpoints) == len(set(midpoints)) == 21
        assert not set(midpoints) & set(grid)
        assert verdicts == []

    def test_one_spec_per_sweep_and_value_checks_at_the_grid_extremes(
            self, monkeypatch):
        # The first grid point builds the sweep's one spec, which checks
        # the dimensions and that point's values; the sweep then checks
        # the values on floats at the least and the greatest mass, and so
        # at every point between.  Bisection checks nothing, and no public
        # verdict runs.
        specs, entry = [], SCENARIOS["trapped"]
        monkeypatch.setitem(SCENARIOS, "trapped", dataclasses.replace(
            entry, spec=lambda *a: specs.append(a) or entry.spec(*a)))
        checked, real_check = [], discrimination._check_trapped
        monkeypatch.setattr(discrimination, "_check_trapped", lambda M, *a:
                            checked.append(M) or real_check(M, *a))
        verdicts = []
        monkeypatch.setattr(discrimination, "trapped_tau", verdicts.append)
        report = mass_boundary("trapped", quantity(100, "m/s"),
                               quantity(10, "um"))
        assert [args[0] for args in specs] == [report.rows[0].value]
        masses = [row.value.value for row in report.rows]
        assert checked == [masses[0], min(masses), max(masses)]
        assert verdicts == []

    def test_margin_moves_the_trapped_boundary(self):
        v, D = quantity(100, "m/s"), quantity(10, "um")
        report = mass_boundary("trapped", v, D, eta=3.0)
        assert report.critical_value.value == pytest.approx(
            trapped_critical_mass(v, D, 3.0).value, rel=BISECTION_REL_TOL,
            abs=0)

    @pytest.mark.parametrize("argv, args", [
        (["trapped", "--v", "100 m/s", "--D", "10 um"],
         ("trapped", quantity(100, "m/s"), quantity(10, "um"))),
        (["free-flight", "--v", "1e3 m/s", "--theta", "1e-5", "--D", "10 um"],
         ("free-flight", quantity(1e3, "m/s"), quantity(10, "um"), 1e-5)),
    ], ids=["trapped", "free-flight"])
    def test_json_is_the_cli_report(self, capsys, argv, args):
        assert main(["boundary", *argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == \
            mass_boundary(*args).to_json()

    @pytest.mark.parametrize("scenario, theta, message", [
        ("trapped", 1e-5, "trapped boundary does not take theta"),
        ("free-flight", None, "free-flight boundary needs theta"),
        ("free-flight", 1.5, "theta must be in (0, 1), got 1.5"),
        ("free-flight", 0.0, "theta must be in (0, 1), got 0.0"),
    ], ids=["trapped", "missing", "above-one", "zero"])
    def test_theta_rules(self, scenario, theta, message):
        with raises_exactly(message):
            mass_boundary(scenario, quantity(1e3, "m/s"), quantity(10, "um"),
                          theta)

    def test_no_flip_on_the_grid(self):
        with pytest.raises(SweepError, match="^" + re.escape(
                "no regime flip for masses in [1e-3, 1e12] GeV/c2") + "$"):
            mass_boundary("trapped", quantity(1e-6, "m/s"),
                          quantity(10, "um"))


class TestVisibilityCurve:
    def boundary_verdict(self):
        m_star = free_flight_critical_mass(quantity(1e3, "m/s"), 1e-5,
                                           quantity(10, "um"))
        spec = FreeFlightSpec(mass=m_star * (1 + 1e-12),
                              speed=quantity(1e3, "m/s"),
                              slit_separation=quantity(10, "um"),
                              source_distance=quantity(1, "m"),
                              slit_width=quantity(1, "um"))
        return free_flight_tau(spec)

    def test_boundary_flight_decays_to_one_over_e(self):
        verdict = self.boundary_verdict()
        traj = curve_trajectory(verdict, quantity(1e-3, "s"),
                                record_stride=512)
        times, vis = traj.times, traj.visibility(0, 1)
        assert times[-1] == pytest.approx(1e-3, rel=1e-12, abs=0)
        assert vis[-1] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_photon_curve_flat(self):
        vis = curve_trajectory(photon_tau(), quantity(1, "s"),
                               record_stride=64).visibility(0, 1)
        assert np.allclose(vis, 1.0, atol=1e-12)

    def test_deep_classical_curve_nearly_gone_by_five_lifetimes(self):
        m_star = trapped_critical_mass(quantity(100, "m/s"), quantity(10, "um"))
        verdict = trapped_tau(TrappedPairSpec(
            mass=m_star * 100.0, mean_velocity=quantity(100, "m/s"),
            separation=quantity(10, "um")))
        t_end = 5.0 * verdict.tau
        vis = curve_trajectory(verdict, t_end,
                               record_stride=512).visibility(0, 1)
        assert vis[-1] < 0.01

    @pytest.mark.parametrize("verdict, t_end", [
        (trapped_tau(TrappedPairSpec(mass=quantity(1e6, "GeV/c2"),
                                     mean_velocity=quantity(100, "m/s"),
                                     separation=quantity(10, "um"))), None),
        (photon_tau(), quantity(1, "s")),
    ], ids=["five-decay-times", "photon-one-second"])
    def test_default_horizon(self, verdict, t_end):
        t_end = 5.0 * verdict.tau if t_end is None else t_end
        assert trajectory_to_csv(curve_trajectory(verdict, record_stride=64)) \
            == trajectory_to_csv(curve_trajectory(verdict, t_end,
                                                  record_stride=64))
        assert curve_to_csv(curve_trajectory(verdict, record_stride=64)) == \
            curve_to_csv(curve_trajectory(verdict, t_end, record_stride=64))

    def test_curve_trajectory_exposes_states(self):
        traj = curve_trajectory(photon_tau(), quantity(1, "s"),
                                record_stride=256)
        assert len(traj.states) == 3


class TestReportJson:
    def test_document_shape(self):
        doc = sweep(trapped_sweep(count=5)).to_json()
        assert doc["schema"] == "report/1"
        assert doc["scenario"] == "trapped"
        assert doc["axis"] == "M"
        assert len(doc["rows"]) == 5
        for row in doc["rows"]:
            assert row["unit"] == "kg"
            assert row["tau"]["unit"] == "s"
        assert doc["critical_value"]["unit"] == "kg"

    def test_schema_scenarios_come_from_the_table(self):
        assert REPORT_SCHEMA["properties"]["scenario"]["enum"] == \
            [s.value for s in Scenario]

    def test_schema_enums_are_the_enum_values(self):
        verdict = VERDICT_SCHEMA["properties"]
        row = REPORT_SCHEMA["properties"]["rows"]["items"]["properties"]
        for prop, enum in [(verdict["regime"], Regime),
                           (verdict["reason"], Reason), (row["regime"], Regime)]:
            assert prop["enum"] == [member.value for member in enum]

    def test_digests_formatted_only_by_the_writers(self, monkeypatch):
        calls = []
        real = boundary_mod._derivation_digest
        monkeypatch.setattr(boundary_mod, "_derivation_digest",
                            lambda values: calls.append(values)
                            or real(values))
        report = sweep(trapped_sweep(count=9))
        assert calls == []
        digests = [real(row.output[3]) for row in report.rows]
        # Each digest spells the verdict's derivation at its point.
        assert digests == ["; ".join(
            f"{sym}={q.value:.6g} {preferred_unit(q.dim)}"
            for sym, q in row.verdict.derivation) for row in report.rows]
        doc = report.to_json()
        assert len(calls) == len(report.rows) == 9
        assert [row["digest"] for row in doc["rows"]] == digests
        text = report_to_json_text(report)
        assert len(calls) == 18
        assert [row["digest"] for row in json.loads(text)["rows"]] == digests

    def test_sweep_and_writers_read_the_kernels_floats(self, monkeypatch):
        # No row is wrapped as a verdict (`_outcome`) by the sweep, its
        # bisection or any writer; each read of a row's verdict wraps it
        # once.
        calls = []
        real = discrimination._outcome
        monkeypatch.setattr(discrimination, "_outcome",
                            lambda *output: calls.append(output)
                            or real(*output))
        report = sweep(trapped_sweep(count=9))
        assert report.critical_value is not None
        report.to_json()
        report_to_json_text(report)
        _report_text(report)
        assert calls == []
        for k, row in enumerate(report.rows, 1):
            closed, _, margin, _ = row.output
            assert row.verdict.regime is discrimination._regime(closed,
                                                                margin)
            assert calls[k - 1:] == [row.output]

    def test_no_flip_serializes_null(self):
        doc = sweep(trapped_sweep(count=5, v=1e-6)).to_json()
        assert doc["critical_value"] is None


# Text that json escapes or that a row template could mistake for its own:
# quotes, backslashes, %, %s, null, the non-finite spellings, non-ASCII.
ODD_TEXT = st.lists(
    st.sampled_from(["a", '"', "\\", "%", "%s", "null", "nan", "inf", "NaN",
                     "\u00e9", "\u91cf", "\U0001f600", "\n"]),
    min_size=1, max_size=3).map("".join)
REPORT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308, math.nan,
                     math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
# A unit is preferred_unit's: a token, or the SI name of an exotic dimension.
DIMENSIONS = st.sampled_from([DIMENSIONLESS, MASS, LENGTH, TIME, SPEED,
                              ENERGY, Dimension(mass=2, length=-3, time=1)])
QUANTITIES = st.builds(Quantity, REPORT_FLOATS, DIMENSIONS)
# A kernel's output (closed, tau, margin, values): closed or open, a
# finite tau or None, any margin, and values under the symbols that the
# kernels derive.
KERNEL_OUTPUTS = st.tuples(
    st.booleans(),
    st.none() | st.floats(allow_nan=False, allow_infinity=False),
    REPORT_FLOATS,
    st.dictionaries(st.sampled_from(list(
        discrimination._DERIVATION_DIMENSIONS)), REPORT_FLOATS, max_size=6))


# Hand-built reports of 0-5 rows along one axis dimension, as `sweep` makes
# them: every regime, finite and infinite tau, any axis value and derived
# value, odd text in the axis, critical_value None or set.
@pytest.mark.parametrize("scenario", list(Scenario))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_report_json_text_is_json_dumps(scenario, data):
    row = st.builds(SweepRow, REPORT_FLOATS, st.just(data.draw(DIMENSIONS)),
                    KERNEL_OUTPUTS)
    report = BoundaryReport(
        scenario, data.draw(ODD_TEXT),
        tuple(data.draw(st.lists(row, max_size=5))),
        data.draw(st.none() | QUANTITIES))
    assert report_to_json_text(report) == \
        json.dumps(report.to_json(), indent=2) + "\n"


@settings(deadline=None, max_examples=200)
@given(output=KERNEL_OUTPUTS)
def test_digest_spells_each_value_as_its_6g_format(output):
    # The digest fills one %.6g template per tuple of symbols.
    values = output[3]
    units = {sym: preferred_unit(dim) for sym, dim in
             discrimination._DERIVATION_DIMENSIONS.items()}
    assert boundary_mod._derivation_digest(values) == "; ".join(
        f"{sym}={value:.6g} {units[sym]}" for sym, value in values.items())
