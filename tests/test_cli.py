import argparse
import contextlib
import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from collapsim.boundary import (PARAMETERS, SCENARIOS, Scenario, SweepSpec,
                                scenario_verdict, sweep)
from collapsim import boundary, cli, units
from collapsim.cli import main
from collapsim.schemas import (REPORT_SCHEMA, TRAJECTORY_SCHEMA,
                               VERDICT_SCHEMA)
from collapsim.units import UNITS, Quantity, parse_quantity, quantity


GOLDEN = Path(__file__).parent / "golden"

# Every CLI example in the README, keyed by its tests/golden/<key>.txt file.
README_EXAMPLES = {
    "boundary_trapped": ["boundary", "trapped", "--v", "100 m/s",
                         "--D", "10 um"],
    "boundary_free_flight": ["boundary", "free-flight", "--v", "1e3 m/s",
                             "--theta", "1e-5", "--D", "10 um"],
    "tau_trapped_json": ["tau", "trapped", "--M", "2000 GeV/c2",
                         "--v", "100 m/s", "--D", "10 um", "--json"],
    "tau_free_flight": ["tau", "free-flight", "--M", "100 GeV/c2",
                        "--v", "1e3 m/s", "--D", "10 um", "--L", "1 m",
                        "--d", "1 um"],
    "tau_photon": ["tau", "photon"],
    "tau_rabi": ["tau", "rabi", "--gap", "1 eV"],
    "tau_oscillator": ["tau", "oscillator", "--M", "40 kg",
                       "--omega0", "6.283 rad/s", "--n", "0"],
    "evolve": ["evolve", "--rate", "1 1/s", "--t-end", "1 s"],
    "evolve_euler": ["evolve", "--rate", "1 1/s", "--t-end", "1 s",
                     "--method", "euler"],
    "sweep_trapped": ["sweep", "trapped", "--axis", "M", "--min", "1 GeV/c2",
                      "--max", "1e6 GeV/c2", "--count", "13",
                      "--v", "100 m/s", "--D", "10 um"],
    "curve_free_flight": ["curve", "free-flight", "--M", "4.7326 GeV/c2",
                          "--v", "1e3 m/s", "--D", "10 um", "--L", "1 m",
                          "--d", "1 um", "--t-end", "1e-3 s"],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundary:
    def test_trapped_fast(self, capsys):
        code, out, _ = run(capsys, "boundary", "trapped",
                           "--v", "100 m/s", "--D", "10 um")
        assert code == 0
        mass = parse_quantity(out.split(":")[1].strip())
        assert 2.0e3 <= mass.to("GeV/c2") <= 2.5e3

    def test_trapped_slow(self, capsys):
        code, out, _ = run(capsys, "boundary", "trapped",
                           "--v", "1 m/s", "--D", "10 um")
        assert code == 0
        mass = parse_quantity(out.split(":")[1].strip())
        assert 2.0e7 <= mass.to("GeV/c2") <= 2.5e7

    def test_free_flight(self, capsys):
        code, out, _ = run(capsys, "boundary", "free-flight",
                           "--v", "1e3 m/s", "--theta", "1e-5", "--D", "10 um")
        assert code == 0
        mass = parse_quantity(out.split(":")[1].strip())
        assert 4.5 <= mass.to("GeV/c2") <= 5.0

    def test_unit_override(self, capsys):
        code, out, _ = run(capsys, "boundary", "trapped",
                           "--v", "100 m/s", "--D", "10 um", "--unit", "kg")
        assert code == 0
        assert out.strip().endswith("kg")

    @pytest.mark.parametrize("unit", ["kg", "GeV/c2", "MeV/c2"])
    def test_unit_with_json_exits_2(self, capsys, monkeypatch, unit):
        # report/1 gives masses in kg, so no --unit applies to it; the
        # text line keeps GeV/c2 as its default (README's golden).
        monkeypatch.setattr(boundary, "sweep",
                            lambda spec: pytest.fail("swept"))
        assert run(capsys, "boundary", "trapped", "--v", "100 m/s",
                   "--D", "10 um", "--unit", unit, "--json") == (
            2, "", "error: --unit does not apply to --json: report/1 gives "
                   "masses in kg\n")

    def test_json_report_validates(self, capsys):
        code, out, _ = run(capsys, "boundary", "trapped",
                           "--v", "100 m/s", "--D", "10 um", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_no_flip_exits_1(self, capsys):
        code, out, err = run(capsys, "boundary", "trapped",
                             "--v", "1e-9 m/s", "--D", "10 um")
        assert (code, out) == (1, "")
        assert err == ("error: no regime flip for masses in [1e-3, 1e12] "
                       "GeV/c2\n")

    def test_missing_theta_is_usage_error(self, capsys):
        code, _, err = run(capsys, "boundary", "free-flight",
                           "--v", "1e3 m/s", "--D", "10 um")
        assert code == 2
        assert "theta" in err


class TestTau:
    def test_free_flight_json(self, capsys):
        code, out, _ = run(capsys, "tau", "free-flight", "--M", "100 GeV/c2",
                           "--v", "1e3 m/s", "--D", "10 um", "--L", "1 m",
                           "--d", "1 um", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, VERDICT_SCHEMA)
        assert doc["infinite"] is False
        assert doc["regime"] == "classical"
        assert doc["tau"]["value"] < 1e-3
        symbols = [e["symbol"] for e in doc["derivation"]]
        assert "omega_high" in symbols and "p" in symbols

    def test_trapped_text(self, capsys):
        code, out, _ = run(capsys, "tau", "trapped", "--M", "1 GeV/c2",
                           "--v", "100 m/s", "--D", "10 um")
        assert code == 0
        assert "tau: infinite" in out
        assert "regime: quantum" in out

    def test_photon(self, capsys):
        code, out, _ = run(capsys, "tau", "photon", "--json")
        doc = json.loads(out)
        jsonschema.validate(doc, VERDICT_SCHEMA)
        assert doc["reason"] == "photon_flight_time"

    def test_rabi(self, capsys):
        code, out, _ = run(capsys, "tau", "rabi", "--gap", "1 eV")
        assert code == 0
        assert "rabi_probe_destroys" in out

    def test_oscillator_ground_state(self, capsys):
        code, out, _ = run(capsys, "tau", "oscillator", "--M", "40 kg",
                           "--omega0", "6.283 rad/s", "--n", "0")
        assert code == 0
        assert "quantum" in out

    def test_eta_flag_tightens(self, capsys):
        args = ["tau", "trapped", "--M", "3000 GeV/c2", "--v", "100 m/s",
                "--D", "10 um"]
        _, out_default, _ = run(capsys, *args)
        assert "tau: infinite" not in out_default
        _, out_strict, _ = run(capsys, *args, "--eta", "10")
        assert "tau: infinite" in out_strict


class TestEvolve:
    def test_final_visibility_one_over_e(self, capsys):
        code, out, _ = run(capsys, "evolve", "--rate", "1 1/s",
                           "--t-end", "1 s")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "time_s"
        vis_col = rows[0].index("visibility")
        assert float(rows[-1][vis_col]) == pytest.approx(math.exp(-1),
                                                         rel=1e-6, abs=0)

    def test_json_trajectory_validates(self, capsys):
        code, out, _ = run(capsys, "evolve", "--rate", "2 1/s",
                           "--t-end", "0.5 s", "--stride", "16", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, TRAJECTORY_SCHEMA)

    def test_rate_unit_must_be_inverse_time(self, capsys):
        code, _, err = run(capsys, "evolve", "--rate", "1 m/s",
                           "--t-end", "1 s")
        assert code == 2
        assert "rate" in err

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "evolve", "--rate", "1 1/s",
                           "--t-end", "1 s", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("time_s,")


class TestSweepAndCurve:
    def test_sweep_json_validates(self, capsys):
        code, out, _ = run(capsys, "sweep", "trapped", "--axis", "M",
                           "--min", "1 GeV/c2", "--max", "1e6 GeV/c2",
                           "--count", "7", "--v", "100 m/s", "--D", "10 um",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["critical_value"]["value"] == pytest.approx(
            3.97289171186359e-24, rel=1e-5, abs=0)

    def test_sweep_takes_21_points_by_default(self, capsys):
        code, out, _ = run(capsys, "sweep", "trapped", "--axis", "M",
                           "--min", "1 GeV/c2", "--max", "1e6 GeV/c2",
                           "--v", "100 m/s", "--D", "10 um", "--json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 21

    def test_sweep_linear_spacing(self, capsys):
        code, out, _ = run(capsys, "sweep", "trapped", "--spacing", "linear",
                           "--axis", "v", "--min", "1 m/s", "--max", "200 m/s",
                           "--count", "5", "--M", "1e4 GeV/c2", "--D", "10 um")
        assert code == 0
        assert "  50.75 m/s  " in out
        assert out.endswith("critical: 47.208363 m/s\n")

    def test_sweep_without_a_flip_reports_none(self, capsys):
        code, out, _ = run(capsys, "sweep", "trapped", "--axis", "M",
                           "--min", "1 GeV/c2", "--max", "10 GeV/c2",
                           "--count", "3", "--v", "100 m/s", "--D", "10 um")
        assert code == 0
        assert out.endswith("critical: none within grid\n")

    # Every grid point is valid; the bisection's midpoints must be too:
    # lo * hi underflows (1) or overflows (2), lo + hi overflows (3, 4),
    # the tolerance is subnormal so lo and hi end adjacent (5, 6).
    FREE_FLIGHT_NEAR_MAX = ["sweep", "free-flight", "--axis", "L",
                            "--min", "9e307 m", "--max", "1.7e308 m",
                            "--count", "3", "--M", "1e-10 kg", "--v", "1 m/s",
                            "--D", "3.18181e142 m", "--d", "3.18181e141 m"]
    TRAPPED_SUBNORMAL = ["sweep", "trapped", "--axis", "M",
                         "--min", "1e-320 kg", "--max", "1e-318 kg",
                         "--count", "5", "--v", "1e8 m/s", "--D", "4e278 m"]

    @pytest.mark.parametrize("argv, critical", [
        (["sweep", "trapped", "--axis", "M", "--min", "1e-210 kg",
          "--max", "1e-190 kg", "--count", "5", "--v", "1e8 m/s",
          "--D", "1e159 m"], "3.9728915e-200 kg"),
        (["sweep", "trapped", "--axis", "M", "--min", "1e180 kg",
          "--max", "1e190 kg", "--count", "5", "--v", "1e-100 m/s",
          "--D", "1e-10 m"], "3.9728915e+185 kg"),
        (FREE_FLIGHT_NEAR_MAX + ["--spacing", "linear"], "1.2000027e+308 m"),
        (FREE_FLIGHT_NEAR_MAX, "1.2000032e+308 m"),
        (TRAPPED_SUBNORMAL, "9.9326957e-320 kg"),
        (TRAPPED_SUBNORMAL + ["--spacing", "linear"], "9.9326957e-320 kg"),
    ], ids=["product-underflows", "product-overflows", "sum-overflows-linear",
            "sum-overflows-geometric", "subnormal-geometric",
            "subnormal-linear"])
    def test_bisection_stays_within_the_doubles(self, capsys, argv, critical):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.endswith(f"critical: {critical}\n")

    def test_sweep_missing_fixed_param(self, capsys):
        code, _, err = run(capsys, "sweep", "trapped", "--axis", "M",
                           "--min", "1 GeV/c2", "--max", "1e6 GeV/c2",
                           "--v", "100 m/s")
        assert code == 2
        assert err == "error: missing D for trapped\n"

    def test_curve_json_trajectory_validates(self, capsys):
        code, out, _ = run(capsys, "curve", "trapped", "--M", "1e6 GeV/c2",
                           "--v", "100 m/s", "--D", "10 um", "--stride", "128",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, TRAJECTORY_SCHEMA)
        assert doc["pair"] == ["here", "there"]

    def test_curve_photon_flat(self, capsys):
        code, out, _ = run(capsys, "curve", "photon", "--t-end", "1 s",
                           "--stride", "128")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["time_s", "visibility"]
        assert all(float(r[1]) == pytest.approx(1.0) for r in rows[1:])

    def test_curve_default_horizon_five_lifetimes(self, capsys):
        code, out, _ = run(capsys, "curve", "trapped", "--M", "1e6 GeV/c2",
                           "--v", "100 m/s", "--D", "10 um", "--stride", "512")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert float(rows[-1][1]) == pytest.approx(math.exp(-5),
                                                   rel=1e-6, abs=0)


class TestUsageErrors:
    def test_unknown_unit_exits_2(self, capsys):
        code, _, err = run(capsys, "tau", "trapped", "--M", "1 parsec",
                           "--v", "1 m/s", "--D", "1 um")
        assert code == 2
        assert "parsec" in err

    @pytest.mark.parametrize("argv, number", [
        (["tau", "trapped", "--M", "2000", "--v", "100 m/s",
          "--D", "10 um"], "2000"),
        (["tau", "trapped", "--M", "1e3", "--v", "100 m/s",
          "--D", "10 um"], "1e3"),
        (["sweep", "oscillator", "--axis", "n", "--min", "0.2",
          "--max", "2e3 dimensionless", "--M", "1 kg",
          "--omega0", "1 rad/s"], "0.2")], ids=["2000", "1e3", "0.2"])
    def test_number_without_unit_exits_2(self, capsys, argv, number):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(
            f"error: argument --{argv[argv.index(number) - 1][2:]}: missing "
            f"unit in '{number}' (a pure number is written '{number} "
            f"dimensionless')\n")

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "boundary", "trapped", "--v", "1 m/s",
                         "--D", "1 um", "--frobnicate")
        assert code == 2

    def test_no_command_exits_2(self, capsys):
        assert run(capsys, )[0] == 2

    SWEEP = ["sweep", "trapped", "--v", "100 m/s", "--D", "10 um"]

    @pytest.mark.parametrize("argv, flag", [
        (["boundary", "trapped", "--D", "10 um"], "--v"),
        (["boundary", "trapped", "--v", "100 m/s"], "--D"),
        (["evolve", "--t-end", "1 s"], "--rate"),
        (["evolve", "--rate", "1 1/s"], "--t-end"),
        (SWEEP + ["--min", "1 kg", "--max", "2 kg"], "--axis"),
        (SWEEP + ["--axis", "M", "--max", "2 kg"], "--min"),
        (SWEEP + ["--axis", "M", "--min", "1 kg"], "--max")],
        ids=["boundary-v", "boundary-D", "evolve-rate", "evolve-t-end",
             "sweep-axis", "sweep-min", "sweep-max"])
    def test_missing_required_flag_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"collapsim {argv[0]}: error: the following "
                            f"arguments are required: {flag}\n")

    @pytest.mark.parametrize("argv", [
        ["boundary", "free-flight", "--v", "1e3 m/s", "--theta", "1e-5",
         "--D", "10 um", "--eta", "10"],
        ["tau", "photon", "--eta", "0.5"],
        ["sweep", "oscillator", "--axis", "M", "--min", "1e-30 kg",
         "--max", "1e-10 kg", "--omega0", "1e5 rad/s", "--n", "10000000",
         "--eta", "2"],
        ["curve", "rabi", "--gap", "1 eV", "--eta", "2"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_eta_outside_trapped_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{argv[1]} takes no margin eta" in err

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "free-flight", "--axis", "M", "--min", "1 GeV/c2",
          "--max", "1e3 GeV/c2", "--v", "1e3 m/s", "--D", "10 um",
          "--L", "1 m", "--d", "1 um", "--E", "1 eV"],
         "error: free-flight does not take E\n"),
        (["sweep", "trapped", "--axis", "M", "--min", "1 GeV/c2",
          "--max", "1e6 GeV/c2", "--v", "100 m/s", "--D", "10 um",
          "--L", "1 m"], "error: trapped does not take L\n"),
        (["sweep", "trapped", "--axis", "M", "--min", "1 GeV/c2",
          "--max", "1e6 GeV/c2", "--v", "100 m/s", "--D", "10 um",
          "--M", "1 kg"], "error: M is the sweep axis\n"),
        (["boundary", "trapped", "--v", "100 m/s", "--D", "10 um",
          "--theta", "1e-5"],
         "error: trapped boundary does not take theta\n"),
        (["evolve", "--rate", "1 1/s", "--t-end", "1 s", "--eta", "2"],
         "unrecognized arguments: --eta"),
        (["evolve", "--rate", "1 1/s", "--t-end", "1 s", "--unit", "kg"],
         "unrecognized arguments: --unit"),
        (["tau", "photon", "--unit", "kg"], "unrecognized arguments: --unit"),
        (["sweep", "trapped", "--axis", "M", "--min", "1 GeV/c2",
          "--max", "1e6 GeV/c2", "--v", "100 m/s", "--D", "10 um",
          "--unit", "kg"], "unrecognized arguments: --unit"),
        (["curve", "photon", "--unit", "kg"], "unrecognized arguments: --unit"),
    ], ids=["sweep-free-flight-E", "sweep-trapped-L", "sweep-trapped-M-axis",
            "boundary-trapped-theta", "evolve-eta", "evolve-unit",
            "tau-photon-unit", "sweep-trapped-unit", "curve-photon-unit"])
    def test_flag_the_scenario_does_not_use_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("argv", [
        ["tau", "trapped", "--M", "1e400 GeV/c2", "--v", "100 m/s",
         "--D", "10 um"],
        ["evolve", "--rate", "1e400 1/s", "--t-end", "1 s"],
        ["evolve", "--rate", "1 1/s", "--t-end", "1 s", "--gap", "1e400 eV"],
        ["evolve", "--rate", "1 1/s", "--t-end", "1e400 s"],
    ], ids=["tau-M", "evolve-rate", "evolve-gap", "evolve-t-end"])
    def test_overflowing_quantity_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "1e400" in err and "overflows" in err

    def test_unit_of_another_dimension_exits_2(self, capsys):
        code, out, err = run(capsys, "boundary", "trapped", "--v", "100 m/s",
                             "--D", "10 um", "--unit", "m")
        assert (code, out) == (2, "")
        assert err.endswith(
            "collapsim boundary: error: argument --unit: invalid choice: 'm' "
            "(choose from 'kg', 'GeV/c2', 'MeV/c2')\n")

    @pytest.mark.parametrize("flags", [["--unit", "m"],
                                       ["--json", "--unit", "foo"]],
                             ids=["non-mass", "unknown-json"])
    def test_unit_is_checked_before_the_sweep(self, capsys, monkeypatch,
                                              flags):
        monkeypatch.setattr(boundary, "sweep",
                            lambda spec: pytest.fail("swept"))
        code, out, err = run(capsys, "boundary", "trapped", "--v", "100 m/s",
                             "--D", "10 um", *flags)
        assert (code, out) == (2, "")
        assert "argument --unit: invalid choice" in err

    def test_run_over_the_step_budget_exits_2(self, capsys):
        code, out, err = run(capsys, "evolve", "--rate", "1 1/s",
                             "--t-end", "1e300 s", "--dt", "1e-300 s")
        assert code == 2
        assert out == ""
        assert "budget of 1000000" in err

    def test_run_over_the_recording_budget_exits_2(self, capsys):
        # 500000 steps are under the step budget, but recording each of
        # them keeps 4 * 500001 entries.
        code, out, err = run(capsys, "evolve", "--rate", "1 1/s",
                             "--t-end", "1 s", "--dt", "2e-6 s")
        assert (code, out) == (2, "")
        assert err == ("error: 500001 recorded samples of 2x2 exceed the "
                       "budget of 1000000 entries; raise record_stride\n")

    def test_auto_step_that_underflows_exits_2(self, capsys):
        # hbar / gap underflows, so the AUTO step would be 0 s.
        code, out, err = run(capsys, "evolve", "--rate", "2.5 1/s",
                             "--t-end", "3e8 s", "--gap", "1e300 J")
        assert (code, out) == (2, "")
        assert err == ("error: the AUTO step min(1/max rate, hbar/scale of "
                       "H)/64 underflows to 0 s; give an explicit dt\n")

    def test_static_auto_step_that_underflows_exits_2(self, capsys):
        # With no rate and no gap the AUTO step is t_end/100, here 0 s.
        code, out, err = run(capsys, "evolve", "--rate", "0 1/s",
                             "--t-end", "1e-322 s")
        assert (code, out) == (2, "")
        assert err == ("error: the AUTO step t_end/100 underflows to 0 s; "
                       "give an explicit dt\n")

    def test_sweep_over_the_point_budget_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep", "trapped", "--axis", "M",
                             "--min", "1 GeV/c2", "--max", "1e6 GeV/c2",
                             "--count", "1000000000",
                             "--v", "100 m/s", "--D", "10 um")
        assert (code, out) == (2, "")
        assert err == ("error: count must be between 2 and 10000, "
                       "got 1000000000\n")

    @pytest.mark.parametrize("argv, message", [
        (["boundary", "trapped", "--v", "4e8 m/s", "--D", "10 um"],
         "mean_velocity must be below c"),
        (["tau", "trapped", "--M", "1 kg", "--v", "1e9 m/s", "--D", "1 m"],
         "mean_velocity must be below c"),
        (["tau", "free-flight", "--M", "1 kg", "--v", "299792458 m/s",
          "--D", "10 um", "--L", "1 m", "--d", "1 um"],
         "speed must be below c"),
    ], ids=["boundary", "tau-trapped", "tau-free-flight"])
    def test_speed_at_or_above_c_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    # A finite input whose derived scale underflows to 0 or overflows.
    @pytest.mark.parametrize("argv, message", [
        (["boundary", "trapped", "--v", "1e-300 m/s", "--D", "10 um"],
         "E = M v^2 underflows to 0"),
        (["tau", "oscillator", "--M", "1 kg", "--omega0", "1e300 1/s",
          "--n", "7"], "r0 underflows to 0"),
        (["boundary", "free-flight", "--v", "2.5 m/s", "--D", "1e-300 nm",
          "--theta", "1e-5"], "omega_low overflows"),
        (["curve", "trapped", "--M", "4e8 GeV/c2", "--v", "2.5 m/s",
          "--D", "7 nm", "--E", "1e300 J"], "omega_max overflows"),
    ], ids=["boundary-trapped", "tau-oscillator", "boundary-free-flight",
            "curve-trapped"])
    def test_derived_scale_out_of_range_exits_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_invalid_geometry_exits_2(self, capsys):
        code, _, err = run(capsys, "tau", "free-flight", "--M", "1 GeV/c2",
                           "--v", "1 m/s", "--D", "10 um", "--L", "1 m",
                           "--d", "20 um")
        assert code == 2
        assert "slit_width" in err

    # NaN is reported as not finite, not as below 1.
    @pytest.mark.parametrize("argv", [
        ["tau", "trapped", "--M", "2000 GeV/c2", "--v", "100 m/s",
         "--D", "10 um", "--eta", "inf"],
        ["boundary", "trapped", "--v", "100 m/s", "--D", "10 um",
         "--eta", "inf"],
        ["tau", "trapped", "--M", "2000 GeV/c2", "--v", "100 m/s",
         "--D", "10 um", "--eta", "nan"],
        ["boundary", "trapped", "--v", "100 m/s", "--D", "10 um",
         "--eta", "nan"],
    ], ids=["tau", "boundary", "tau-nan", "boundary-nan"])
    def test_infinite_eta_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: margin eta must be finite, got {argv[-1]}\n"

    # A file in a directory that does not exist, and a directory.
    @pytest.mark.parametrize("name", ["missing/out.txt", "."])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, name):
        target = tmp_path / name
        code, out, err = run(capsys, "tau", "photon", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --out {target}: ")
        assert err.count("\n") == 1


class TestWarnings:
    # Each step amplifies the coherence, which the first line says before
    # the record's health.
    @pytest.mark.parametrize("argv, amplification, worst", [
        # Euler with a gap and no decay grows the coherence every step.
        (["evolve", "--rate", "0 1/s", "--gap", "1e-15 eV", "--method",
          "euler", "--dt", "0.1 s", "--t-end", "10 s"], "1.011e+00",
         "-1.065e+00"),
        # dt = 2.96 tau is beyond the RK4 stability limit of 2.79 tau.
        (["curve", "trapped", "--M", "1e6 GeV/c2", "--v", "100 m/s",
          "--D", "10 um", "--dt", "2.2e-16 s", "--t-end", "2.2e-15 s"],
         "1.296e+00", "-6.177e+00"),
    ], ids=["evolve", "curve"])
    def test_health_warnings_go_to_stderr(self, capsys, argv, amplification,
                                          worst):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == (f"warning: step amplification {amplification} above "
                       f"1\nwarning: min eigenvalue {worst} below floor "
                       f"-1.0e-10\n")
        assert out.startswith("time_s,")

    def test_nan_health_is_a_warning_and_overflow_no_numpy_warning(
            self, capsys):
        # Two steps that leave the coherence at 1.46e308: its visibility
        # overflows to inf, and its eigenvalues come out NaN.  (Recorded
        # every second step, the run is refused: g**2 overflows.)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "evolve", "--rate", "1 1/s",
                                 "--t-end", "1.6e39 s", "--dt", "8e38 s",
                                 "--stride", "1")
        assert code == 0
        assert err == ("warning: step amplification 1.707e+154 above 1\n"
                       "warning: min eigenvalue nan below floor -1.0e-10\n")
        last = list(csv.reader(io.StringIO(out)))[-1]
        assert last[3] == "1.456355555555555e+308"
        assert last[-2:] == ["inf", "nan"]

    def test_healthy_run_prints_no_warning(self, capsys):
        code, _, err = run(capsys, "evolve", "--rate", "1 1/s",
                           "--t-end", "1 s")
        assert (code, err) == (0, "")


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_output_is_unchanged(capsys, name):
    code, out, err = run(capsys, *README_EXAMPLES[name])
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.txt").read_bytes().decode()


def test_readme_examples_are_the_pinned_commands():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    block = re.search(r"\n```\n(.*?)\n```", section, re.DOTALL).group(1)
    commands = [shlex.split(line)[1:]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("collapsim ")]
    assert sorted(commands) == sorted(README_EXAMPLES.values())


# report/1 documents, keyed by tests/golden/<key>.txt: two README examples
# with --json, a sweep along the count n, a free-flight mass sweep (digests
# of six entries) and a sweep with no flip (critical_value null).  Each
# file was written by json.dumps(report.to_json(), indent=2).
REPORT_EXAMPLES = {
    "sweep_trapped_json": README_EXAMPLES["sweep_trapped"] + ["--json"],
    "boundary_free_flight_json": README_EXAMPLES["boundary_free_flight"]
    + ["--json"],
    "sweep_oscillator_n_json": [
        "sweep", "oscillator", "--axis", "n", "--min", "1 dimensionless",
        "--max", "1e12 dimensionless", "--count", "7", "--M", "1e-24 kg",
        "--omega0", "1e5 rad/s", "--json"],
    "sweep_free_flight_json": [
        "sweep", "free-flight", "--axis", "M", "--min", "1 GeV/c2",
        "--max", "100 GeV/c2", "--count", "5", "--v", "1e3 m/s",
        "--D", "10 um", "--L", "1 m", "--d", "1 um", "--json"],
    "sweep_no_flip_json": [
        "sweep", "trapped", "--axis", "M", "--min", "1 GeV/c2",
        "--max", "100 GeV/c2", "--count", "5", "--v", "100 m/s",
        "--D", "10 um", "--json"],
}


@pytest.mark.parametrize("name", sorted(REPORT_EXAMPLES))
def test_report_json_is_unchanged(capsys, name):
    golden = (GOLDEN / f"{name}.txt").read_bytes().decode()
    assert run(capsys, *REPORT_EXAMPLES[name]) == (0, golden, "")
    jsonschema.validate(json.loads(golden), REPORT_SCHEMA)


# A valid value for every scenario flag in the table.
FLAG_VALUES = {"M": "2000 GeV/c2", "v": "100 m/s", "D": "10 um", "E": "1 eV",
               "L": "1 m", "d": "1 um", "gap": "1 eV",
               "omega0": "6.283 rad/s", "n": "0"}
SWEEP_GRID = ["--axis", "M", "--min", "1 GeV/c2", "--max", "1e6 GeV/c2"]


def command_entries(command: str) -> list:
    """The SCENARIOS entries a scenario command covers."""
    return [e for e in SCENARIOS.values()
            if e.has_boundary or command != "sweep"]


def scenario_argv(command: str, entry, omit: str | None = None) -> list:
    """`command <scenario>` with every required flag of the scenario but
    omit (and, for sweep, but the axis M)."""
    argv = [command, entry.name] + (SWEEP_GRID if command == "sweep" else [])
    for name in entry.params:
        if name != omit and not (command == "sweep" and name == "M"):
            argv += [f"--{name}", FLAG_VALUES[name]]
    return argv


@pytest.mark.parametrize("command, entry", [
    (command, entry) for command in ("tau", "curve", "sweep")
    for entry in command_entries(command)],
    ids=lambda v: v if isinstance(v, str) else v.name)
def test_scenario_takes_exactly_its_table_flags(capsys, command, entry):
    own = entry.params + entry.optional
    others = {n for e in command_entries(command) for n in e.params + e.optional}
    for name in sorted(others - set(own)):
        code, out, err = run(capsys, *scenario_argv(command, entry),
                             f"--{name}", FLAG_VALUES[name])
        assert (code, out, err) == (
            2, "", f"error: {entry.name} does not take {name}\n")
    for name in entry.params:
        if command == "sweep" and name == "M":
            continue
        code, out, err = run(capsys, *scenario_argv(command, entry, omit=name))
        assert (code, out, err) == (
            2, "", f"error: missing {name} for {entry.name}\n")


@pytest.mark.parametrize("command", ["tau", "curve", "sweep"])
def test_help_lists_each_scenario_flags(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    listed = {}
    for line in out.split("scenario flags:\n")[1].splitlines():
        name, _, flags = line.partition(":")
        listed[name.strip()] = flags.split()
    assert listed == {
        e.name: [f"--{n}" for n in e.params] + [f"[--{n}]" for n in e.optional]
        for e in command_entries(command)}


def test_shared_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    golden = {name: (GOLDEN / f"{name}.txt").read_bytes().decode()
              for name in ("tau_trapped_json", "boundary_free_flight",
                           "evolve")}
    assert run(capsys, *README_EXAMPLES["tau_trapped_json"]) == \
        (0, golden["tau_trapped_json"], "")
    assert run(capsys, *README_EXAMPLES["boundary_free_flight"]) == \
        (0, golden["boundary_free_flight"], "")
    assert run(capsys, "tau", "trapped", "--v", "100 m/s", "--D", "10 um") == \
        (2, "", "error: missing M for trapped\n")
    code, help_text, _ = run(capsys, "tau", "--help")
    assert code == 0 and "scenario flags:" in help_text
    assert run(capsys, "tau", "--help") == (0, help_text, "")
    assert run(capsys, *README_EXAMPLES["evolve"]) == (0, golden["evolve"], "")
    assert run(capsys, *README_EXAMPLES["tau_trapped_json"]) == \
        (0, golden["tau_trapped_json"], "")


def test_passing_checks_format_no_dimension_names(capsys, monkeypatch):
    # Every dimension in the trapped and oscillator derivations has a
    # preferred unit, so si_name() is needed only for an error message.
    calls = []
    si_name = units.Dimension.si_name
    monkeypatch.setattr(units.Dimension, "si_name",
                        lambda self: calls.append(self) or si_name(self))
    for _ in range(2):
        assert run(capsys, *README_EXAMPLES["boundary_trapped"])[0] == 0
    report = sweep(SweepSpec(
        Scenario.TRAPPED, "M", quantity(1, "GeV/c2"), quantity(1e6, "GeV/c2"),
        count=13, fixed={"v": quantity(100, "m/s"), "D": quantity(10, "um")}))
    assert report.critical_value is not None
    for n in (0, 1e20):
        scenario_verdict("oscillator", {"M": quantity(40, "kg"),
                                        "omega0": quantity(6.283, "rad/s"),
                                        "n": Quantity(n)})
    assert calls == []


def test_traced_names_stay_bound_in_cli():
    # perfbench's tracer wraps these where collapsim.cli looks them up.
    for name in ("build_parser", "parse_quantity", "sweep", "evolve",
                 "trajectory_to_csv", "curve_to_csv"):
        assert callable(getattr(cli, name)), name


def test_blow_up_prints_one_error_line():
    # The plan refuses the run, before its first step.
    proc = subprocess.run(
        [sys.executable, "-m", "collapsim", "evolve", "--rate", "1 1/s",
         "--t-end", "1e5 s", "--dt", "1e3 s"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == \
        "error: the state overflows at step 30 (t = 30000.0 s)\n"


def test_linear_sweep_whose_width_overflows_prints_one_error_line():
    # The whole stderr: the refusal comes before numpy can warn on the grid.
    proc = subprocess.run(
        [sys.executable, "-m", "collapsim", "sweep", "trapped", "--axis", "M",
         "--min", "-1e308 kg", "--max", "1e308 kg", "--spacing", "linear",
         "--count", "5", "--v", "100 m/s", "--D", "10 um"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == \
        "error: linear grid width maximum - minimum overflows\n"


@pytest.mark.parametrize("omega0, message", [
    # At the first point, n omega0 overflows, so tau = 4 pi / (n omega0)
    # underflows before the sweep reaches the inf point.
    ("1e3 rad/s", "tau underflows to 0"),
    ("1e-3 rad/s", "quantum_number must be finite, got inf"),
], ids=["first-point", "inf-point"])
def test_count_axis_past_the_doubles_prints_one_error_line(omega0, message):
    # The grid's middle n overflows to inf, which is not rounded, and the
    # sweep raises its first invalid point's error: the whole stderr is
    # one line, with no numpy warning.
    proc = subprocess.run(
        [sys.executable, "-m", "collapsim", "sweep", "oscillator", "--axis",
         "n", "--min", "1.7976931348623155e308 dimensionless",
         "--max", "1.7976931348623157e308 dimensionless", "--count", "3",
         "--M", "1e-20 kg", "--omega0", omega0],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "collapsim", "boundary", "trapped",
         "--v", "100 m/s", "--D", "10 um"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "critical_mass" in proc.stdout


# Edge numbers for every numeric flag, mostly positive ones, the unit of
# each quantity flag's dimension (FLAG_VALUES', seconds for a time, 1/s for
# evolve's rate, and dimensionless for a sweep along n), each command's
# JSON schema, the counts of a sweep grid and the strides of a run.
EDGE_NUMBERS = ["1", "2.5", "1e300", "1e-300"] * 3 + ["0", "-1", "1e308"]
RIGHT_UNITS = {**{name: value.split()[1] for name, value in FLAG_VALUES.items()
                  if " " in value}, "t_end": "s", "dt": "s", "rate": "1/s",
               "n": "dimensionless"}
VERDICT_COMMANDS = {"tau": VERDICT_SCHEMA, "boundary": REPORT_SCHEMA,
                    "curve": TRAJECTORY_SCHEMA, "sweep": REPORT_SCHEMA,
                    "evolve": TRAJECTORY_SCHEMA}
SWEEP_COUNTS = ["2", "5", "21"]
STRIDES = ["1", "7", "1000000000", "0", "-1", "2.5"]


def subparser(command: str) -> argparse.ArgumentParser:
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands.choices[command]


@st.composite
def verdict_argv(draw) -> list:
    """A tau, boundary, curve, sweep or evolve argv: the scenario's own
    flags but a sweep's axis, any of the command's other options but --out,
    and sometimes one unused flag.  A sweep's axis is any scenario input,
    an optional one (whose flag is sometimes given too) included.  Its
    --min and --max are edge numbers (either sign) in the axis' unit,
    mostly."""
    command = draw(st.sampled_from(sorted(VERDICT_COMMANDS)))
    actions = subparser(command)._actions
    argv, entry, axis, extra = [command], None, None, None
    if command != "evolve":
        (scenario,) = [a for a in actions if a.dest == "scenario"]
        name = draw(st.sampled_from(scenario.choices))
        argv.append(name)
        entry = SCENARIOS[name] if command != "boundary" else None
    if command == "sweep":
        axis = draw(st.sampled_from(entry.inputs))
    if entry:
        unused = [a.dest for a in actions if a.dest in PARAMETERS
                  and a.dest not in entry.params + entry.optional]
        # One unused flag in about one argv of five.
        extra = draw(st.sampled_from([None] * 4 * len(unused) + unused
                                     or [None]))
    for action in actions:
        if not action.option_strings or action.dest in ("help", "out"):
            continue
        if entry and action.dest in PARAMETERS:
            wanted = (action.dest in entry.params and action.dest != axis
                      or action.dest == extra
                      or action.dest in entry.optional and draw(st.booleans()))
        else:
            wanted = action.required or draw(st.booleans())
        if not wanted:
            continue
        argv.append(action.option_strings[0])
        if action.nargs == 0:
            continue
        if action.dest == "axis":
            argv.append(axis)
        elif action.dest == "count":
            argv.append(draw(st.sampled_from(SWEEP_COUNTS)))
        elif action.dest == "stride":
            argv.append(draw(st.sampled_from(STRIDES)))
        elif action.choices:
            argv.append(draw(st.sampled_from(action.choices)))
        elif action.dest in ("min", "max"):
            unit = draw(st.sampled_from([RIGHT_UNITS[axis]] * 4 * len(UNITS)
                                        + sorted(UNITS)))
            sign = draw(st.sampled_from(["", "", "-"]))
            argv.append(f"{sign}{draw(st.sampled_from(EDGE_NUMBERS))} {unit}")
        elif action.type is cli._quantity_arg:
            unit = draw(st.sampled_from([RIGHT_UNITS[action.dest]]
                                        * 4 * len(UNITS) + sorted(UNITS)))
            argv.append(f"{draw(st.sampled_from(EDGE_NUMBERS))} {unit}")
        else:
            argv.append(draw(st.sampled_from(EDGE_NUMBERS)))
    return argv


# Sweeps that run to their report, which no draw reaches: the README's, a
# free-flight speed sweep, an oscillator sweep along n and a trapped sweep
# along the optional gap E, whose critical value is 4 pi hbar c eta / D =
# 7.9457834e-20 J to within the bisection's 1e-6.
FREE_FLIGHT_SPEED_SWEEP = ["sweep", "free-flight", "--axis", "v",
                           "--min", "1 m/s", "--max", "1e4 m/s", "--count",
                           "5", "--M", "4.7326 GeV/c2", "--D", "10 um",
                           "--L", "1 m", "--d", "1 um"]
OSCILLATOR_N_SWEEP = ["sweep", "oscillator", "--axis", "n",
                      "--min", "10.4 dimensionless",
                      "--max", "20.4 dimensionless", "--count", "2",
                      "--spacing", "linear", "--M", "3.942625681831795e-46 kg",
                      "--omega0", "1e5 rad/s"]
TRAPPED_GAP_SWEEP = ["sweep", "trapped", "--axis", "E", "--min", "1e-21 J",
                     "--max", "1e-18 J", "--count", "7", "--M", "1 kg",
                     "--v", "100 m/s", "--D", "10 um", "--eta", "2"]


@pytest.mark.parametrize("argv, critical", [
    (README_EXAMPLES["sweep_trapped"], "3.9728926e-24 kg"),
    (FREE_FLIGHT_SPEED_SWEEP, "999.99369 m/s"),
    (OSCILLATOR_N_SWEEP, "10.2 dimensionless"),
    (TRAPPED_GAP_SWEEP, "7.9457853e-20 J")],
    ids=["readme-trapped", "free-flight-v", "oscillator-n", "trapped-E"])
def test_fuzz_examples_sweep_to_a_report(capsys, argv, critical):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith(f"critical: {critical}\n")


# A linear grid whose width overflows, too rare among the draws to be met,
# an evolve run whose --json must validate, and sweeps that exit 0, each
# with and without --json.  No call may take longer than 5 s.
@settings(deadline=5000, max_examples=500)
@given(argv=verdict_argv())
@example(argv=["sweep", "trapped", "--axis", "M", "--min", "-1e308 kg",
               "--max", "1e308 kg", "--spacing", "linear", "--count", "5",
               "--v", "100 m/s", "--D", "10 um"])
@example(argv=["evolve", "--rate", "2.5 1/s", "--t-end", "1 s", "--gap",
               "1e-300 eV", "--method", "euler", "--stride", "7", "--json"])
@example(argv=README_EXAMPLES["sweep_trapped"])
@example(argv=README_EXAMPLES["sweep_trapped"] + ["--json"])
@example(argv=FREE_FLIGHT_SPEED_SWEEP)
@example(argv=FREE_FLIGHT_SPEED_SWEEP + ["--json"])
@example(argv=OSCILLATOR_N_SWEEP)
@example(argv=OSCILLATOR_N_SWEEP + ["--json"])
def test_verdict_commands_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert sum("error:" in line for line in lines) == 1, lines
    elif "--json" in argv:
        jsonschema.validate(json.loads(out.getvalue()),
                            VERDICT_COMMANDS[argv[0]])
