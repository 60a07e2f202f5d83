"""Trajectory outputs pinned byte for byte: JSON, a nonzero Hamiltonian and
more than two levels, none of which the README examples cover.  The files
in tests/golden/ were last written by the code that applies each RK4 step
as one precomputed n^2 x n^2 operator and jumps between recorded samples
with its powers; against the matrix-form stepping before it, about half of
their values moved, by at most 7e-16."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from collapsim.cli import main
from collapsim.evolution import (EvolutionConfig, evolve, trajectory_to_csv,
                                 trajectory_to_json, trajectory_to_json_text)
from collapsim.states import (CollapseRateMatrix, Hamiltonian, make_basis,
                              pure_state)
from collapsim.units import quantity

GOLDEN = Path(__file__).parent / "golden"


def golden(name):
    return (GOLDEN / name).read_bytes().decode()


def test_evolve_json_with_gap(capsys):
    code = main(["evolve", "--rate", "3 1/s", "--t-end", "2 s",
                 "--gap", "1e-15 eV", "--stride", "16", "--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == golden("evolve_gap_json.txt")


def test_curve_json(capsys):
    # The README's free-flight curve, recorded every 16th step.
    code = main(["curve", "free-flight", "--M", "4.7326 GeV/c2",
                 "--v", "1e3 m/s", "--D", "10 um", "--L", "1 m",
                 "--d", "1 um", "--t-end", "1e-3 s", "--stride", "16",
                 "--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == golden("curve_free_flight_json.txt")


def test_three_level_positivity_violation():
    # The trajectory of test_three_level_positivity_violation_is_flagged,
    # recorded every 32nd of its 3200 steps to keep the files near 100 kB.
    basis = make_basis("a", "b", "c")
    rates = np.zeros((3, 3))
    rates[0, 1] = rates[1, 0] = 50.0
    cfg = EvolutionConfig(t_end=quantity(1, "s"), record_stride=32)
    traj = evolve(pure_state([1, 1, 1], basis), Hamiltonian.zero(basis),
                  CollapseRateMatrix(basis, rates), cfg)
    doc = trajectory_to_json(traj, ("a", "b"))
    assert trajectory_to_csv(traj, ("a", "b")) == \
        golden("three_level_violation.csv")
    assert json.dumps(doc, indent=2) + "\n" == \
        golden("three_level_violation.json")
    assert trajectory_to_json_text(traj, ("a", "b")) == \
        golden("three_level_violation.json")


def dispatched_cpu_features():
    """The CPU features that numpy dispatches its loops on and this CPU has:
    with all of them disabled, numpy runs its baseline loops."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(name)]


# Amplitudes whose complex products round differently when fused.
COMPLEX_AMPLITUDES = [0.6 - 0.3j, 0.2 + 0.7j, -0.1j]

BASELINE_RUN = """
from collapsim.cli import main
from collapsim.states import pure_state
main(["evolve", "--rate", "3 1/s", "--t-end", "2 s", "--gap", "1e-15 eV",
      "--stride", "16", "--json"])
print(pure_state(%r, ("a", "b", "c")).elements.tobytes().hex())
""" % (COMPLEX_AMPLITUDES,)


def test_outputs_do_not_depend_on_numpy_cpu_dispatch():
    # The golden file's run and a complex pure state, in a Python whose
    # numpy runs only its baseline loops: the same bytes as here.
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(dispatched_cpu_features())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"),
        env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BASELINE_RUN],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    rho = pure_state(COMPLEX_AMPLITUDES, ("a", "b", "c")).elements
    assert proc.stdout == golden("evolve_gap_json.txt") + \
        rho.tobytes().hex() + "\n"
