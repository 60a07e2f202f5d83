"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

import collapsim as cs
from collapsim.cli import main
from collapsim.units import HBAR, PI, Quantity, parse_quantity, quantity

HBAR_V = 1.054571817e-34
C_V = 2.99792458e8
GEV = 1.78266192e-27


def check(label, condition, detail=""):
    print(f"[{'PASS' if condition else 'FAIL'}] {label}: {detail}")
    assert condition, f"{label}: {detail}"


def cli(capsys, *argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    return code, out, elapsed


def critical_mass_gev(out):
    line = [l for l in out.splitlines() if l.startswith("critical_mass:")][-1]
    return parse_quantity(line.split(":")[1].strip()).to("GeV/c2")


def test_criterion_1_trapped_boundary(capsys):
    code_a, out_a, elapsed_a = cli(capsys, "boundary", "trapped",
                                   "--v", "100 m/s", "--D", "10 um")
    code_b, out_b, elapsed_b = cli(capsys, "boundary", "trapped",
                                   "--v", "1 m/s", "--D", "10 um")
    mass_a, mass_b = critical_mass_gev(out_a), critical_mass_gev(out_b)
    check("criterion 1a", code_a == 0 and 2.0e3 <= mass_a <= 2.5e3,
          f"critical mass {mass_a:.4g} GeV/c2 in [2.0e3, 2.5e3]")
    check("criterion 1a runtime", elapsed_a < 1.0, f"{elapsed_a:.3f} s < 1 s")
    check("criterion 1b", code_b == 0 and 2.0e7 <= mass_b <= 2.5e7,
          f"critical mass {mass_b:.4g} GeV/c2 in [2.0e7, 2.5e7]")
    check("criterion 1b runtime", elapsed_b < 1.0, f"{elapsed_b:.3f} s < 1 s")


def test_criterion_2_free_flight_boundary(capsys):
    code, out, elapsed = cli(capsys, "boundary", "free-flight",
                             "--v", "1e3 m/s", "--theta", "1e-5",
                             "--D", "10 um")
    mass = critical_mass_gev(out)
    check("criterion 2", code == 0 and 4.5 <= mass <= 5.0,
          f"critical mass {mass:.4g} GeV/c2 in [4.5, 5.0]")
    check("criterion 2 runtime", elapsed < 1.0, f"{elapsed:.3f} s < 1 s")


def test_criterion_3_decay_oracle():
    start = time.perf_counter()
    basis = cs.make_basis("here", "there")
    rho0 = cs.pure_state([1, 1], basis)
    rates = cs.CollapseRateMatrix(basis, np.array([[0.0, 1.0], [1.0, 0.0]]))
    H = cs.Hamiltonian.zero(basis)
    cfg = cs.EvolutionConfig(t_end=quantity(10, "s"), record_stride=64)
    traj = cs.evolve(rho0, H, rates, cfg)

    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        exact = cs.analytic_isolated(rho0, rates, quantity(t, "s")).elements
        err = np.abs(state.elements - exact) / np.abs(exact)
        worst = max(worst, float(np.max(err)))
    check("criterion 3 elementwise", worst <= 1e-8,
          f"max relative error {worst:.3e} <= 1e-8 (RK4, AUTO step)")

    vis = traj.visibility("here", "there")[-1]
    rel = abs(vis - math.exp(-10)) / math.exp(-10)
    check("criterion 3 visibility", traj.times[-1] == 10.0 and rel <= 1e-8,
          f"final visibility off e^-10 by {rel:.3e} <= 1e-8")
    elapsed = time.perf_counter() - start
    check("criterion 3 runtime", elapsed < 1.0, f"{elapsed:.3f} s < 1 s")


def test_criterion_4_boundary_one_over_e_calibration():
    m_star = cs.free_flight_critical_mass(quantity(1e3, "m/s"), 1e-5,
                                          quantity(10, "um"))
    spec = cs.FreeFlightSpec(mass=m_star * (1 + 1e-12),
                             speed=quantity(1e3, "m/s"),
                             slit_separation=quantity(10, "um"),
                             source_distance=quantity(1, "m"),
                             slit_width=quantity(1, "um"))
    verdict = cs.free_flight_tau(spec)
    flight = 1.0 / 1e3
    check("criterion 4 tau", not verdict.is_infinite
          and abs(verdict.tau.value - flight) / flight <= 1e-9,
          f"tau = {verdict.tau.value:.12e} s = flight time within 1e-9")

    traj = cs.curve_trajectory(verdict, quantity(flight, "s"),
                               record_stride=512)
    times, vis = traj.times, traj.visibility(0, 1)
    err = abs(vis[-1] - math.exp(-1))
    check("criterion 4 visibility", times[-1] == pytest.approx(flight)
          and err <= 1e-6,
          f"visibility after one flight off e^-1 by {err:.3e} <= 1e-6")


def test_criterion_5_schroedinger_limit():
    start = time.perf_counter()
    basis = cs.make_basis("g", "e")
    omega = 2 * PI                      # period 1 s
    H = cs.Hamiltonian(basis, (HBAR.value * omega / 2)
                       * np.array([[0, 1], [1, 0]], dtype=complex))
    rho0 = cs.pure_state([1, 0], basis)
    # all tau infinite: photon and Rabi verdicts both map to rate zero
    rates = cs.build_rate_matrix(basis, {("g", "e"): cs.rabi_tau(
        quantity(HBAR.value * omega, "J"))})
    assert not rates.rates.any()
    assert cs.photon_tau().rate.value == 0.0

    cfg = cs.EvolutionConfig(t_end=quantity(100.0, "s"),
                             dt=quantity(1 / 500, "s"), record_stride=250)
    traj = cs.evolve(rho0, H, rates, cfg)
    pops = np.array([s.elements[0, 0].real for s in traj.states])
    peaks, troughs = pops[0::2], pops[1::2]       # t = k T and (k + 1/2) T
    amplitudes = peaks[1:] - troughs
    amp_err = float(np.max(np.abs(amplitudes - 1.0)))
    check("criterion 5 amplitude", amp_err <= 1e-6,
          f"amplitude error {amp_err:.3e} <= 1e-6 over 100 periods")

    purity_err = max(abs(np.trace(s.elements @ s.elements).real - 1.0)
                     for s in traj.states)
    check("criterion 5 purity", purity_err <= 1e-8,
          f"max |tr(rho^2) - 1| = {purity_err:.3e} <= 1e-8")
    elapsed = time.perf_counter() - start
    check("criterion 5 runtime", elapsed < 10.0, f"{elapsed:.3f} s < 10 s")


def test_criterion_6_integrator_quality():
    order = cs.convergence_order(cs.Method.RK4)
    check("criterion 6 order", abs(order - 4.0) <= 0.3,
          f"measured RK4 order {order:.3f} within 4.0 +/- 0.3")

    worst_trace = worst_herm = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = HBAR.value * (a + a.conj().T) / 2.0
        r = np.abs(rng.normal(size=(n, n)))
        r = (r + r.T) / 2.0
        np.fill_diagonal(r, 0.0)
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = b @ b.conj().T
        rho /= np.trace(rho).real
        basis = cs.make_basis(*(f"s{i}" for i in range(n)))
        cfg = cs.EvolutionConfig(t_end=quantity(10.0, "s"),
                                 dt=quantity(1e-3, "s"),   # 1e4 steps
                                 record_stride=10 ** 4)
        traj = cs.evolve(cs.DensityMatrix(basis, rho),
                         cs.Hamiltonian(basis, h),
                         cs.CollapseRateMatrix(basis, r), cfg)
        worst_trace = max(worst_trace, traj.trace_drift[-1])
        worst_herm = max(worst_herm, traj.hermiticity_defect[-1])
    check("criterion 6 trace", worst_trace <= 1e-10,
          f"max trace drift {worst_trace:.3e} <= 1e-10 over 1e4 steps x 20 seeds")
    check("criterion 6 hermiticity", worst_herm <= 1e-10,
          f"max Hermiticity defect {worst_herm:.3e} <= 1e-10")


def test_criterion_7_criterion_equivalences():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)

    mismatches = 0
    for _ in range(1000):
        m = 10.0 ** rng.uniform(-2, 10)         # GeV/c2
        v = 10.0 ** rng.uniform(-2, 4)
        D = 10.0 ** rng.uniform(-7, -3)
        eta = rng.uniform(1.0, 5.0)
        spec = cs.TrappedPairSpec(mass=quantity(m, "GeV/c2"),
                                  mean_velocity=quantity(v, "m/s"),
                                  separation=quantity(D, "m"), margin=eta)
        finite = not cs.trapped_tau(spec).is_infinite
        criterion = (m * GEV) * v * v * D >= 4 * PI * HBAR_V * C_V * eta
        mismatches += finite != criterion
    check("criterion 7 trapped", mismatches == 0,
          f"{mismatches}/1000 disagreements with E*D >= 4 pi hbar c eta")

    mismatches = 0
    for _ in range(1000):
        m = 10.0 ** rng.uniform(-2, 6)
        v = 10.0 ** rng.uniform(0, 4)
        D = 10.0 ** rng.uniform(-7, -3)
        L = 10.0 ** rng.uniform(-1, 1)
        if D >= L:
            continue
        spec = cs.FreeFlightSpec(mass=quantity(m, "GeV/c2"),
                                 speed=quantity(v, "m/s"),
                                 slit_separation=quantity(D, "m"),
                                 source_distance=quantity(L, "m"),
                                 slit_width=quantity(D / 10, "m"))
        verdict = cs.free_flight_tau(spec)
        finite = not verdict.is_infinite
        criterion = (m * GEV * v) * (D / L) * D >= 8 * HBAR_V
        mismatches += finite != criterion
        if finite:
            mismatches += not verdict.tau.value <= (L / v) * (1 + 1e-12)
    check("criterion 7 free flight", mismatches == 0,
          f"{mismatches}/1000 disagreements with p theta D >= 8 hbar and tau <= L/v")

    violations = 0
    tested = 0
    for _ in range(1000):
        m = 10.0 ** rng.uniform(0, 8)
        v = 10.0 ** rng.uniform(0, 4)
        D = 10.0 ** rng.uniform(-7, -3)
        L = 1.0
        spec = cs.FreeFlightSpec(mass=quantity(m, "GeV/c2"),
                                 speed=quantity(v, "m/s"),
                                 slit_separation=quantity(D, "m"),
                                 source_distance=quantity(L, "m"),
                                 slit_width=quantity(D / 10, "m"))
        window = cs.doppler_window(spec)
        if window is None:
            continue
        tested += 1
        low, high = window
        omega = Quantity(rng.uniform(low.value, high.value), low.dim)
        kick = cs.doppler_back_action(omega, quantity(m, "GeV/c2"))
        resolution = cs.doppler_error(omega, quantity(L / (4 * v), "s"))
        violations += not kick.value <= 0.5 * resolution.value * (1 + 1e-9)
    check("criterion 7 back-action", violations == 0 and tested > 100,
          f"{violations}/{tested} windowed samples violate the recoil bound")
    elapsed = time.perf_counter() - start
    check("criterion 7 runtime", elapsed < 10.0, f"{elapsed:.3f} s < 10 s")


def test_criterion_8_oscillator():
    quantum_everywhere = True
    for mass_kg in np.geomspace(1e-27, 1e2, 30):
        spec = cs.OscillatorSpec(mass=quantity(float(mass_kg), "kg"),
                                 angular_frequency=quantity(2 * PI, "rad/s"),
                                 quantum_number=0)
        quantum_everywhere &= cs.oscillator_verdict(spec).is_infinite
    check("criterion 8 ground state", quantum_everywhere,
          "verdict Quantum for n = 0 across masses 1e-27..1e2 kg")

    worst_formula = worst_ratio = 0.0
    for mass_kg, omega0 in ((1e-20, 1e5), (40.0, 2 * PI), (1e-26, 1e8)):
        spec = cs.OscillatorSpec(mass=quantity(mass_kg, "kg"),
                                 angular_frequency=quantity(omega0, "rad/s"),
                                 quantum_number=0)
        derived = dict(cs.oscillator_verdict(spec).derivation)
        v0 = math.sqrt(HBAR_V * omega0 / (2 * mass_kg))
        n_star = derived["n_star"].value
        worst_formula = max(worst_formula,
                            abs(n_star - (4 * PI * C_V / v0) ** (2 / 3))
                            / (4 * PI * C_V / v0) ** (2 / 3))
        ratio = n_star / (C_V / v0) ** (2 / 3)
        worst_ratio = max(worst_ratio,
                          abs(ratio - (4 * PI) ** (2 / 3)) / (4 * PI) ** (2 / 3))
    check("criterion 8 threshold", worst_formula <= 1e-9,
          f"n* matches (4 pi c / v0)^(2/3) to {worst_formula:.3e} <= 1e-9")
    check("criterion 8 factor", worst_ratio <= 1e-9,
          f"n* / (c/v0)^(2/3) = (4 pi)^(2/3) to {worst_ratio:.3e}")
