"""Independent reference answers for the benchmark's checks.

Nothing here imports collapsim: the closed forms are written out again from
the paper's inequalities, with the constants the README documents, so a
wrong answer from the program cannot also be the expected one.
"""

from __future__ import annotations

import math

import numpy as np

HBAR = 1.054571817e-34          # J s
C = 2.99792458e8                # m/s
GEV_C2 = 1.78266192e-27         # kg per GeV/c2
EV = 1.602176634e-19            # J per eV

# SI scale of every unit token the benchmark writes into a CLI flag; the
# same multiplication the CLI's parser performs, so text and SI agree.
SCALE = {"kg": 1.0, "GeV/c2": GEV_C2, "m": 1.0, "um": 1e-6, "m/s": 1.0,
         "rad/s": 1.0, "s": 1.0, "1/s": 1.0, "eV": EV, "dimensionless": 1.0}

# Sweeps bisect to 1e-6 relative width and report the midpoint; the slack
# covers that and the 8 significant digits of the sweep's text output.
BISECTION_TOL = 2e-6
# Text outputs print 5 significant digits.
TEXT5_TOL = 6e-5
# Closed-form tau against the program's tau: rounding only.
TAU_TOL = 1e-9
# RK4 at the step sizes the workloads use stays far inside these.
STATE_TOL = 1e-6
VISIBILITY_ABS_TOL = 1e-8
VISIBILITY_REL_TOL = 1e-6

MARGINAL_BAND = 2.0


def si(value: float, unit: str) -> float:
    return float(value) * SCALE[unit]


def text(value: float, unit: str) -> str:
    """Lossless '<number> <unit>' flag text."""
    return f"{float(value)!r} {unit}"


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# --- discrimination: the paper's inequalities --------------------------------

def trapped_ratio(M: float, v: float, D: float, eta: float) -> float:
    """E*D / (4 pi hbar c eta) with E = M v^2; finite tau iff >= 1."""
    return M * v * v * D / (4.0 * math.pi * HBAR * C * eta)


def trapped_tau(M: float, v: float, D: float, eta: float) -> float:
    if trapped_ratio(M, v, D, eta) < 1.0:
        return math.inf
    return 4.0 * math.pi * HBAR * eta / (M * v * v)


def trapped_critical(axis: str, fixed: dict, eta: float) -> float:
    """Value of the swept axis at which E*D = 4 pi hbar c eta."""
    k = 4.0 * math.pi * HBAR * C * eta
    if axis == "M":
        return k / (fixed["D"] * fixed["v"] ** 2)
    if axis == "v":
        return math.sqrt(k / (fixed["M"] * fixed["D"]))
    raise ValueError(axis)


def flight_margin(M: float, v: float, D: float, L: float) -> float:
    """p * theta * D / (8 hbar) with theta = D / L; finite tau iff >= 1."""
    return M * v * (D / L) * D / (8.0 * HBAR)


def flight_tau(M: float, v: float, D: float, L: float) -> float:
    if flight_margin(M, v, D, L) < 1.0:
        return math.inf
    omega_high = math.sqrt(M * v * C * C / (2.0 * HBAR * L))
    return 2.0 * C / (omega_high * v * (D / L))


def oscillator_n_star(M: float, omega0: float) -> float:
    """(4 pi c / v0)^(2/3) with v0 = sqrt(hbar omega0 / (2 M))."""
    v0 = math.sqrt(HBAR * omega0 / (2.0 * M))
    return (4.0 * math.pi * C / v0) ** (2.0 / 3.0)


def oscillator_mass_star(n: int, omega0: float) -> float:
    """Mass at which n = n*(M); states are finite-tau for lighter masses."""
    v0 = 4.0 * math.pi * C / n ** 1.5
    return HBAR * omega0 / (2.0 * v0 * v0)


def oscillator_tau(M: float, omega0: float, n: int) -> float:
    if n == 0 or n <= oscillator_n_star(M, omega0):
        return math.inf
    return 4.0 * math.pi / (n * omega0)


def regime(tau: float, ratio: float) -> str:
    if math.isinf(tau):
        return "quantum"
    return "marginal" if ratio < MARGINAL_BAND else "classical"


def verdict(scenario: str, p: dict, eta: float) -> tuple[float, str]:
    """(tau in s, regime) of one scenario from SI parameters."""
    if scenario == "trapped":
        tau = trapped_tau(p["M"], p["v"], p["D"], eta)
        return tau, regime(tau, trapped_ratio(p["M"], p["v"], p["D"], eta))
    if scenario == "free-flight":
        tau = flight_tau(p["M"], p["v"], p["D"], p["L"])
        return tau, regime(tau, flight_margin(p["M"], p["v"], p["D"], p["L"]))
    n = int(p["n"])
    tau = oscillator_tau(p["M"], p["omega0"], n)
    return tau, regime(tau, n / oscillator_n_star(p["M"], p["omega0"]))


# --- evolution ----------------------------------------------------------------

def liouvillian(H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Row-major vectorised generator -(i/hbar)(H x I - I x H^T) - diag(vec R)."""
    n = H.shape[0]
    eye = np.eye(n)
    return (-1j / HBAR) * (np.kron(H, eye) - np.kron(eye, H.T)) \
        - np.diag(R.reshape(-1).astype(np.complex128))


def propagate(rho0: np.ndarray, H: np.ndarray, R: np.ndarray,
              t: float) -> np.ndarray:
    """rho(t) = expm(L t) vec(rho0), the exact solution of the model."""
    from scipy.linalg import expm
    n = rho0.shape[0]
    return (expm(liouvillian(H, R) * t) @ rho0.reshape(-1)).reshape(n, n)


def pure_density(amplitudes) -> np.ndarray:
    psi = np.asarray(amplitudes, dtype=np.complex128)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def visibility_ok(got: float, want: float) -> bool:
    return abs(got - want) <= VISIBILITY_ABS_TOL + VISIBILITY_REL_TOL * want


def trajectory_csv_header(n: int) -> str:
    cols = ["time_s"]
    for a in range(n):
        for b in range(n):
            cols += [f"rho_{a}{b}_re", f"rho_{a}{b}_im"]
    return ",".join(cols + ["visibility", "min_eigenvalue"])
