"""Density matrices, Hamiltonians, and pairwise collapse-rate matrices over a
labeled finite basis.

A basis is the tuple of its unique state names, as `make_basis` returns
it; a name's index is its position, and wherever a state is addressed it
may be given by name or by raw index.  Every matrix type checks its basis
by `make_basis`'s rules when it is built, and stores a list as a tuple.

All three matrix types are immutable value objects: arrays are copied on
construction (a read-only view into a read-only array is shared) and
marked read-only, so instances are safe to share across threads.
DensityMatrix deliberately does not enforce its physical invariants at
construction, so that integrators can monitor drifting states instead of
crashing on them: `invariants` measures them for one matrix or a stack,
and `defects` judges the measurements, one tolerance per invariant, for a
state (`validate`) and a trajectory alike.

A complex array becomes [re, im] pairs through one conversion,
`_complex_to_pairs`, and two are multiplied entry by entry through one
product whose bits do not depend on the CPU, `_entry_product`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# One tolerance per invariant, for a state and for every sample of a
# trajectory alike: roughly 100x double-precision accumulation over the
# longest integration exercised by the test suite.
HERMITICITY_TOL = 1e-12   # absolute, on max |rho - rho^H|
TRACE_TOL = 1e-10         # absolute, on |tr(rho) - 1|
PSD_TOL = 1e-10           # smallest eigenvalue >= -PSD_TOL


def make_basis(*names: str) -> tuple[str, ...]:
    """A basis: its unique state names, each name's index its position."""
    if not names:
        raise ValueError("basis needs at least one label")
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"basis names must be strings, got {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate basis names in {names}")
    return names


def index_of(basis: tuple[str, ...], label: str | int) -> int:
    """Resolve a name or a raw index against a basis."""
    if isinstance(label, str):
        if label not in basis:
            raise ValueError(f"label '{label}' not in basis {list(basis)}")
        return basis.index(label)
    try:
        idx = operator.index(label)
    except TypeError:
        raise ValueError("label must be a name or an integer index, "
                         f"got {label!r}") from None
    if not 0 <= idx < len(basis):
        raise ValueError(f"index {idx} out of range for basis of size {len(basis)}")
    return idx


def _freeze(m, field: str, dtype) -> None:
    """Store m.basis as a checked tuple (a tuple is kept) and m.<field> as a
    read-only square dtype array over it; a read-only view into a read-only
    array (a trajectory row) is shared, anything else copied."""
    basis = m.basis
    if not isinstance(basis, tuple):
        if isinstance(basis, str) or not np.iterable(basis):
            raise ValueError(
                f"basis must be a sequence of names, got {basis!r}")
        basis = tuple(basis)
        object.__setattr__(m, "basis", basis)
    make_basis(*basis)
    matrix = getattr(m, field)
    base = getattr(matrix, "base", None)
    shared = (isinstance(base, np.ndarray) and not base.flags.writeable
              and not matrix.flags.writeable and matrix.dtype == dtype)
    arr = matrix if shared else np.array(matrix, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if len(basis) != arr.shape[0]:
        raise ValueError(
            f"basis size {len(basis)} does not match matrix shape {arr.shape}")
    arr.setflags(write=False)
    object.__setattr__(m, field, arr)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Complex matrix over a labeled basis, nominally Hermitian, unit-trace,
    and positive semidefinite (see `validate`)."""

    basis: tuple[str, ...]
    elements: np.ndarray

    def __post_init__(self):
        _freeze(self, "elements", np.complex128)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian matrix over a labeled basis; elements in joules."""

    basis: tuple[str, ...]
    elements: np.ndarray

    # A defect that overflows measures as inf, not as a numpy warning.
    @np.errstate(over="ignore")
    def __post_init__(self):
        _freeze(self, "elements", np.complex128)
        if not np.all(np.isfinite(self.elements)):
            raise ValueError("Hamiltonian entries must be finite")
        defect = float(np.max(np.abs(self.elements - self.elements.conj().T)))
        norm = float(np.max(np.abs(self.elements)))
        if norm > 0.0 and defect > 1e-12 * norm:
            raise ValueError(f"Hamiltonian is not Hermitian (defect {defect:.3e})")

    @classmethod
    def zero(cls, basis: tuple[str, ...]) -> "Hamiltonian":
        return cls(basis, np.zeros((len(basis), len(basis)), dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class CollapseRateMatrix:
    """Symmetric matrix of pairwise decay rates 1/tau_ij in 1/s.

    Rate 0.0 is the exact representation of tau = infinity, so the
    no-collapse limit needs no sentinel arithmetic; the diagonal is
    identically 0 (a state never decoheres against itself).
    """

    basis: tuple[str, ...]
    rates: np.ndarray

    def __post_init__(self):
        _freeze(self, "rates", np.float64)
        if not np.all(np.isfinite(self.rates)):
            raise ValueError("rates must be finite")
        if not np.array_equal(self.rates, self.rates.T):
            raise ValueError("rate matrix must be exactly symmetric")
        if np.any(np.diagonal(self.rates) != 0.0):
            raise ValueError("rate matrix diagonal must be exactly zero")
        if np.any(self.rates < 0.0):
            raise ValueError("rates must be nonnegative")

    @property
    def max_rate(self) -> float:
        return float(self.rates.max())


# A non-finite entry measures as NaN or inf, not as numpy warnings.
@np.errstate(invalid="ignore", over="ignore")
def invariants(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace drift |tr(m) - 1|, Hermiticity defect max |m - m^H| and the
    smallest eigenvalue of the Hermitian part (meaningful even when m is
    slightly non-Hermitian), for one matrix or each of a stack (..., n, n)."""
    mh = m.swapaxes(-1, -2).conj()
    trace = m.trace(axis1=-2, axis2=-1) - 1.0
    return (np.hypot(trace.real, trace.imag),
            np.abs(m - mh).max(axis=(-2, -1)),
            np.linalg.eigvalsh((m + mh) / 2.0).min(axis=-1))


def defects(drift, herm, lo) -> dict[str, float]:
    """Each invariant, of one sample or of a stack as `invariants` measures
    them, that some sample exceeds its tolerance on (NaN exceeds), named as
    its warning names it, with its worst value over the samples."""
    # The ufuncs' own reductions: np.max's wrapper costs ~3 us a call.
    drift, herm = np.maximum.reduce(drift), np.maximum.reduce(herm)
    lo = np.minimum.reduce(lo)
    worst = {"trace drift": drift, "hermiticity defect": herm,
             "min eigenvalue": lo}
    within = (drift <= TRACE_TOL, herm <= HERMITICITY_TOL, lo >= -PSD_TOL)
    return {name: float(value) for (name, value), ok
            in zip(worst.items(), within) if not ok}


def describe(found: dict[str, float]) -> list[str]:
    """One warning line per entry of `defects`."""
    return [f"{name} {value:.3e}" + (f" below floor {-PSD_TOL:.1e}"
                                     if name == "min eigenvalue" else "")
            for name, value in found.items()]


def validate(rho: DensityMatrix) -> dict[str, float]:
    """`defects` of one state: empty when it is a valid density matrix.

    Diagnostic only: accepts any square complex matrix with a basis and
    never raises.
    """
    return defects(*invariants(rho.elements))


def pure_state(amplitudes, basis: tuple[str, ...]) -> DensityMatrix:
    """|psi><psi| from amplitudes over the basis, normalizing psi."""
    psi = np.asarray(amplitudes, dtype=np.complex128)
    if psi.ndim != 1 or psi.size != len(basis):
        raise ValueError(
            f"expected {len(basis)} amplitudes, got shape {psi.shape}")
    # Scaled by a power of two, which is exact, so that the squares in the
    # norm neither overflow nor underflow.
    pairs = _complex_to_pairs(psi)
    largest = float(np.max(np.abs(pairs), initial=0.0))
    if largest == 0.0:
        raise ValueError("amplitudes must not all be zero")
    pairs = np.ldexp(pairs, -math.frexp(largest)[1])
    # Each float divided by the norm is correctly rounded (numpy divides a
    # complex by a real through its reciprocal).  rho_ij = psi_i conj(psi_j)
    # by `_entry_product`: negation is exact and + commutes, so rho is
    # Hermitian bit for bit on any CPU, each diagonal imaginary part +0.0.
    norm = float(np.linalg.norm(pairs.view(np.complex128)))
    psi = (pairs / norm).view(np.complex128)[:, 0]
    return DensityMatrix(basis, _entry_product(psi[:, None], psi.conj()))


def visibility(basis: tuple[str, ...], m: np.ndarray,
               i: str | int, j: str | int) -> np.ndarray:
    """2|m_ij| of one matrix or each of a stack (..., n, n); inf on overflow."""
    ii, jj = index_of(basis, i), index_of(basis, j)
    if ii == jj:
        raise ValueError(f"visibility needs two distinct labels, got '{i}' twice")
    z = m[..., ii, jj]
    with np.errstate(over="ignore"):
        return 2.0 * np.hypot(z.real, z.imag)


def _complex_to_pairs(matrix: np.ndarray) -> np.ndarray:
    """The float64 (..., 2) array of [re, im] pairs of a complex array."""
    return (np.ascontiguousarray(matrix).view(np.float64)
            .reshape(*matrix.shape, 2))


def _entry_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entry by entry, broadcast, rounded as (ac - bd) + i(ad + bc) in
    float64 ufuncs where both are complex (a real factor makes `*` exact):
    numpy's contiguous complex `*` fuses ac - bd into one FMA where the CPU
    has one, and so rounds differently from one host to the next."""
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return a * b
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    re = ar * br - ai * bi
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = ar * bi + ai * br
    return out
