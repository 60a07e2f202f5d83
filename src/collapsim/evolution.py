"""Fixed-step integration of the pairwise-decay master equation.

The dynamics integrated here is, elementwise over the labeled basis,

    d rho_ij / dt = -(i/hbar) [H, rho]_ij - rate_ij * rho_ij

with rate_ij = 1/tau_ij from a CollapseRateMatrix.  Damping acts in the
fixed basis carried by the rate matrix (no rotation of the damping term).
With all rates zero this is exactly the von Neumann equation; with H = 0
the closed form is the elementwise decay rho_ij(t) = rho_ij(0)
exp(-t * rate_ij), provided as `analytic_isolated` and used as the
integrator oracle.

A fixed-step classic RK4 (Euler selectable) keeps trajectories reproducible
and makes the convergence order directly measurable; the dynamics is
non-stiff at the scales this package targets.

The equation is linear and time-invariant: d vec(rho)/dt = L vec(rho)
for the row-major vec rho and one n^2 x n^2 Liouvillian L
(`_liouvillian`), so one step is the fixed matrix R(dt L), the method's
step polynomial, which `_step` writes once.  A run takes one of three
paths into the (samples, n, n) array the trajectory keeps, each taking
its step from `_step`:

- diagonal: where H has no nonzero entry off its diagonal (every CLI run),
  each entry decouples, d rho_ij/dt = (-i(E_i - E_j)/hbar - rate_ij)
  rho_ij, and a step multiplies it by its amplification g, the step of
  `_rhs` applied to a matrix of ones;
- operator: where it costs less than stepping the matrix
  (`_operator_pays`), R(dt L) is built once, as the step of L's product
  applied to the identity;
- direct: otherwise the matrix is stepped by `_rhs` one step at a time.

Each gap's power of g or of the operator comes from one table
(`_power_table`), and complex entries are multiplied with bits that do
not depend on the CPU (`states._entry_product`, and accumulate's scalar
loop).  One np.multiply.accumulate fills a diagonal record of more than
two samples; every other run jumps from sample to sample, and stops at
the first jump that overflows.  One pass then checks the record for
finiteness, and from the first non-finite sample on the run is stepped
one step at a time, so a blow-up is reported at its first non-finite
step.

`_plan` settles a run before its first step: the step, the recorded
step counts and the path.  Every refusal of `evolve` comes from it, none
from the run: a basis mismatch, an invalid rho0, an AUTO step that
underflows to 0 s, and runs over MAX_STEPS steps or MAX_RECORDED_ENTRIES
recorded entries.

Health is judged by `states.defects`: rho0 is refused before the first
step unless `states.validate` finds it valid, and the record, rho0
included, is measured once after the run, in one batched pass.

A trajectory is written as CSV (`trajectory_to_csv`), as the trajectory/1
dict (`trajectory_to_json`) or as that dict's indented JSON text
(`trajectory_to_json_text`, equal to json.dumps(..., indent=2) + "\\n").
All three read one table of per-sample columns (`_sample_columns`), and
the trajectory/1 layout is written once (`_document`).  The CSV and the
text spell each float as its repr (json's NaN/Infinity in the text),
formatting each distinct magnitude of the table once (`_float_texts`): a
recorded rho is Hermitian, so each coherence's magnitudes come twice and
every diagonal's imaginary part is 0.0, and only 41-45% of a record's
values are distinct magnitudes at n = 3-16.

`json_text` writes the indented JSON text of a document with one list of
rows, as `csv_text` writes CSV: it cuts json.dumps of the document with
one row of nulls into the text before the rows, a row template and the
text after them, and fills the template once per row with ready-made
value texts, instead of going through json's pure-Python encoder.  The
trajectory/1 text and the report/1 text (`boundary.report_to_json_text`)
are both written by it.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .states import (CollapseRateMatrix, DensityMatrix, Hamiltonian,
                     _complex_to_pairs, _entry_product, defects, describe,
                     index_of, invariants, make_basis, pure_state, validate,
                     visibility)
from .units import (ENERGY, HBAR, PER_SECOND, TIME, DimensionError,
                    Quantity)

TRAJECTORY_SCHEMA_ID = "trajectory/1"

# Samples per fastest timescale for the AUTO step.  64 keeps the RK4
# relative error under 1e-8 across ten decay times (50 would land at
# 1.4e-8, just over that budget).  The budget holds for decay only: under
# a gap RK4's phase error grows by ~3.1e-9 per period, to 3.12e-8 after 10
# periods and 3.12e-7 after 100 (two_level_decay at rate = 1e-3 omega),
# and no run says so (ROADMAP.md item 11).
AUTO_STEP_DIVISOR = 64

# Most steps one run may plan: 20x the largest run in the tests, so that a
# mistyped rate, dt or t_end fails at once instead of running without end.
MAX_STEPS = 10 ** 6

# Most recorded matrix entries (samples x n^2) one run may keep: 35x the
# largest recording in the tests, about 16 MB of complex states.  A step
# operator (n^4 entries) over this budget is not built either.
MAX_RECORDED_ENTRIES = 10 ** 6


class Method(str, enum.Enum):
    RK4 = "rk4"
    EULER = "euler"


class IntegrationError(RuntimeError):
    """Integration produced a non-finite state; the message names the time
    of the first non-finite step, `non-finite state at t = 30000.0 s`."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Integration controls.  dt=None selects the AUTO step; a method may
    be given by its value ("euler"), and is stored as the Method."""

    t_end: Quantity
    dt: Quantity | None = None
    method: Method = Method.RK4
    record_stride: int = 1

    def __post_init__(self):
        if self.t_end.dim != TIME or not 0.0 < self.t_end.value < math.inf:
            raise ValueError("t_end must be a positive finite time")
        if self.dt is not None and (self.dt.dim != TIME
                                    or not 0.0 < self.dt.value < math.inf):
            raise ValueError("dt must be a positive finite time")
        try:
            object.__setattr__(self, "method", Method(self.method))
        except ValueError:
            raise ValueError(f"method must be one of "
                             f"{[m.value for m in Method]}, "
                             f"got {self.method!r}") from None
        try:
            if operator.index(self.record_stride) < 1:
                raise ValueError("record_stride must be >= 1")
        except TypeError:
            raise ValueError(f"record_stride must be an integer, got "
                             f"{self.record_stride!r}") from None


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples and their health, one array entry per sample;
    warnings has one line per tolerance that any sample exceeded (or NaN)."""

    basis: tuple[str, ...]
    times: np.ndarray            # seconds, strictly increasing
    elements: np.ndarray         # (samples, n, n) record, read-only
    states: list[DensityMatrix]
    trace_drift: np.ndarray
    hermiticity_defect: np.ndarray
    min_eigenvalue: np.ndarray
    warnings: tuple[str, ...]

    def final_state(self) -> DensityMatrix:
        return self.states[-1]

    def visibility(self, i: str | int, j: str | int) -> np.ndarray:
        """Interference contrast 2|rho_ij| of the (i, j) coherence per sample."""
        return visibility(self.basis, self.elements, i, j)


def _check_shared_basis(*objs) -> tuple[str, ...]:
    bases = [o.basis for o in objs]
    if any(basis != bases[0] for basis in bases):
        raise ValueError(f"basis mismatch: {bases}")
    return bases[0]


def _rhs(H: Hamiltonian, rates: CollapseRateMatrix):
    """y -> -(i/hbar)[H, y] - rates*y on raw matrices; pure damping if H = 0."""
    h_over_hbar = H.elements / HBAR.value
    damping = rates.rates
    if not np.any(h_over_hbar):
        return lambda y: -damping * y
    return lambda y: -1j * (h_over_hbar @ y - y @ h_over_hbar) - damping * y


def _step(f, dt: float, method: Method):
    """y -> R(dt f) y, one step of dy/dt = f(y) for a linear f: R(A) = I +
    A + A^2/2 + A^3/6 + A^4/24 for RK4 and I + A for Euler, the one place
    they are written, by Horner's rule: y + dt f(y + dt/2 f(y + dt/3 f(y +
    dt/4 f(y)))) and y + dt f(y).  A caller that has f(y) passes it: the
    operator's f(I) is L, so its build takes RK4's 3 products, Euler's
    none.  Each dt/k is one float, where numpy would divide a complex
    array by multiplying with the reciprocal, rounding twice."""
    scales = [] if method is Method.EULER else [dt / 4, dt / 3, dt / 2]

    def step(y, f_y=None):
        f_y = f(y) if f_y is None else f_y
        for scale in scales:
            f_y = f(y + scale * f_y)
        return y + dt * f_y
    return step


def _liouvillian(H: Hamiltonian, rates: CollapseRateMatrix) -> np.ndarray:
    """The n^2 x n^2 matrix L of d vec(rho)/dt = L vec(rho), row-major vec:
    L[(i,j),(k,l)] = -(i/hbar)(H_ik d_jl - d_ik H_lj) - rate_ij d_ik d_jl.

    Its at most 2n^3 nonzero entries are written through einsum's
    writeable diagonal views of the (i, j, k, l) array."""
    n = len(H.basis)
    h = -1j * (H.elements / HBAR.value)  # H/hbar rounded as `_rhs` rounds it
    L = np.zeros((n, n, n, n), dtype=np.complex128)
    np.einsum("ijkj->ikj", L)[...] = h[:, :, None]
    np.einsum("ijil->ijl", L)[...] -= h.T
    np.einsum("ijij->ij", L)[...] -= rates.rates
    return L.reshape(n * n, n * n)


def _power_table(base: np.ndarray, product):
    """k -> base**k, cached, from squares base**(2**b) that every k shares,
    least significant bit first, as numpy's linalg matrix power for k > 3."""
    squares = [base]

    @functools.cache
    def power(k):
        while len(squares) < k.bit_length():
            squares.append(product(squares[-1], squares[-1]))
        bits = [squares[b] for b in range(k.bit_length()) if k >> b & 1]
        return functools.reduce(product, bits)
    return power


def _products(gaps: list[int]) -> int:
    """The products `_power_table` takes to build base**k for each gap k."""
    return max(gaps).bit_length() - 1 + sum(k.bit_count() - 1
                                            for k in set(gaps))


def _operator_pays(n: int, method: Method, gaps: list[int]) -> bool:
    """Whether building the step operator and jumping `gaps` steps at a
    time costs less than stepping an n x n matrix sum(gaps) times.

    The costs are microseconds measured on one core of an x86-64 host with
    numpy 2.4 at n = 2..32, each within a factor of two: a step of one
    matrix (15 per RHS evaluation plus its matrix products), one n^2 x n^2
    product and one jump.  Building the operator takes its Horner products
    (3 for RK4, none for Euler) and, per stage, one pass over n^4 entries
    priced as a jump (the Liouvillian and Horner's scaled sums); its powers
    take `_products` more products.
    """
    if n ** 4 > MAX_RECORDED_ENTRIES:
        return False
    stages = 1 if method is Method.EULER else 4
    step = stages * (15.0 + 1e-3 * n ** 3)
    products = stages - 1 + _products(gaps)
    jumps = stages + len(gaps)
    return (products * (4.0 + 2e-4 * n ** 6) + jumps * (7.0 + 8e-4 * n ** 4)
            < sum(gaps) * step)


def _plan(rho0: DensityMatrix, H: Hamiltonian, rates: CollapseRateMatrix,
          cfg: EvolutionConfig) -> tuple[float, list[int], str]:
    """Everything `evolve` settles before its first step, as (dt, marks,
    path): the step, the step counts of the recorded samples (0 first,
    the last step last) and the path, "diagonal", "operator" or "direct".

    Every refusal of a run is raised here, in this order: a basis
    mismatch, an invalid rho0, an AUTO step that underflows to 0 s, more
    than MAX_STEPS steps, more than MAX_RECORDED_ENTRIES recorded entries.

    The AUTO step is the fastest timescale over AUTO_STEP_DIVISOR: 1/max
    rate, or hbar over H's scale.  A diagonal H rotates coherence ij at
    (E_i - E_j)/hbar, so its scale is max E - min E; any other H's scale
    is the larger of half that spread and max|H_ij| off the diagonal.
    Neither depends on the zero of energy, and the second is never more
    than max|H_ij|.
    """
    basis = _check_shared_basis(rho0, H, rates)
    found = validate(rho0)
    if found:
        raise ValueError("initial state is not a valid density matrix: "
                         + "; ".join(describe(found)))

    h = H.elements
    diagonal = np.count_nonzero(h) == np.count_nonzero(np.diagonal(h))
    if cfg.dt is not None:
        dt = cfg.dt.value
    else:
        max_rate = rates.max_rate
        energies = h.real.diagonal()
        h_max = float(energies.max() - energies.min())
        if not diagonal:
            coupling = np.abs(h)
            np.fill_diagonal(coupling, 0.0)
            h_max = max(h_max / 2.0, float(coupling.max()))
        scales = [1.0 / max_rate] if max_rate > 0.0 else []
        if h_max > 0.0:
            scales.append(HBAR.value / h_max)
        # Static problem: any step is exact, pick a round subdivision.
        dt, rule = cfg.t_end.value / 100.0, "t_end/100"
        if scales:
            dt = min(min(scales) / AUTO_STEP_DIVISOR, cfg.t_end.value)
            rule = f"min(1/max rate, hbar/scale of H)/{AUTO_STEP_DIVISOR}"
        if dt == 0.0:
            raise ValueError(f"the AUTO step {rule} underflows to 0 s; give "
                             f"an explicit dt")

    planned = cfg.t_end.value / dt - 1e-9
    if planned > MAX_STEPS:
        raise ValueError(f"{planned:.3g} steps of dt = {dt:.3g} s to reach "
                         f"t_end exceed the budget of {MAX_STEPS}")
    n_steps = max(1, math.ceil(planned))

    n = len(basis)
    samples = 1 + math.ceil(n_steps / cfg.record_stride)
    if samples * n * n > MAX_RECORDED_ENTRIES:
        raise ValueError(f"{samples} recorded samples of {n}x{n} exceed the "
                         f"budget of {MAX_RECORDED_ENTRIES} entries; raise "
                         f"record_stride")

    marks = [*range(0, n_steps, cfg.record_stride), n_steps]
    if diagonal:
        return dt, marks, "diagonal"
    gaps = [stop - start for start, stop in zip(marks, marks[1:])]
    return dt, marks, ("operator" if _operator_pays(n, cfg.method, gaps)
                       else "direct")


# A blow-up is reported once, by the finite check, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def evolve(rho0: DensityMatrix, H: Hamiltonian, rates: CollapseRateMatrix,
           cfg: EvolutionConfig) -> Trajectory:
    """Integrate from rho0 to at least t_end - dt, sampling every
    record_stride steps (first and last steps always included).

    rho0 must be a valid density matrix (`states.validate` empty), judged
    once before the first step.  Every recorded sample carries trace drift,
    Hermiticity defect, and smallest eigenvalue; positivity violations are
    flagged in warnings, never silently repaired.
    """
    dt, marks, path = _plan(rho0, H, rates, cfg)
    basis, samples = rho0.basis, len(marks)
    n = len(basis)
    gaps = [stop - start for start, stop in zip(marks, marks[1:])]
    elements = np.empty((samples, n, n), dtype=np.complex128)
    elements[0] = rho0.elements
    if path == "operator":
        L = _liouvillian(H, rates)
        op = _step(L.__matmul__, dt, cfg.method)(np.eye(n * n), L)
        power = _power_table(op, np.matmul)
        jump = lambda y, k: (power(k) @ y.ravel()).reshape(n, n)
    elif path == "diagonal":
        # A step multiplies each entry by its amplification (real if H = 0).
        step = _step(_rhs(H, rates), dt, cfg.method)
        power = _power_table(step(np.ones((n, n))), _entry_product)
        jump = lambda y, k: _entry_product(y, power(k))
    else:
        step = _step(_rhs(H, rates), dt, cfg.method)

        def jump(y, k):
            for _ in range(k):
                y = step(y)
            return y

    if path == "diagonal" and samples > 2:
        # Every gap but the last is the stride.  One cumulative product
        # fills the record: numpy's accumulate takes its scalar loop,
        # unfused like _entry_product, because each product reads the one
        # before it (a lone product would take the fused loop).
        elements[1:] = power(gaps[0])
        elements[-1] = power(gaps[-1])
        np.multiply.accumulate(elements, axis=0, out=elements)
    else:
        with np.errstate(over="raise", invalid="raise"):
            try:
                for i, k in enumerate(gaps, 1):
                    elements[i] = jump(elements[i - 1], k)
            except FloatingPointError:
                elements[i:] = np.nan  # stop jumping at the first overflow

    # One check of the record, also for an overflow numpy did not flag.
    finite = np.isfinite(elements).all(axis=(1, 2))
    if not finite.all():
        # Step on one step at a time from the last finite sample.
        for i in range(int(finite.argmin()), samples):
            y = elements[i - 1]
            for s in range(marks[i - 1] + 1, marks[i] + 1):
                y = jump(y, 1)
                if not np.isfinite(y).all():
                    raise IntegrationError(
                        f"non-finite state at t = {s * dt!r} s")
            elements[i] = y
    elements.setflags(write=False)

    drift, herm, lo = invariants(elements)
    states = [rho0] + [DensityMatrix(basis, e) for e in elements[1:]]
    return Trajectory(basis, np.array(marks) * dt, elements, states, drift,
                      herm, lo, tuple(describe(defects(drift, herm, lo))))


def two_level_decay(rate: Quantity, gap: Quantity | None = None) -> tuple[
        DensityMatrix, Hamiltonian, CollapseRateMatrix]:
    """The here/there problem: an equal superposition, H = diag(0, gap) and
    the pair decay rate (1/s, DimensionError otherwise), as (rho0, H, rates)."""
    if rate.dim != PER_SECOND:
        raise DimensionError(
            f"rate must be a rate (1/s), got {rate.dim.si_name()}")
    if gap is not None and gap.dim != ENERGY:
        raise DimensionError(
            f"gap must be an energy, got {gap.dim.si_name()}")
    basis = make_basis("here", "there")
    E = 0.0 if gap is None else gap.value
    return (pure_state([1.0, 1.0], basis),
            Hamiltonian(basis, [[0.0, 0.0], [0.0, complex(E)]]),
            CollapseRateMatrix(basis, [[0.0, rate.value], [rate.value, 0.0]]))


# An exponent t * rate that overflows decays its coherence to exactly 0.
@np.errstate(over="ignore")
def analytic_isolated(rho0: DensityMatrix, rates: CollapseRateMatrix,
                      t: Quantity) -> DensityMatrix:
    """Closed-form state for H = 0: rho_ij(0) * exp(-t * rate_ij).

    Diagonals are unchanged (their rate is identically zero).  Intended for
    the commuting case; the caller asserts [H, rho] = 0.
    """
    _check_shared_basis(rho0, rates)
    if t.dim != TIME or not 0.0 <= t.value < math.inf:
        raise ValueError(f"t must be a nonnegative finite time, got {t!r}")
    decay = np.exp(-t.value * rates.rates)
    return DensityMatrix(rho0.basis, rho0.elements * decay)


def convergence_order(method: Method = Method.RK4) -> float:
    """Measured order on the canned two-level decay problem.

    Integrates an equal superposition with rate 1/s to t = 1 s against the
    closed form, at dt = 0.05 s and twice halved; returns the mean
    log2(error ratio).  Expect about 4 for RK4 and 1 for Euler.
    """
    rho0, H, rates = two_level_decay(Quantity(1.0, PER_SECOND))
    t_end = Quantity(1.0, TIME)
    exact = analytic_isolated(rho0, rates, t_end).elements

    def error(step: float) -> float:
        cfg = EvolutionConfig(t_end=t_end, dt=Quantity(step, TIME),
                              method=method, record_stride=10 ** 9)
        final = evolve(rho0, H, rates, cfg).final_state().elements
        return float(np.max(np.abs(final - exact)))

    coarse, mid, fine = (error(step) for step in (0.05, 0.025, 0.0125))
    return (math.log2(coarse / mid) + math.log2(mid / fine)) / 2.0


def _sample_columns(traj: Trajectory, pair: tuple) -> tuple[
        tuple[int, int], list[np.ndarray]]:
    """The pair's indices and the per-sample columns of every trajectory
    writer: time, rho's [re, im] pairs row-major, visibility of the pair,
    min_eigenvalue and trace_drift."""
    i, j = (index_of(traj.basis, pair[0]), index_of(traj.basis, pair[1]))
    rho = _complex_to_pairs(traj.elements).reshape(len(traj.times), -1)
    return (i, j), [traj.times, rho, traj.visibility(i, j),
                    traj.min_eigenvalue, traj.trace_drift]


def _document(basis: tuple[str, ...], pair: tuple[int, int], rows) -> dict:
    """The trajectory/1 document over the basis and the pair's indices, one
    sample per row of the columns' values."""
    return {"schema": TRAJECTORY_SCHEMA_ID, "basis": list(basis),
            "pair": [basis[pair[0]], basis[pair[1]]],
            "samples": [{"time": {"value": t, "unit": "s"}, "rho": rho,
                         "visibility": vis, "min_eigenvalue": lo,
                         "trace_drift": drift}
                        for t, rho, vis, lo, drift in rows]}


def trajectory_to_csv(traj: Trajectory, pair: tuple = (0, 1)) -> str:
    """RFC-4180 CSV: time_s, re/im of each element row-major, visibility of
    the designated pair, min_eigenvalue."""
    n = len(traj.basis)
    header = (["time_s"] + [f"rho_{a}{b}_{part}" for a in range(n)
                            for b in range(n) for part in ("re", "im")]
              + ["visibility", "min_eigenvalue"])
    return csv_text(header, *_sample_columns(traj, pair)[1][:4])


# json.dumps's spellings of the floats whose repr is not JSON.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """x as json.dumps spells a float: its repr, or NaN, Infinity or
    -Infinity."""
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


def _float_texts(table: np.ndarray, spell=repr) -> list[list[str]]:
    """Every float of a 2-d table as spell (repr, or `_json_float`) spells
    it, formatting each distinct magnitude once; a set sign bit prefixes
    "-" except on NaN, as either spells -0.0, -inf and a negative NaN."""
    magnitudes, inverse = np.unique(np.abs(table), return_inverse=True)
    texts = np.array([spell(x) for x in magnitudes.tolist()], dtype=object)
    texts = texts[inverse.reshape(table.shape)]
    negative = np.signbit(table) & ~np.isnan(table)
    texts[negative] = "-" + texts[negative]
    return texts.tolist()


def csv_text(header: list[str], *columns: np.ndarray) -> str:
    """RFC-4180 CSV of the header and the columns side by side, every value
    written as the repr of its float (round-trips exactly), each distinct
    magnitude formatted once (`_float_texts`)."""
    lines = [",".join(header)] + [",".join(row) for row in
                                  _float_texts(np.column_stack(columns))]
    return "\r\n".join(lines) + "\r\n"


def json_text(blank: dict, key: str, rows: Iterable[tuple[str, ...]]) -> str:
    """`json.dumps(document, indent=2) + "\\n"` of the document that is
    blank with blank[key] holding one row per tuple of rows, byte for byte;
    each tuple holds the JSON texts of one row's values in document order.

    blank[key] is a list of one row whose values are all None; its keys
    and fixed strings hold no "%" and no "null".  json.dumps of blank is
    cut around that row: no string in its text holds a newline, so the row
    is what lies between the top-level `"key": [` line and the next line
    indented by two spaces.  Each null of the row becomes a %s of the
    template.
    """
    rows = list(rows)
    if not rows:
        return json.dumps({**blank, key: []}, indent=2) + "\n"
    opening = f'\n  {json.dumps(key)}: [\n'
    head, _, rest = json.dumps(blank, indent=2).partition(opening)
    row, _, tail = rest.partition("\n  ]")
    template = row.replace("null", "%s")
    body = ",\n".join([template % values for values in rows])
    return f"{head}{opening}{body}\n  ]{tail}\n"


def trajectory_to_json(traj: Trajectory, pair: tuple = (0, 1)) -> dict:
    pair, columns = _sample_columns(traj, pair)
    columns[1] = columns[1].reshape(*traj.elements.shape, 2)
    return _document(traj.basis, pair, zip(*[c.tolist() for c in columns]))


def trajectory_to_json_text(traj: Trajectory, pair: tuple = (0, 1)) -> str:
    """`json.dumps(trajectory_to_json(traj, pair), indent=2) + "\\n"`, byte
    for byte, without json's pure-Python indenting encoder: `json_text`
    fills one template per sample with the texts of one row of the columns
    (`_float_texts`, each float spelled as json spells it).
    """
    pair, columns = _sample_columns(traj, pair)
    n = len(traj.basis)
    blank = (None, [[[None, None]] * n] * n, None, None, None)
    table = np.column_stack(columns)
    spell = repr if np.isfinite(table).all() else _json_float
    return json_text(_document(traj.basis, pair, [blank]), "samples",
                     map(tuple, _float_texts(table, spell)))
