import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapsim.evolution import EvolutionConfig, evolve
from collapsim.states import (HERMITICITY_TOL, PSD_TOL, TRACE_TOL,
                              CollapseRateMatrix, DensityMatrix, Hamiltonian,
                              _complex_to_pairs, defects, describe, index_of,
                              invariants, make_basis, pure_state, validate,
                              visibility)
from collapsim.units import quantity


@pytest.fixture
def two_basis():
    return make_basis("here", "there")


class TestBasis:
    def test_indices_contiguous(self):
        basis = make_basis("a", "b", "c")
        assert basis == ("a", "b", "c")
        assert [index_of(basis, name) for name in basis] == [0, 1, 2]

    @pytest.mark.parametrize("name", [1, None, b"a"])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"basis names must be strings, got {name!r}") + "$"):
            make_basis("a", name)

    def test_index_of_names_and_indices(self):
        basis = make_basis("a", "b", "c")
        assert [index_of(basis, k) for k in ("c", "a", 1, np.int64(2))] \
            == [2, 0, 1, 2]
        with pytest.raises(ValueError,
                           match=r"^label 'd' not in basis \['a', 'b', 'c'\]$"):
            index_of(basis, "d")
        for idx in (3, -1):
            with pytest.raises(ValueError, match=f"^index {idx} out of range "
                               f"for basis of size 3$"):
                index_of(basis, idx)
        for idx in (1.7, -0.5):
            with pytest.raises(ValueError, match="^" + re.escape(
                    "label must be a name or an integer index, "
                    f"got {idx}") + "$"):
                index_of(basis, idx)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_basis("a", "a")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_basis()


# A valid matrix of each type over a basis of two names.
MATRICES = {
    DensityMatrix: np.eye(2) / 2,
    Hamiltonian: np.array([[0.0, 1.0], [1.0, 2.0]]) * 1e-35,
    CollapseRateMatrix: np.array([[0.0, 3.0], [3.0, 0.0]]),
}


@pytest.mark.parametrize("kind", MATRICES, ids=lambda kind: kind.__name__)
class TestMatrixBasis:
    @pytest.mark.parametrize("basis, message", [
        (("a", 1), "basis names must be strings, got 1"),
        (("a", "a"), "duplicate basis names in ('a', 'a')"),
        ((), "basis needs at least one label"),
        ("ab", "basis must be a sequence of names, got 'ab'"),
        (5, "basis must be a sequence of names, got 5"),
        (None, "basis must be a sequence of names, got None"),
    ], ids=["non-string", "duplicate", "empty", "str", "int", "None"])
    def test_bad_basis_rejected(self, kind, basis, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            kind(basis, MATRICES[kind])

    def test_list_basis_is_stored_as_a_tuple(self, kind, two_basis):
        system = {k: k(two_basis, m) for k, m in MATRICES.items()}
        system[kind] = kind(list(two_basis), MATRICES[kind])
        assert type(system[kind].basis) is tuple
        assert system[kind].basis == two_basis
        evolve(*system.values(), EvolutionConfig(t_end=quantity(1, "s"),
                                                 dt=quantity(0.1, "s")))

    def test_kept_tuple_is_the_callers(self, kind, two_basis):
        assert kind(two_basis, MATRICES[kind]).basis is two_basis

    def test_non_square_matrix_rejected(self, kind):
        with pytest.raises(ValueError, match=r"^expected a square matrix, "
                           r"got shape \(2, 3\)$"):
            kind(("a", "b"), np.zeros((2, 3)))

    def test_basis_of_another_size_rejected(self, kind):
        with pytest.raises(ValueError, match=r"^basis size 3 does not match "
                           r"matrix shape \(2, 2\)$"):
            kind(("a", "b", "c"), MATRICES[kind])


class TestPureState:
    def test_equal_superposition(self, two_basis):
        rho = pure_state([1 / np.sqrt(2), 1 / np.sqrt(2)], two_basis)
        assert np.allclose(rho.elements, 0.5)

    def test_basis_state(self, two_basis):
        rho = pure_state([1, 0], two_basis)
        assert np.allclose(rho.elements, np.diag([1.0, 0.0]))

    def test_normalizes(self):
        rho = pure_state([2, 0, 0], make_basis("a", "b", "c"))
        assert np.allclose(rho.elements, np.diag([1.0, 0.0, 0.0]))

    def test_zero_vector_rejected(self, two_basis):
        with pytest.raises(ValueError, match="zero"):
            pure_state([0, 0], two_basis)

    @pytest.mark.parametrize("amplitude, text", [
        (math.nan, "(nan+0j)"), (math.inf, "(inf+0j)"),
        (-math.inf, "(-inf+0j)"), (complex(0, math.inf), "infj")],
        ids=["nan", "inf", "-inf", "imaginary-inf"])
    def test_non_finite_amplitude_rejected(self, two_basis, amplitude, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"amplitudes must be finite, got [{text}, (1+0j)]")
                    + "$"):
                pure_state([amplitude, 1], two_basis)

    def test_length_mismatch_rejected(self, two_basis):
        with pytest.raises(ValueError):
            pure_state([1, 0, 0], two_basis)

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2)], ids=["2x1", "1x2"])
    def test_two_dimensional_amplitudes_of_the_right_size_rejected(
            self, two_basis, shape):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"expected 2 amplitudes, got shape {shape}") + "$"):
            pure_state(np.ones(shape), two_basis)

    def test_strided_amplitudes_give_the_contiguous_state(self, two_basis):
        strided = np.array([0.6, 9.0, 0.8j, 9.0])[::2]
        assert not strided.flags.c_contiguous
        assert pure_state(strided, two_basis).elements.tobytes() == \
            pure_state(strided.copy(), two_basis).elements.tobytes()

    # Squared, the first amplitudes overflow and the last underflow.  Powers
    # of two normalize to the same bits as their ordinary counterparts.
    @pytest.mark.parametrize("amplitudes, same_as, same_bits", [
        ([1e200, 1e200], [1, 1], False), ([-1e300j, 1e300], [-1j, 1], False),
        ([2.0 ** 1000, 2.0 ** 1000 * 1j], [1, 1j], True),
        ([1e-320, 0], [1, 0], False), ([5e-324, -5e-324j], [1, -1j], True)],
        ids=["huge", "huge-complex", "huge-power-of-two", "subnormal",
             "smallest-subnormal"])
    def test_extreme_amplitudes_normalize(self, two_basis, amplitudes,
                                          same_as, same_bits):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = pure_state(amplitudes, two_basis)
        expected = pure_state(same_as, two_basis).elements
        assert np.allclose(rho.elements, expected, rtol=1e-15, atol=0.0)
        assert (rho.elements.tobytes() == expected.tobytes()) or not same_bits
        assert validate(rho) == {}

    @settings(max_examples=300)
    @given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=4).filter(any),
           st.integers(min_value=-900, max_value=900))
    def test_state_is_hermitian_and_scale_free_bit_for_bit(self, amplitudes,
                                                           k):
        basis = make_basis(*"abcd"[:len(amplitudes)])
        rho = pure_state(amplitudes, basis).elements
        assert np.array_equal(rho, rho.conj().T)
        assert not np.signbit(rho.diagonal().imag).any()
        # Scaling by 2^k changes no bit, where each part scales exactly.
        scaled = [complex(a.real * 2.0 ** k, a.imag * 2.0 ** k)
                  for a in amplitudes]
        if all(s.real / 2.0 ** k == a.real and s.imag / 2.0 ** k == a.imag
               for s, a in zip(scaled, amplitudes)):
            assert pure_state(scaled, basis).elements.tobytes() == \
                rho.tobytes()

    @pytest.mark.parametrize("amplitudes", [
        [0.98828125, 0], [1e-320, 0], [0, -3.0], [0, 0.7j], [-1e300j, 0]],
        ids=["0.98828125", "subnormal", "negative", "imaginary",
             "huge-imaginary"])
    def test_one_nonzero_amplitude_gives_an_exact_projector(self, two_basis,
                                                            amplitudes):
        # Each part is divided by the norm, so it becomes exactly +-1.
        k = next(i for i, a in enumerate(amplitudes) if a)
        want = np.zeros((2, 2))
        want[k, k] = 1.0
        assert np.array_equal(pure_state(amplitudes, two_basis).elements,
                              want)


class TestVisibility:
    def test_equal_superposition_is_one(self, two_basis):
        rho = pure_state([1, 1], two_basis)
        assert visibility(two_basis, rho.elements, "here", "there") \
            == pytest.approx(1.0)

    def test_fully_mixed_is_zero(self, two_basis):
        assert visibility(two_basis, np.diag([0.5, 0.5]), "here",
                          "there") == 0.0

    def test_twice_the_coherence(self, two_basis):
        m = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
        assert visibility(two_basis, m, "here", "there") == \
            pytest.approx(0.5)

    def test_same_label_rejected(self, two_basis):
        rho = pure_state([1, 1], two_basis)
        with pytest.raises(ValueError, match="^visibility needs two distinct "
                           "labels, got 'here' twice$"):
            visibility(two_basis, rho.elements, "here", "here")

    def test_unknown_label_rejected(self, two_basis):
        rho = pure_state([1, 1], two_basis)
        with pytest.raises(ValueError, match="elsewhere"):
            visibility(two_basis, rho.elements, "here", "elsewhere")

    def test_stack_and_single_matrix_agree_bit_for_bit(self, two_basis):
        # Entries over 600 decades, so hypot's scaling is exercised too.
        rng = np.random.default_rng(11)
        scale = 10.0 ** rng.uniform(-300, 300, size=(2000, 2, 2))
        stack = (rng.normal(size=(2000, 2, 2))
                 + 1j * rng.normal(size=(2000, 2, 2))) * scale
        batched = visibility(two_basis, stack, "here", "there")
        single = [float(visibility(two_basis, m, 0, 1)) for m in stack]
        assert batched.tolist() == single
        assert single == [2.0 * abs(complex(m[0, 1])) for m in stack]

    def test_overflow_is_infinite_without_a_warning(self, two_basis):
        m = np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert visibility(two_basis, m, "here", "there") == np.inf


class TestValidate:
    def test_valid_state_is_clean(self, two_basis):
        assert validate(pure_state([1, 1j], two_basis)) == {}

    def test_trace_defect_measured(self, two_basis):
        rho = DensityMatrix(two_basis, np.diag([0.6, 0.5]))
        assert validate(rho) == pytest.approx({"trace drift": 0.1})

    def test_hermiticity_defect_measured(self, two_basis):
        m = np.array([[0.5, 0.5 + 1e-6], [0.5, 0.5]], dtype=complex)
        found = validate(DensityMatrix(two_basis, m))
        assert found["hermiticity defect"] == pytest.approx(1e-6,
                                                            rel=1e-3, abs=0)

    def test_invariants_of_a_stack_match_each_matrix(self):
        rng = np.random.default_rng(7)
        stack = (rng.normal(size=(5, 3, 3))
                 + 1j * rng.normal(size=(5, 3, 3)))
        batched = invariants(stack)
        for k, m in enumerate(stack):
            assert tuple(a[k] for a in batched) == invariants(m)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_nan_entry_is_a_violation(self, two_basis, entry):
        m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        m[entry] = np.nan
        assert validate(DensityMatrix(two_basis, m)) != {}

    def test_infinite_entries_measured_without_numpy_warnings(
            self, two_basis):
        m = np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = validate(DensityMatrix(two_basis, m))
        assert list(found) == ["hermiticity defect", "min eigenvalue"]
        assert all(math.isnan(value) for value in found.values())

    def test_negative_eigenvalue_measured(self, two_basis):
        m = np.array([[0.0, 0.5], [0.5, 1.0]], dtype=complex)
        assert validate(DensityMatrix(two_basis, m))["min eigenvalue"] < -0.1


# Each invariant: the worst measurement still within its tolerance, and the
# next float beyond it.
EDGES = {"trace drift": (TRACE_TOL, np.nextafter(TRACE_TOL, 1.0)),
         "hermiticity defect": (HERMITICITY_TOL,
                                np.nextafter(HERMITICITY_TOL, 1.0)),
         "min eigenvalue": (-PSD_TOL, np.nextafter(-PSD_TOL, -1.0))}
# A state's measurement just inside and just outside each tolerance: the
# edges themselves, but 1% off the trace's, as 1 + drift rounds.
STATE_EDGES = {**EDGES, "trace drift": (0.99 * TRACE_TOL, 1.01 * TRACE_TOL)}
# The warning line of a sample just beyond each edge, and of a NaN one.
LINES = {"trace drift": ("trace drift 1.000e-10", "trace drift nan"),
         "hermiticity defect": ("hermiticity defect 1.000e-12",
                                "hermiticity defect nan"),
         "min eigenvalue": ("min eigenvalue -1.000e-10 below floor -1.0e-10",
                            "min eigenvalue nan below floor -1.0e-10")}


def measured(name, value, samples=None):
    """Clean measurements (drift 0, defect 0, smallest eigenvalue 0.5) of
    one sample, or of a stack whose sample 2 measures value for name."""
    clean = {"trace drift": 0.0, "hermiticity defect": 0.0,
             "min eigenvalue": 0.5}
    if samples is None:
        return [value if key == name else v for key, v in clean.items()]
    columns = {key: np.full(samples, v) for key, v in clean.items()}
    columns[name][2] = value
    return list(columns.values())


def state_measuring(name, value):
    """A 2x2 state that measures value for name (a trace drift up to the
    rounding of 1 + value, the others exactly), and no defect else: a
    diagonal off unit trace, an entry above the diagonal whose mirror is
    0, or a diagonal eigenvalue."""
    m = np.diag([0.5, 0.5]).astype(complex)
    if name == "trace drift":
        m = np.diag([1.0 + value, 0.0]).astype(complex)
    elif name == "hermiticity defect":
        m[0, 1] = value
    else:
        m = np.diag([1.0 - value, value]).astype(complex)
    return DensityMatrix(make_basis("here", "there"), m)


@pytest.mark.parametrize("name", EDGES)
class TestOneJudgement:
    """`defects` judges a state (`validate`) and every sample of a record
    (`evolve`'s warnings) by one tolerance per invariant."""

    def test_the_edge_is_within_and_the_next_float_beyond(self, name):
        edge, beyond = EDGES[name]
        assert defects(*measured(name, edge)) == {}
        assert defects(*measured(name, beyond)) == {name: beyond}

    def test_nan_exceeds(self, name):
        found = defects(*measured(name, math.nan))
        assert list(found) == [name] and math.isnan(found[name])

    def test_a_state_just_inside_is_valid_and_just_outside_is_not(self,
                                                                  name):
        inside, outside = (state_measuring(name, v)
                           for v in STATE_EDGES[name])
        assert validate(inside) == {}
        assert list(validate(outside)) == [name]
        cfg = EvolutionConfig(t_end=quantity(1, "s"), dt=quantity(0.5, "s"))
        zero = (Hamiltonian.zero(inside.basis),
                CollapseRateMatrix(inside.basis, np.zeros((2, 2))))
        evolve(inside, *zero, cfg)
        with pytest.raises(ValueError, match="^initial state is not a valid "
                           f"density matrix: {name} "):
            evolve(outside, *zero, cfg)

    @pytest.mark.parametrize("which", ["beyond", "nan"])
    def test_one_bad_sample_of_a_record_gives_its_warning_line(self, name,
                                                               which):
        value = EDGES[name][1] if which == "beyond" else math.nan
        line = LINES[name][which == "nan"]
        assert describe(defects(*measured(name, value, samples=5))) == [line]

    def test_one_bad_state_of_a_stack_is_its_worst(self, name):
        beyond = STATE_EDGES[name][1]
        stack = np.stack([state_measuring(name, v).elements
                          for v in (0.0, 0.0, beyond, 0.0)])
        found = defects(*invariants(stack))
        assert found == validate(state_measuring(name, beyond))
        assert list(found) == [name]


def random_density(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
def test_pure_random_states_validate_clean(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    if np.linalg.norm(amps) == 0.0:
        amps[0] = 1.0
    basis = make_basis(*(f"s{i}" for i in range(n)))
    assert validate(pure_state(amps, basis)) == {}


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
def test_visibility_cauchy_schwarz(n, seed):
    # 2|rho_ij| <= 2 sqrt(rho_ii rho_jj) <= 1 for any valid state
    rho = random_density(n, seed)
    basis = make_basis(*(f"s{i}" for i in range(n)))
    dm = DensityMatrix(basis, rho)
    for i in range(n):
        for j in range(i + 1, n):
            vis = visibility(dm.basis, dm.elements, i, j)
            bound = 2.0 * np.sqrt(rho[i, i].real * rho[j, j].real)
            assert vis <= bound * (1 + 1e-12)
            assert bound <= 1.0 + 1e-12


class TestHamiltonian:
    def test_hermitian_accepted(self, two_basis):
        Hamiltonian(two_basis, np.array([[0.0, 1j], [-1j, 1.0]]))

    def test_non_hermitian_rejected(self, two_basis):
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(two_basis, np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_zero(self, two_basis):
        assert np.all(Hamiltonian.zero(two_basis).elements == 0)

    def test_defect_that_overflows_rejected_without_a_warning(self,
                                                               two_basis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^Hamiltonian is not "
                               r"Hermitian \(defect inf\)$"):
                Hamiltonian(two_basis, [[0.0, 1e308], [-1e308, 0.0]])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_rejected(self, two_basis, bad):
        with pytest.raises(ValueError, match="finite"):
            Hamiltonian(two_basis, np.array([[0.0, 0.0], [0.0, bad]]))


class TestRateMatrix:
    def test_symmetric_nonnegative_zero_diagonal(self, two_basis):
        m = CollapseRateMatrix(two_basis, np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert m.max_rate == 2.0

    def test_asymmetric_rejected(self, two_basis):
        with pytest.raises(ValueError, match="symmetric"):
            CollapseRateMatrix(two_basis, np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_nonzero_diagonal_rejected(self, two_basis):
        with pytest.raises(ValueError, match="diagonal"):
            CollapseRateMatrix(two_basis, np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_negative_rejected(self, two_basis):
        with pytest.raises(ValueError, match="nonnegative"):
            CollapseRateMatrix(two_basis, np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, two_basis, bad):
        with pytest.raises(ValueError, match="finite"):
            CollapseRateMatrix(two_basis, np.array([[0.0, bad], [bad, 0.0]]))


class TestJson:
    def test_elements_are_the_float_pairs_of_each_entry(self):
        # Signed zeros, infinities and NaNs, in C and in Fortran order.
        rng = np.random.default_rng(5)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5e-300]
        for _ in range(50):
            m = np.empty((2, 2), dtype=complex)
            m.real = rng.choice(special, size=(2, 2))
            m.imag = rng.choice(special, size=(2, 2))
            for source in (m, m.T):
                pairs = [[[float(z.real), float(z.imag)] for z in row]
                         for row in source]
                assert json.dumps(_complex_to_pairs(source).tolist()) \
                    == json.dumps(pairs)


class TestImmutability:
    def test_elements_are_read_only(self, two_basis):
        rho = pure_state([1, 0], two_basis)
        with pytest.raises(ValueError):
            rho.elements[0, 0] = 0.0

    def test_writable_source_is_copied(self, two_basis):
        stack = np.eye(2, dtype=complex)[None].repeat(2, axis=0)
        row = stack[1]
        row.setflags(write=False)  # read-only view of a writable array
        for source in (stack[0], row):
            rho = DensityMatrix(two_basis, source)
            stack[:] = 0.0
            assert rho.elements.tolist() == np.eye(2).tolist()
            stack[:] = np.eye(2)

    def test_read_only_record_row_is_shared(self, two_basis):
        stack = np.eye(2, dtype=complex)[None].repeat(2, axis=0)
        stack.setflags(write=False)
        rho = DensityMatrix(two_basis, stack[1])
        assert rho.elements.base is stack
