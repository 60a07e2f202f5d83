import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from collapsim import evolution
from collapsim.evolution import (AUTO_STEP_DIVISOR, EvolutionConfig,
                                 IntegrationError, Method, analytic_isolated,
                                 convergence_order, csv_text, evolve,
                                 Trajectory, trajectory_to_csv,
                                 trajectory_to_json, trajectory_to_json_text,
                                 two_level_decay)
from collapsim.states import (HERMITICITY_TOL, PSD_TOL, CollapseRateMatrix,
                              DensityMatrix, Hamiltonian, make_basis,
                              pure_state, visibility)
from collapsim import units
from collapsim.units import HBAR, DimensionError, quantity

BASIS = make_basis("here", "there")


def rate_matrix(gamma, basis=BASIS):
    n = len(basis)
    m = np.zeros((n, n))
    m[0, 1] = m[1, 0] = gamma
    return CollapseRateMatrix(basis, m)


def equal_superposition(basis=BASIS):
    return pure_state(np.ones(len(basis)), basis)


def use_path(monkeypatch, path):
    """Make evolve take the named path.  A diagonal H takes the diagonal
    path by itself: the cost rule of the other two is then never asked."""
    def pays(*args):
        assert path != "diagonal", "a diagonal H was stepped as a matrix"
        return path == "operator"

    if path != "diagonal":
        monkeypatch.setattr(evolution, "_is_diagonal", lambda h: False)
    monkeypatch.setattr(evolution, "_operator_pays", pays)


def diagonal_part(H):
    return Hamiltonian(H.basis, np.diag(np.diagonal(H.elements)))


def closed_form(rho0, H, rates, t):
    """rho_ij(0) exp(lambda_ij t), lambda_ij = -i(E_i - E_j)/hbar - rate_ij:
    the exact state at time t for a diagonal H."""
    e = np.diagonal(H.elements).real / HBAR.value
    lam = -1j * (e[:, None] - e[None, :]) - rates.rates
    return rho0.elements * np.exp(lam * t)


def random_system(n, seed, h_scale=1.0, rate_scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = HBAR.value * h_scale * (a + a.conj().T) / 2.0
    r = np.abs(rng.normal(size=(n, n))) * rate_scale
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 0.0)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = b @ b.conj().T
    rho = rho / np.trace(rho).real
    basis = make_basis(*(f"s{i}" for i in range(n)))
    return (DensityMatrix(basis, rho), Hamiltonian(basis, h),
            CollapseRateMatrix(basis, r))


def one_euler_step(rho0, H, rates, dt):
    """The right-hand side at rho0 as evolve steps it: (rho(dt) - rho0)/dt
    after one Euler step."""
    cfg = EvolutionConfig(t_end=quantity(dt, "s"), dt=quantity(dt, "s"),
                          method=Method.EULER)
    elements = evolve(rho0, H, rates, cfg).elements
    return (elements[1] - elements[0]) / dt


class TestDerivative:
    """The right-hand side drho/dt, read from evolve's first Euler step."""

    def test_static_limit_is_zero(self):
        rhs = one_euler_step(equal_superposition(), Hamiltonian.zero(BASIS),
                             rate_matrix(0.0), 0.1)
        assert not rhs.any()

    def test_pure_damping(self):
        rhs = one_euler_step(equal_superposition(), Hamiltonian.zero(BASIS),
                             rate_matrix(2.0), 2.0 ** -10)
        assert rhs[0, 1] == pytest.approx(-2.0 * 0.5, rel=1e-12, abs=0)
        assert rhs[1, 0] == pytest.approx(-2.0 * 0.5, rel=1e-12, abs=0)
        assert rhs[0, 0] == rhs[1, 1] == 0.0

    def test_diagonal_hamiltonian_rotates_phase(self):
        # [H, rho]_01 = (E0 - E1) rho_01, so drho_01/dt = +i (E/hbar) rho_01
        # for H = diag(0, E); the modulus stays constant.
        E = 2e-25
        H = Hamiltonian(BASIS, np.diag([0.0, E]).astype(complex))
        dt = 1e-3 * HBAR.value / E
        rhs = one_euler_step(equal_superposition(), H, rate_matrix(0.0), dt)
        assert rhs[0, 1] == pytest.approx(1j * (E / HBAR.value) * 0.5,
                                          rel=1e-12, abs=0)
        # The whole run follows the closed form rho_01(0) exp(+i E t/hbar).
        rho0 = equal_superposition()
        cfg = EvolutionConfig(t_end=quantity(200 * dt, "s"), record_stride=8)
        traj = evolve(rho0, H, rate_matrix(0.0), cfg)
        for t, state in zip(traj.times, traj.elements):
            exact = closed_form(rho0, H, rate_matrix(0.0), t)
            assert exact[0, 1] == pytest.approx(
                0.5 * np.exp(1j * E * t / HBAR.value), rel=1e-12, abs=0)
            assert np.max(np.abs(state - exact)) <= 1e-9

    def test_basis_mismatch_rejected(self):
        other = make_basis("a", "b")
        with pytest.raises(ValueError, match="^" + re.escape(
                "basis mismatch: [('here', 'there'), ('a', 'b'), "
                "('here', 'there')]") + "$"):
            evolve(equal_superposition(), Hamiltonian.zero(other),
                   rate_matrix(0.0), EvolutionConfig(t_end=quantity(1, "s")))


class TestEvolve:
    def test_static_problem_constant(self):
        cfg = EvolutionConfig(t_end=quantity(1, "s"))
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(0.0), cfg)
        for state in traj.states:
            assert np.allclose(state.elements, 0.5)

    def test_decay_visibility_reaches_one_over_e(self):
        cfg = EvolutionConfig(t_end=quantity(1, "s"))
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(1.0), cfg)
        vis = traj.visibility("here", "there")[-1]
        assert traj.times[-1] == pytest.approx(1.0, rel=1e-12, abs=0)
        assert vis == pytest.approx(math.exp(-1.0), rel=1e-8, abs=0)

    def test_rabi_period_returns_to_start(self):
        omega = 2 * math.pi
        H = Hamiltonian(BASIS, (HBAR.value * omega / 2)
                        * np.array([[0, 1], [1, 0]], dtype=complex))
        rho0 = pure_state([1, 0], BASIS)
        cfg = EvolutionConfig(t_end=quantity(1.0, "s"),
                              dt=quantity(1 / 512, "s"), record_stride=64)
        traj = evolve(rho0, H, rate_matrix(0.0), cfg)
        # closed form rho_00(t) = cos^2(omega t / 2)
        for t, state in zip(traj.times, traj.states):
            assert state.elements[0, 0].real == pytest.approx(
                math.cos(omega * t / 2) ** 2, abs=1e-9)

    def test_final_time_reaches_t_end(self):
        cfg = EvolutionConfig(t_end=quantity(0.77, "s"))
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(1.0), cfg)
        dt = traj.times[1] - traj.times[0]
        assert traj.times[-1] >= 0.77 - dt

    def test_times_strictly_increasing(self):
        cfg = EvolutionConfig(t_end=quantity(1, "s"), record_stride=7)
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(1.0), cfg)
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.states) == len(traj.times) == len(traj.min_eigenvalue)

    def test_invalid_initial_state_rejected(self):
        bad = DensityMatrix(BASIS, np.diag([0.9, 0.3]))
        cfg = EvolutionConfig(t_end=quantity(1, "s"))
        with pytest.raises(ValueError, match="^initial state is not a valid "
                           "density matrix: trace drift 2.000e-01$"):
            evolve(bad, Hamiltonian.zero(BASIS), rate_matrix(0.0), cfg)

    @pytest.mark.parametrize("path", ["direct", "operator", "diagonal"])
    @pytest.mark.parametrize("valid", [True, False])
    def test_rho0_is_judged_once_by_validate_before_any_step(
            self, monkeypatch, path, valid):
        calls = []
        real_validate, real_step = evolution.validate, evolution._step

        def judged(rho):
            calls.append("validate")
            return real_validate(rho)

        def spy(rhs, dt, method):
            step = real_step(rhs, dt, method)
            return lambda y: calls.append("step") or step(y)

        monkeypatch.setattr(evolution, "validate", judged)
        monkeypatch.setattr(evolution, "_step", spy)
        use_path(monkeypatch, path)
        rho0, H, rates = random_system(2, seed=2)
        if path == "diagonal":
            H = diagonal_part(H)
        cfg = EvolutionConfig(t_end=quantity(10 / 64, "s"),
                              dt=quantity(1 / 64, "s"), record_stride=3)
        if valid:
            evolve(rho0, H, rates, cfg)
            assert calls[0] == "validate" and "step" in calls
            assert calls.count("validate") == 1
        else:
            bad = DensityMatrix(rho0.basis, 2.0 * rho0.elements)
            with pytest.raises(ValueError, match="^initial state is not a "
                               "valid density matrix: trace drift "):
                evolve(bad, H, rates, cfg)
            assert calls == ["validate"]

    @pytest.mark.parametrize("field", ["t_end", "dt"])
    def test_zero_time_rejected(self, field):
        times = {"t_end": quantity(1, "s"), field: quantity(0, "s")}
        with pytest.raises(ValueError, match=f"^{field} must be a positive "
                           f"finite time$"):
            EvolutionConfig(**times)

    @pytest.mark.parametrize("field", ["t_end", "dt"])
    def test_non_finite_time_rejected(self, field):
        times = {"t_end": quantity(1, "s"), field: quantity(math.inf, "s")}
        with pytest.raises(ValueError, match=f"{field} must be a positive finite"):
            EvolutionConfig(**times)

    def test_method_by_name_runs_that_method(self):
        rho0, H, rates = two_level_decay(quantity(1, "1/s"))
        runs = []
        for method in ("euler", Method.EULER):
            cfg = EvolutionConfig(t_end=quantity(1, "s"),
                                  dt=quantity(0.25, "s"), method=method)
            assert cfg.method is Method.EULER
            runs.append(evolve(rho0, H, rates, cfg))
        assert trajectory_to_json_text(runs[0]) == \
            trajectory_to_json_text(runs[1])
        # (1 - dt)^4 at dt = 0.25 s, not RK4's 0.36789...
        assert runs[0].visibility(0, 1)[-1] == pytest.approx(0.75 ** 4,
                                                             rel=1e-12, abs=0)

    @pytest.mark.parametrize("method", ["bogus", "RK4", None])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError, match="^" + re.escape(
                "method must be one of ['rk4', 'euler'], "
                f"got {method!r}") + "$"):
            EvolutionConfig(t_end=quantity(1, "s"), method=method)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_reports_failing_time(self):
        # a wildly too-large explicit step makes Euler blow up
        cfg = EvolutionConfig(t_end=quantity(2000, "s"), dt=quantity(4, "s"),
                              method=Method.EULER)
        with pytest.raises(IntegrationError, match="^" + re.escape(
                "non-finite state at t = 428.0 s") + "$"):
            evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                   rate_matrix(200.0), cfg)

    def test_blow_up_raises_without_numpy_warnings(self):
        cfg = EvolutionConfig(t_end=quantity(1e5, "s"), dt=quantity(1e3, "s"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as err:
                evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                       rate_matrix(1.0), cfg)
        assert str(err.value) == "non-finite state at t = 30000.0 s"

    @pytest.mark.parametrize("path, t_end, stride", [
        pytest.param(path, t_end, stride, id=path + where)
        for path in ("direct", "operator", "diagonal")
        for where, (t_end, stride) in {
            "": (1e5, 7), "-first-interval": (1e5, 40),
            "-last-interval": (3.5e4, 29), "-one-interval": (1e5, 100),
            "-every-step": (1e5, 1)}.items()])
    def test_blow_up_between_samples_reports_its_first_step(
            self, monkeypatch, path, t_end, stride):
        # Step 30 is the first non-finite one, whichever interval holds it:
        # with stride 7 the samples at steps 28 and 35 straddle it.
        use_path(monkeypatch, path)
        cfg = EvolutionConfig(t_end=quantity(t_end, "s"),
                              dt=quantity(1e3, "s"), record_stride=stride)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as err:
                evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                       rate_matrix(1.0), cfg)
        assert str(err.value) == "non-finite state at t = 30000.0 s"

    def test_blow_up_stops_jumping_at_its_first_overflow(self, monkeypatch):
        # 10^5 planned steps; step 30 is the first non-finite one.
        steps, real = [], evolution._step

        def counted(*args):
            step = real(*args)
            return lambda y: steps.append(1) or step(y)

        monkeypatch.setattr(evolution, "_step", counted)
        use_path(monkeypatch, "direct")
        cfg = EvolutionConfig(t_end=quantity(1e8, "s"), dt=quantity(1e3, "s"),
                              record_stride=7)
        with pytest.raises(IntegrationError, match="t = 30000.0 s"):
            evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                   rate_matrix(1.0), cfg)
        assert len(steps) < 100

    def test_diagonal_blow_up_replays_only_its_first_steps(self, monkeypatch):
        # The diagonal path fills all 14287 samples in one cumulative
        # product.  Then g**7 and g**5 have taken 5 entry products, and the
        # replay from the sample at step 28 takes two more, to step 30.
        products, real = [], evolution._entry_product
        monkeypatch.setattr(evolution, "_entry_product",
                            lambda a, b: products.append(1) or real(a, b))
        use_path(monkeypatch, "diagonal")
        cfg = EvolutionConfig(t_end=quantity(1e8, "s"), dt=quantity(1e3, "s"),
                              record_stride=7)
        with pytest.raises(IntegrationError, match="t = 30000.0 s"):
            evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                   rate_matrix(1.0), cfg)
        assert len(products) == 7

    @pytest.mark.parametrize("path", ["direct", "operator", "diagonal"])
    def test_overflowing_power_keeps_the_single_steps(self, monkeypatch,
                                                      path):
        # The second power of this step operator overflows, but two single
        # steps of the coherence stay just under the largest double.
        use_path(monkeypatch, path)
        cfg = EvolutionConfig(t_end=quantity(1.6e39, "s"),
                              dt=quantity(8e38, "s"), record_stride=2)
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(1.0), cfg)
        assert traj.elements[-1, 0, 1] == 1.456355555555555e+308
        assert traj.final_state().elements[0, 1] == 1.456355555555555e+308


def reference_run(rho0, H, rates, dt, n_steps, method):
    """Every state of a plain matrix-form RK4 (or Euler) loop."""
    h, r = H.elements / HBAR.value, rates.rates

    def f(y):
        return -1j * (h @ y - y @ h) - r * y

    y = rho0.elements
    out = [y]
    for _ in range(n_steps):
        if method is Method.EULER:
            y = y + dt * f(y)
        else:
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return out


@pytest.mark.parametrize("method, n", [(Method.RK4, 2), (Method.RK4, 3),
                                       (Method.RK4, 5), (Method.EULER, 3)])
@pytest.mark.parametrize("steps", ["n2-1", "n2", "10n2"])
@pytest.mark.parametrize("stride", [1, 7, "all"])
@pytest.mark.parametrize("path", ["direct", "operator", "diagonal"])
def test_every_sample_matches_a_plain_stepping_loop(monkeypatch, method, n,
                                                    steps, stride, path):
    # The diagonal path runs the system's diagonal part: a gap per pair.
    use_path(monkeypatch, path)
    n_steps = {"n2-1": n * n - 1, "n2": n * n, "10n2": 10 * n * n}[steps]
    stride = n_steps if stride == "all" else stride
    rho0, H, rates = random_system(n, seed=10 * n + n_steps)
    if path == "diagonal":
        H = diagonal_part(H)
    dt = 1.0 / 64.0
    cfg = EvolutionConfig(t_end=quantity(n_steps * dt, "s"),
                          dt=quantity(dt, "s"), method=method,
                          record_stride=stride)
    traj = evolve(rho0, H, rates, cfg)
    marks = sorted({0, n_steps, *range(0, n_steps, stride)})
    assert traj.times.tolist() == [k * dt for k in marks]
    want = reference_run(rho0, H, rates, dt, n_steps, method)
    for k, state in zip(marks, traj.states):
        assert np.max(np.abs(state.elements - want[k])) <= 1e-12


@pytest.mark.parametrize("n, steps, stride, built", [
    (2, 1, 1, False), (2, 2, 1, True), (3, 1000, 125, True),
    (8, 25, 1, True), (16, 20, 1, False), (16, 256, 256, False),
    (16, 4096, 4096, True), (24, 576, 576, False), (32, 40, 40, False)])
def test_operator_built_only_where_it_pays(monkeypatch, n, steps, stride,
                                           built):
    # Building the operator steps a stack of n^2 basis matrices; the
    # measured crossovers put these runs on either side of the rule.
    stacks, real = [], evolution._step

    def spy(rhs, dt, method):
        step = real(rhs, dt, method)

        def counted(y):
            stacks.append(y.ndim == 3)
            return step(y)
        return counted

    monkeypatch.setattr(evolution, "_step", spy)
    rho0, H, rates = random_system(n, seed=n)
    dt = 1.0 / 64.0
    cfg = EvolutionConfig(t_end=quantity(steps * dt, "s"),
                          dt=quantity(dt, "s"), record_stride=stride)
    evolve(rho0, H, rates, cfg)
    assert any(stacks) is built


def test_operator_powers_share_their_squares(monkeypatch):
    # Gaps of 125 (eight of them) and 3.  The squares op**2 .. op**64 take
    # 6 products, 125 = 1 + 4 + 8 + 16 + 32 + 64 takes 5 more and 3 = 1 + 2
    # one: 12, where building each power on its own would take 11 + 2.
    products, real = [], evolution._step

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            arrays = [np.asarray(x) for x in inputs]
            if ufunc is np.matmul and all(a.ndim == 2 for a in arrays):
                products.append(1)
            return getattr(ufunc, method)(*arrays, **kwargs).view(Counted)

    def spy(rhs, dt, method):
        step = real(rhs, dt, method)
        return lambda y: step(y).view(Counted) if y.ndim == 3 else step(y)

    monkeypatch.setattr(evolution, "_step", spy)
    use_path(monkeypatch, "operator")
    rho0, H, rates = random_system(3, seed=3)
    dt = 1.0 / 64.0
    cfg = EvolutionConfig(t_end=quantity(1003 * dt, "s"),
                          dt=quantity(dt, "s"), record_stride=125)
    traj = evolve(rho0, H, rates, cfg)
    gaps = np.diff(np.rint(traj.times / dt).astype(int)).tolist()
    assert gaps == [125] * 8 + [3]
    assert len(products) == 12
    assert evolution._products(gaps) == 12


@pytest.mark.parametrize("n, steps, stride", [
    (2, 2, 1), (2, 5, 2), (3, 1000, 125), (8, 25, 1), (16, 4096, 4096),
    (32, 40, 40)])
def test_diagonal_hamiltonian_steps_no_stack(monkeypatch, n, steps, stride):
    # Where H is diagonal, one step of a matrix of ones is all the stepping
    # a run does, on either side of the operator's cost rule.
    stepped, real = [], evolution._step

    def spy(rhs, dt, method):
        step = real(rhs, dt, method)
        return lambda y: stepped.append(y.shape) or step(y)

    monkeypatch.setattr(evolution, "_step", spy)
    rho0, H, rates = random_system(n, seed=n)
    dt = 1.0 / 64.0
    cfg = EvolutionConfig(t_end=quantity(steps * dt, "s"),
                          dt=quantity(dt, "s"), record_stride=stride)
    evolve(rho0, diagonal_part(H), rates, cfg)
    assert stepped == [(n, n)]


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("n", [1, 2, 4])
def test_amplification_is_the_operator_diagonal(method, n):
    # g = step(ones) is each entry's amplification; stepping the n^2 basis
    # matrices, as the operator path builds its operator, gives the same
    # numbers on the operator's diagonal and exact zeros off it.
    rho0, H, rates = random_system(n, seed=n)
    step = evolution._step(evolution._rhs(diagonal_part(H), rates), 0.1,
                           method)
    g = step(np.ones((n, n)))
    op = step(np.eye(n * n, dtype=np.complex128).reshape(-1, n, n))
    op = op.reshape(n * n, n * n)
    assert np.diagonal(op).tobytes() == g.astype(np.complex128).tobytes()
    assert not np.any(op - np.diag(np.diagonal(op)))


def textbook_record(rho0, g, gaps):
    """Each sample's entries times g**gap, one Python complex at a time:
    each product rounded as (ac - bd) + i(ad + bc), each power built in
    the binary order of np.linalg.matrix_power."""
    def times(x, y):
        return complex(x.real * y.real - x.imag * y.imag,
                       x.real * y.imag + x.imag * y.real)

    def power(z, k):
        result = None
        while k:
            if k & 1:
                result = z if result is None else times(result, z)
            k >>= 1
            if k:
                z = times(z, z)
        return result

    y = [complex(x) for x in rho0.ravel()]
    amplification = [complex(x) for x in g.ravel()]
    record = [y]
    for k in gaps:
        y = [times(x, power(z, k)) for x, z in zip(y, amplification)]
        record.append(y)
    return np.array(record).reshape(-1, *rho0.shape)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(1, 4), seed=st.integers(0, 10 ** 6),
       gap=st.sampled_from([0.0, 0.3, 1.0]), method=st.sampled_from(Method),
       steps=st.integers(1, 40), stride=st.integers(1, 45))
def test_diagonal_record_is_the_textbook_products(n, seed, gap, method,
                                                  steps, stride):
    # gap 0 is H = 0, whose amplification is real; stride >= steps records
    # only the two ends.  Step sizes keep every entry stable.
    rng = np.random.default_rng(seed)
    _, H, rates = random_system(n, seed, h_scale=gap)
    H = diagonal_part(H)
    rho0 = pure_state(rng.normal(size=n) + 1j * rng.normal(size=n),
                      H.basis)
    dt = 0.25 / (1.0 + rates.max_rate + np.max(np.abs(H.elements)) / HBAR.value)
    cfg = EvolutionConfig(t_end=quantity(steps * dt, "s"),
                          dt=quantity(dt, "s"), method=method,
                          record_stride=stride)
    traj = evolve(rho0, H, rates, cfg)
    marks = traj.times / dt
    gaps = np.rint(np.diff(marks)).astype(int).tolist()
    g = evolution._step(evolution._rhs(H, rates), dt, method)(np.ones((n, n)))
    assert traj.elements.tobytes() == \
        textbook_record(rho0.elements, g, gaps).tobytes()
    assert np.array_equal(traj.elements,
                          np.swapaxes(traj.elements, 1, 2).conj())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_run_follows_the_closed_form(n):
    # Two decay times of the fastest pair and up to a third of a period of
    # the fastest phase, in 256 steps: RK4's error stays near 1e-9.
    rho0, H, rates = random_system(n, seed=40 + n, h_scale=0.5)
    H = diagonal_part(H)
    t_end = 2.0 / rates.max_rate
    cfg = EvolutionConfig(t_end=quantity(t_end, "s"),
                          dt=quantity(t_end / 256, "s"), record_stride=16)
    traj = evolve(rho0, H, rates, cfg)
    for t, state in zip(traj.times, traj.elements):
        exact = closed_form(rho0, H, rates, t)
        assert np.max(np.abs(state - exact)) <= 1e-8 * np.max(np.abs(exact))


def test_closed_form_is_analytic_isolated_for_h_zero():
    rho0, _, rates = random_system(3, seed=3)
    for t in (0.0, 0.3, 2.0):
        want = analytic_isolated(rho0, rates, quantity(t, "s")).elements
        assert np.allclose(closed_form(rho0, Hamiltonian.zero(rho0.basis),
                                       rates, t), want, rtol=1e-15, atol=0)


def test_large_operator_never_built():
    # At n = 64 the operator would hold 16.8 million entries, and each of
    # its products costs more than thousands of direct steps.
    assert not evolution._operator_pays(64, Method.RK4, [64] * 64)
    assert not evolution._operator_pays(64, Method.RK4, [10 ** 4] * 100)


# Runs whose two non-diagonal paths were timed (RK4, best of 5, one core of
# an x86-64 host; direct ms / operator ms): n = 2, 1000 steps, stride 100
# 52.7/0.36; 8, 10, 1 0.55/0.59; 12, 10, 1 1.20/3.96; 16, 100, 1 11.6/18.1;
# 16, 1000, 100 45.9/22.7; 24, 100, 100 6.7/206; 24, 1000, 100 65.1/219.
# The rule picks the faster path except at n = 8, where the operator costs 7%
# more.  At n = 32 the operator is never built.
@pytest.mark.parametrize("n, steps, stride, operator", [
    (2, 1000, 100, True), (8, 10, 1, True), (12, 10, 1, False),
    (16, 100, 1, False), (16, 1000, 100, True), (24, 100, 100, False),
    (24, 1000, 100, False), (32, 1000, 100, False)])
def test_cost_rule_choices_at_the_timed_runs(n, steps, stride, operator):
    marks = [*range(0, steps, stride), steps]
    gaps = [stop - start for start, stop in zip(marks, marks[1:])]
    assert evolution._operator_pays(n, Method.RK4, gaps) is operator


class TestStepBudget:
    def test_overflowing_plan_refused(self):
        cfg = EvolutionConfig(t_end=quantity(1e300, "s"),
                              dt=quantity(1e-300, "s"))
        with pytest.raises(ValueError, match="inf steps .* budget of 1000000"):
            evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                   rate_matrix(1.0), cfg)

    def test_run_at_the_budget_allowed(self, monkeypatch):
        monkeypatch.setattr(evolution, "MAX_STEPS", 10)
        cfg = EvolutionConfig(t_end=quantity(1, "s"), dt=quantity(0.1, "s"))
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(1.0), cfg)
        assert len(traj.times) == 11

    @pytest.mark.parametrize("dt", [quantity(0.1, "s"), None],
                             ids=["explicit", "auto"])
    def test_plan_over_the_budget_refused(self, monkeypatch, dt):
        # 1.1 s is 11 steps of 0.1 s, or 70 AUTO steps (64 per lifetime).
        monkeypatch.setattr(evolution, "MAX_STEPS", 10)
        cfg = EvolutionConfig(t_end=quantity(1.1, "s"), dt=dt)
        with pytest.raises(ValueError, match="budget of 10$"):
            evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                   rate_matrix(1.0), cfg)

    def test_recording_over_the_budget_refused_before_any_step(
            self, monkeypatch):
        # n = 16 at stride 1: 10001 samples of 256 entries.
        def no_step(*args):
            raise AssertionError("stepped a refused run")

        monkeypatch.setattr(evolution, "_step", no_step)
        rho0, H, rates = random_system(16, seed=16)
        cfg = EvolutionConfig(t_end=quantity(1, "s"), dt=quantity(1e-4, "s"))
        with pytest.raises(ValueError, match="10001 recorded samples of 16x16 "
                           "exceed the budget of 1000000 entries; raise "
                           "record_stride"):
            evolve(rho0, H, rates, cfg)

    def test_recording_at_the_budget_allowed(self, monkeypatch):
        # 11 samples of 2x2 are exactly a budget of 44 entries; 12 are
        # over it unless only every second step is recorded.
        monkeypatch.setattr(evolution, "MAX_RECORDED_ENTRIES", 44)

        def run(t_end, stride):
            cfg = EvolutionConfig(t_end=quantity(t_end, "s"),
                                  dt=quantity(0.1, "s"), record_stride=stride)
            return evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                          rate_matrix(1.0), cfg)

        assert len(run(1.0, 1).times) == 11
        assert len(run(1.1, 2).times) == 7
        with pytest.raises(ValueError, match="^12 recorded samples"):
            run(1.1, 1)


class TestRecordStride:
    @pytest.mark.parametrize("stride", [2.5, 30.0, "2"])
    def test_non_integer_stride_refused_when_built(self, stride):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"record_stride must be an integer, got {stride!r}") + "$"):
            EvolutionConfig(t_end=quantity(1, "s"), record_stride=stride)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_stride_below_one_refused(self, stride):
        with pytest.raises(ValueError, match="^record_stride must be >= 1$"):
            EvolutionConfig(t_end=quantity(1, "s"), record_stride=stride)

    def test_numpy_integer_stride_accepted(self):
        cfg = EvolutionConfig(t_end=quantity(1, "s"), dt=quantity(0.1, "s"),
                              record_stride=np.int64(5))
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(1.0), cfg)
        assert traj.times.tolist() == pytest.approx([0.0, 0.5, 1.0])


class TestTwoLevelDecay:
    def test_builds_the_here_there_problem(self):
        rho0, H, rates = two_level_decay(quantity(2, "1/s"),
                                         quantity(1, "eV"))
        assert rates.rates.tolist() == [[0.0, 2.0], [2.0, 0.0]]
        assert H.elements.tolist() == [[0, 0], [0, quantity(1, "eV").value]]
        assert np.allclose(rho0.elements, 0.5, rtol=0, atol=1e-15)
        _, H, _ = two_level_decay(quantity(2, "1/s"))
        assert not H.elements.any()

    @pytest.mark.parametrize("rate, gap, message", [
        (quantity(1, "m/s"), None, "rate must be a rate (1/s), got m s^-1"),
        (quantity(1, "1/s"), quantity(1, "m"), "gap must be an energy, got m"),
    ], ids=["rate", "gap"])
    def test_dimensions_checked(self, rate, gap, message):
        with pytest.raises(DimensionError,
                           match="^" + re.escape(message) + "$"):
            two_level_decay(rate, gap)

    def test_negative_rate_refused_by_the_rate_matrix(self):
        with pytest.raises(ValueError, match="^rates must be nonnegative$"):
            two_level_decay(quantity(-1, "1/s"))

    def test_passing_checks_format_no_dimension_names(self, monkeypatch):
        monkeypatch.setattr(units.Dimension, "si_name",
                            lambda self: pytest.fail("formatted"))
        two_level_decay(quantity(1, "1/s"), quantity(1, "eV"))


class TestAutoStep:
    def test_auto_uses_fastest_timescale(self):
        cfg = EvolutionConfig(t_end=quantity(10, "s"))
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(1.0), cfg)
        dt = traj.times[1] - traj.times[0]
        assert dt == pytest.approx(1.0 / AUTO_STEP_DIVISOR)

    def test_static_problem_takes_a_hundredth_of_t_end(self):
        # With no rate and H = 0 any step is exact.
        cfg = EvolutionConfig(t_end=quantity(3, "s"))
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(0.0), cfg)
        assert traj.times.tolist() == [k * (3 / 100) for k in range(101)]

    def test_auto_uses_hamiltonian_scale(self):
        H = Hamiltonian(BASIS, np.diag([0.0, 2.0 * HBAR.value]).astype(complex))
        cfg = EvolutionConfig(t_end=quantity(10, "s"))
        traj = evolve(equal_superposition(), H, rate_matrix(0.0), cfg)
        dt = traj.times[1] - traj.times[0]
        assert dt == pytest.approx(0.5 / AUTO_STEP_DIVISOR)


class TestAnalyticIsolated:
    def test_time_zero_identity(self):
        rho0 = equal_superposition()
        out = analytic_isolated(rho0, rate_matrix(2.0), quantity(0, "s"))
        assert np.array_equal(out.elements, rho0.elements)

    def test_single_decay_factor(self):
        out = analytic_isolated(equal_superposition(), rate_matrix(2.0),
                                quantity(0.5, "s"))
        assert out.elements[0, 1] == pytest.approx(0.5 * math.exp(-1.0),
                                                   rel=1e-12, abs=0)
        assert out.elements[0, 0] == pytest.approx(0.5)

    def test_zero_rates_static(self):
        rho0 = equal_superposition()
        out = analytic_isolated(rho0, rate_matrix(0.0), quantity(100, "s"))
        assert np.array_equal(out.elements, rho0.elements)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            analytic_isolated(equal_superposition(), rate_matrix(1.0),
                              quantity(-1, "s"))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        message = (f"t must be a nonnegative finite time, got "
                   f"{quantity(t, 's')!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                analytic_isolated(equal_superposition(), rate_matrix(1.0),
                                  quantity(t, "s"))


class TestOracleAgreement:
    def test_evolve_matches_analytic_at_ten_lifetimes(self):
        gamma = 1.0
        cfg = EvolutionConfig(t_end=quantity(10.0 / gamma, "s"), record_stride=64)
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(gamma), cfg)
        for t, state in zip(traj.times, traj.states):
            exact = analytic_isolated(equal_superposition(), rate_matrix(gamma),
                                      quantity(t, "s")).elements
            err = np.abs(state.elements - exact)
            scale = np.maximum(np.abs(exact), 1e-300)
            assert np.max(err / scale) <= 1e-8

    def test_oracle_agreement_heterogeneous_rates(self):
        basis = make_basis("a", "b", "c")
        rho0 = pure_state([1, 1, 1], basis)
        r = np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
        rates = CollapseRateMatrix(basis, r)
        cfg = EvolutionConfig(t_end=quantity(5.0, "s"),   # 10x the fastest tau
                              record_stride=64)
        traj = evolve(rho0, Hamiltonian.zero(basis), rates, cfg)
        exact = analytic_isolated(rho0, rates,
                                  quantity(float(traj.times[-1]), "s")).elements
        rel = np.abs(traj.final_state().elements - exact) / np.abs(exact)
        assert np.max(rel) <= 1e-8

    def test_phase_decay_factorization(self):
        # diagonal H and one finite rate: |rho_01(t)| = |rho_01(0)| e^(-G t)
        gap = 3.0 * HBAR.value
        H = Hamiltonian(BASIS, np.diag([0.0, gap]).astype(complex))
        gamma = 1.0
        cfg = EvolutionConfig(t_end=quantity(2.0, "s"), record_stride=32)
        traj = evolve(equal_superposition(), H, rate_matrix(gamma), cfg)
        for t, state in zip(traj.times, traj.states):
            assert abs(state.elements[0, 1]) == pytest.approx(
                0.5 * math.exp(-gamma * t), rel=1e-8, abs=0)

    def test_off_diagonal_moduli_non_increasing(self):
        gap = 2.0 * HBAR.value
        H = Hamiltonian(BASIS, np.diag([0.0, gap]).astype(complex))
        cfg = EvolutionConfig(t_end=quantity(2.0, "s"))
        traj = evolve(equal_superposition(), H, rate_matrix(0.7), cfg)
        moduli = [abs(s.elements[0, 1]) for s in traj.states]
        assert all(b <= a + 1e-10 for a, b in zip(moduli, moduli[1:]))


class TestUnitaryBaseline:
    """With every rate zero the run is the von Neumann dynamics."""

    def test_matches_zero_rates_bit_for_bit(self, monkeypatch):
        omega = 2 * math.pi
        H = Hamiltonian(BASIS, (HBAR.value * omega / 2)
                        * np.array([[0, 1], [1, 0]], dtype=complex))
        rho0 = pure_state([1, 0], BASIS)
        cfg = EvolutionConfig(t_end=quantity(1, "s"), dt=quantity(0.01, "s"))
        baseline = evolve(rho0, H, rate_matrix(0.0), cfg)
        # The von Neumann right-hand side alone, with no damping term.
        h = H.elements / HBAR.value
        monkeypatch.setattr(evolution, "_rhs", lambda H, rates:
                            lambda y: -1j * (h @ y - y @ h))
        von_neumann = evolve(rho0, H, rate_matrix(0.0), cfg)
        assert baseline.elements.tobytes() == von_neumann.elements.tobytes()

    def test_purity_constant(self):
        omega = 2 * math.pi
        H = Hamiltonian(BASIS, (HBAR.value * omega / 2)
                        * np.array([[0, 1j], [-1j, 0]], dtype=complex))
        rho0 = pure_state([1, 0], BASIS)
        cfg = EvolutionConfig(t_end=quantity(1, "s"), dt=quantity(1 / 512, "s"),
                              record_stride=64)
        traj = evolve(rho0, H, rate_matrix(0.0), cfg)
        for state in traj.states:
            purity = np.trace(state.elements @ state.elements).real
            assert purity == pytest.approx(1.0, abs=1e-10)

    def test_coherence_survives_without_rates(self):
        cfg = EvolutionConfig(t_end=quantity(5, "s"))
        traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(0.0), cfg)
        assert traj.visibility("here", "there")[-1] == \
            pytest.approx(1.0, rel=1e-12, abs=0)


class TestConvergence:
    def test_rk4_fourth_order(self):
        order = convergence_order(Method.RK4)
        assert order == pytest.approx(4.0, abs=0.3)

    def test_euler_first_order(self):
        order = convergence_order(Method.EULER)
        assert order == pytest.approx(1.0, abs=0.2)

    def test_halving_dt_cuts_rk4_error_16x(self):
        # restatement of order 4 via the raw error ratio of two runs
        rho0, H, rates = two_level_decay(quantity(1, "1/s"))
        t_end = quantity(1, "s")
        exact = analytic_isolated(rho0, rates, t_end).elements
        errors = [np.max(np.abs(evolve(rho0, H, rates, EvolutionConfig(
            t_end=t_end, dt=quantity(dt, "s"))).final_state().elements
            - exact)) for dt in (0.05, 0.025)]
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.25, abs=0)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10 ** 6))
def test_trace_and_hermiticity_preserved(n, seed):
    rho0, H, rates = random_system(n, seed)
    cfg = EvolutionConfig(t_end=quantity(1.0, "s"), dt=quantity(1e-3, "s"),
                          record_stride=100)
    traj = evolve(rho0, H, rates, cfg)
    assert np.all(traj.trace_drift <= 1e-10)
    # A record is judged by a state's Hermiticity tolerance, 1e-12.
    assert np.all(traj.hermiticity_defect <= HERMITICITY_TOL)


def test_two_level_positivity_never_below_floor():
    cfg = EvolutionConfig(t_end=quantity(3, "s"))
    traj = evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                  rate_matrix(1.0), cfg)
    assert np.all(traj.min_eigenvalue >= -PSD_TOL)
    assert traj.warnings == ()


def test_three_level_positivity_violation_is_flagged():
    # Heterogeneous rates on a fully coherent 3-state superposition push an
    # eigenvalue negative; the sample is flagged, not repaired or dropped.
    basis = make_basis("a", "b", "c")
    rho0 = pure_state([1, 1, 1], basis)
    rates = np.zeros((3, 3))
    rates[0, 1] = rates[1, 0] = 50.0
    cfg = EvolutionConfig(t_end=quantity(1, "s"))
    traj = evolve(rho0, Hamiltonian.zero(basis),
                  CollapseRateMatrix(basis, rates), cfg)
    assert traj.min_eigenvalue[-1] < -1e-6
    assert any("below floor" in w for w in traj.warnings)
    # the state itself still carries the un-projected eigenvalue
    eigs = np.linalg.eigvalsh(traj.final_state().elements)
    assert eigs.min() < -1e-6
    # one line for the whole trajectory, naming its worst sample
    assert traj.warnings == (
        f"min eigenvalue {traj.min_eigenvalue.min():.3e} below floor -1.0e-10",)


@pytest.mark.parametrize("n, stride", [(2, 1), (3, 7), (8, 3), (16, 5)])
def test_health_and_visibility_arrays_match_each_state(n, stride):
    rho0, H, rates = random_system(n, seed=n)
    cfg = EvolutionConfig(t_end=quantity(0.5, "s"), dt=quantity(0.01, "s"),
                          record_stride=stride)
    traj = evolve(rho0, H, rates, cfg)
    vis = traj.visibility(0, n - 1)
    for k, state in enumerate(traj.states):
        # the per-sample measurement the batched one replaced, bit for bit
        m = state.elements
        assert traj.trace_drift[k] == abs(np.trace(m) - 1.0)
        assert traj.hermiticity_defect[k] == np.max(np.abs(m - m.conj().T))
        assert traj.min_eigenvalue[k] == \
            np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0))
        assert vis[k] == visibility(traj.basis, state.elements, 0, n - 1)
    with pytest.raises(ValueError, match="distinct"):
        traj.visibility(1, 1)


def test_elements_are_the_one_read_only_record():
    rho0, H, rates = random_system(3, seed=3)
    cfg = EvolutionConfig(t_end=quantity(0.5, "s"), dt=quantity(0.01, "s"),
                          record_stride=7)
    traj = evolve(rho0, H, rates, cfg)
    assert traj.elements is traj.elements
    assert not traj.elements.flags.writeable
    stacked = np.stack([state.elements for state in traj.states])
    assert traj.elements.tobytes() == stacked.tobytes()
    assert all(state.elements.base is traj.elements
               for state in traj.states[1:])
    assert all(state.basis is traj.basis for state in traj.states)
    with pytest.raises(ValueError, match="read-only"):
        traj.elements[0, 0, 0] = 0.0


class TestExports:
    def make_trajectory(self):
        cfg = EvolutionConfig(t_end=quantity(1, "s"), dt=quantity(0.01, "s"),
                              record_stride=25)
        return evolve(equal_superposition(), Hamiltonian.zero(BASIS),
                      rate_matrix(1.0), cfg)

    def test_csv_columns(self):
        traj = self.make_trajectory()
        text = trajectory_to_csv(traj, ("here", "there"))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["time_s",
                           "rho_00_re", "rho_00_im", "rho_01_re", "rho_01_im",
                           "rho_10_re", "rho_10_im", "rho_11_re", "rho_11_im",
                           "visibility", "min_eigenvalue"]
        assert len(rows) == 1 + len(traj.times)
        last = rows[-1]
        assert float(last[0]) == pytest.approx(1.0)
        assert float(last[-2]) == pytest.approx(math.exp(-1.0),
                                                rel=1e-6, abs=0)

    def test_visibility_by_name_is_by_index(self):
        traj = self.make_trajectory()
        assert traj.basis == ("here", "there")
        by_name = traj.visibility(traj.basis[0], traj.basis[1])
        assert by_name.tobytes() == traj.visibility(0, 1).tobytes()

    def test_json_rho_is_the_float_pairs_of_each_sample(self):
        traj = self.make_trajectory()
        m = np.array(traj.elements)
        m[1, 0, 1] = complex(-0.0, -0.0)
        m[2, 1, 0] = complex(np.inf, np.nan)
        doc = trajectory_to_json(replace(traj, elements=m))
        pairs = [[[[float(z.real), float(z.imag)] for z in row]
                  for row in sample] for sample in m]
        assert json.dumps([s["rho"] for s in doc["samples"]]) \
            == json.dumps(pairs)

    def test_csv_is_crlf_terminated(self):
        text = trajectory_to_csv(self.make_trajectory())
        assert text.endswith("\r\n")
        assert "\r\n" in text

    def test_json_document(self):
        traj = self.make_trajectory()
        doc = trajectory_to_json(traj, ("here", "there"))
        assert doc["schema"] == "trajectory/1"
        assert doc["basis"] == ["here", "there"]
        assert doc["pair"] == ["here", "there"]
        assert doc["samples"][0]["time"] == {"value": 0.0, "unit": "s"}
        assert doc["samples"][-1]["visibility"] == pytest.approx(
            math.exp(-1.0), rel=1e-6, abs=0)


# Floats the writers spell in every way: signed zeros, subnormals, NaN of
# either sign, the infinities and whatever else hypothesis draws, and a few
# magnitudes shared by one example, each drawn with either sign, so that a
# table repeats a magnitude with both signs as rho_ji = conj(rho_ij) does.
SHARED_MAGNITUDES = st.shared(
    st.lists(st.floats(min_value=0.0, allow_subnormal=True), min_size=1,
             max_size=3), key="magnitudes")
TABLE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-5, 1e16, 1.5e300,
                     math.nan, -math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.tuples(SHARED_MAGNITUDES.flatmap(st.sampled_from),
              st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1]))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_csv_text_is_the_repr_of_every_float(data):
    rows, width = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
    columns = [np.array(data.draw(st.lists(TABLE_FLOATS, min_size=rows,
                                           max_size=rows)))
               for _ in range(width)]
    header = [f"c{k}" for k in range(width)]
    lines = [",".join(header)] + [",".join(map(repr, row)) for row
                                  in np.column_stack(columns).tolist()]
    assert csv_text(header, *columns) == "\r\n".join(lines) + "\r\n"


# Basis names that json escapes or that a template could mistake for its
# own text: non-ASCII, quotes, backslashes, % and the non-finite spellings.
JSON_NAMES = st.lists(
    st.sampled_from(["a", "\u00e9", "\u91cf", "\U0001f600", '"', "\\", "%",
                     "%r", "nan", "inf", "NaN", "\n", " "]),
    min_size=1, max_size=3).map("".join)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_json_text_is_json_dumps(data):
    # A pair needs two states, so the basis has 2-4; the run has 1-6 samples.
    n = data.draw(st.integers(2, 4))
    samples = data.draw(st.integers(1, 6))
    column = lambda size: np.array(
        data.draw(st.lists(TABLE_FLOATS, min_size=size, max_size=size)))
    basis = tuple(data.draw(st.lists(JSON_NAMES, min_size=n, max_size=n,
                                     unique=True)))
    i, j = data.draw(st.permutations(range(n)))[:2]
    pair = data.draw(st.sampled_from([(i, j), (basis[i], basis[j])]))
    elements = column(samples * n * n * 2).view(np.complex128).reshape(
        samples, n, n)
    traj = Trajectory(basis, column(samples), elements, [], column(samples),
                      column(samples), column(samples), ())
    assert trajectory_to_json_text(traj, pair) == \
        json.dumps(trajectory_to_json(traj, pair), indent=2) + "\n"
