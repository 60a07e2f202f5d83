"""The benchmark's three workloads.

Each workload makes a pool of problems from a seeded generator as plain
data (no collapsim objects, so the parent process can regenerate a pool for
its own reference checks), turns each into collapsim inputs during set-up,
runs one problem per timed call, and checks the outcome afterwards,
untimed, against `reference`.

`lib` is a namespace holding the collapsim modules the child imported:
cli, boundary, discrimination, evolution, states, units.  Library
calls go through those module attributes, which is where a traced run
installs its spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import reference as ref

# boundary's fixed mass grid for `collapsim boundary`: 1e-3 .. 1e12 GeV/c2.
BOUNDARY_GRID_GEV = (1e-3, 1e12, 31)


def _log_uniform(rng, lo_exp: float, hi_exp: float) -> float:
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


def _strata(rng, size: int, cycle_len: int) -> np.ndarray:
    """One value in (0, 1) per problem for drawing its size.  The problems
    of each kind (same position in the cycle) take the midpoints of
    equal-width strata in a seeded order, so every kind has the same sizes
    for every seed: the seed sets their order and the other parameters, and
    the pool's cost, its median and its tail hardly depend on it."""
    cycles = -(-size // cycle_len)
    slots = np.array([rng.permutation(cycles) for _ in range(cycle_len)]).T.ravel()[:size]
    return (slots + 0.5) / cycles


SCENARIOS = ("trapped", "free-flight", "oscillator")


def _binary_step(target: float) -> float:
    """A step close to target with an 11-bit mantissa, so that S * step is
    exact and t_end / step divides back to exactly S steps."""
    e = math.floor(math.log2(target))
    return math.floor(target / 2.0 ** e * 1024.0) * 2.0 ** (e - 10)


def run_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expect_exit(code: int, want: int, err: str) -> str | None:
    if code != want:
        return f"exit {code}, expected {want}: {err.strip()[:200]}"
    return None


def _schema_errors(validators: dict, name: str, doc) -> str | None:
    """First violation of the named collapsim schema, or None."""
    problem = next(validators[name].iter_errors(doc), None)
    return None if problem is None else f"{name} schema: {problem.message[:200]}"


# --- boundary-scan ------------------------------------------------------------

def _scenario_values(rng, scenario: str) -> tuple[dict, float]:
    """Flag values {name: [value, unit]} for one scenario, plus eta.

    The mass (or n) is drawn within 1.5 decades of the scenario's flip so
    both regimes appear.  Free flight keeps eta = 1: the CLI ignores --eta
    there, and no reference answer for another margin is defined yet.
    """
    if scenario == "trapped":
        v, d_um, eta = _log_uniform(rng, -2, 4), _log_uniform(rng, -1, 2), _log_uniform(rng, 0, 1)
        m_star = ref.trapped_critical("M", {"v": v, "D": d_um * 1e-6}, eta)
        m_gev = m_star / ref.GEV_C2 * _log_uniform(rng, -1.5, 1.5)
        return {"M": [m_gev, "GeV/c2"], "v": [v, "m/s"], "D": [d_um, "um"]}, eta
    if scenario == "free-flight":
        v, d_um, theta = _log_uniform(rng, 0, 5), _log_uniform(rng, -1, 2), _log_uniform(rng, -6, -2)
        length = d_um * 1e-6 / theta
        m_star = 8.0 * ref.HBAR / (v * theta * d_um * 1e-6)
        m_gev = m_star / ref.GEV_C2 * _log_uniform(rng, -1.5, 1.5)
        return {"M": [m_gev, "GeV/c2"], "v": [v, "m/s"], "D": [d_um, "um"],
                "L": [length, "m"], "d": [d_um / 10.0, "um"]}, 1.0
    mass, omega0 = _log_uniform(rng, -20, 2), _log_uniform(rng, 2, 8)
    n = max(1, int(ref.oscillator_n_star(mass, omega0) * _log_uniform(rng, -1, 1)))
    return {"M": [mass, "kg"], "omega0": [omega0, "rad/s"], "n": [n, "dimensionless"]}, 1.0


def _si_params(vals: dict) -> dict:
    return {k: (v if k == "n" else ref.si(v, u)) for k, (v, u) in vals.items()}


# Axis choices per scenario and the side of the flip with finite tau:
# +1 means finite above the critical value.
SWEEP_AXES = {
    "trapped": (("M", "GeV/c2", +1), ("v", "m/s", +1)),
    "free-flight": (("M", "GeV/c2", +1),),
    "oscillator": (("n", "dimensionless", +1), ("M", "kg", -1)),
}


def _critical(lib, scenario: str, axis: str, p: dict, eta: float) -> float:
    """Closed-form value of the swept axis at the flip, in SI."""
    u, disc = lib.units, lib.discrimination
    if scenario == "trapped" and axis == "M":
        return disc.trapped_critical_mass(u.quantity(p["v"], "m/s"),
                                          u.quantity(p["D"], "m"), eta).value
    if scenario == "trapped":
        return ref.trapped_critical(axis, p, eta)
    if scenario == "free-flight":
        return disc.free_flight_critical_mass(u.quantity(p["v"], "m/s"),
                                              p["D"] / p["L"],
                                              u.quantity(p["D"], "m")).value
    if axis == "n":
        return ref.oscillator_n_star(p["M"], p["omega0"])
    return ref.oscillator_mass_star(int(p["n"]), p["omega0"])


class BoundaryScan:
    """Verdicts, sweeps and bisection, half through `cli.main`, half
    through `boundary.sweep` / `boundary.scenario_verdict`."""

    name = "boundary-scan"
    # Round robin keeps the mix identical for every seed; CLI and library
    # alternate.  Sweep sizes vary, so latencies overlap across kinds and
    # the median sits inside a continuous range rather than between modes.
    cycle = ("cli-boundary:trapped", "lib-sweep", "cli-tau", "lib-verdict",
             "cli-sweep", "lib-sweep", "cli-boundary:free-flight", "lib-sweep",
             "cli-sweep", "lib-verdict")
    cycle_len = len(cycle)
    cycles_per_second = 40 / 60

    def generate(self, rng, size: int) -> list[dict]:
        specs = []
        strata = _strata(rng, size, self.cycle_len)
        for i in range(size):
            c, pos = divmod(i, self.cycle_len)
            kind = self.cycle[pos]
            spec = {"kind": kind, "json": c % 2 == 0}
            if kind.startswith("cli-boundary"):
                scenario = kind.split(":")[1]
                vals, eta = _scenario_values(rng, scenario)
                spec.update(kind="cli-boundary", scenario=scenario, vals=vals, eta=eta)
            else:
                scenario = SCENARIOS[(c + pos) % 3]
                vals, eta = _scenario_values(rng, scenario)
                spec.update(scenario=scenario, vals=vals, eta=eta)
            if spec["kind"].endswith("sweep"):
                axes = SWEEP_AXES[scenario]
                axis, unit, _ = axes[(c // 3) % len(axes)]
                spec.update(axis=axis, axis_unit=unit, count=21 + int(strata[i] * 81),
                            grid_decades=self._grid(rng, c))
            specs.append(spec)
        return specs

    @staticmethod
    def _grid(rng, c: int) -> tuple[float, float]:
        """Grid ends in decades relative to the flip; every tenth cycle
        misses it, above or below."""
        if c % 10 == 9:
            near, width = rng.uniform(0.3, 1.0), rng.uniform(1.0, 2.0)
            return (near, near + width) if c % 20 == 9 else (-near - width, -near)
        return -rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)

    def _sweep_grid(self, lib, spec) -> tuple[float, float]:
        """Grid ends in the axis unit, placed around the closed-form flip."""
        p = _si_params(spec["vals"])
        x_star = _critical(lib, spec["scenario"], spec["axis"], p, spec["eta"])
        scale = ref.SCALE[spec["axis_unit"]]
        lo_dec, hi_dec = spec["grid_decades"]
        return x_star / scale * 10.0 ** lo_dec, x_star / scale * 10.0 ** hi_dec

    def build(self, lib, spec):
        kind, scenario, vals = spec["kind"], spec["scenario"], spec["vals"]
        if kind == "cli-boundary":
            argv = ["boundary", scenario, "--v", ref.text(*vals["v"]),
                    "--D", ref.text(*vals["D"])]
            if scenario == "trapped":
                argv += ["--eta", repr(spec["eta"])]
            else:
                argv += ["--theta", repr(ref.si(*vals["D"]) / vals["L"][0])]
            return argv + (["--json"] if spec["json"] else [])
        if kind == "cli-tau":
            argv = ["tau", scenario] + self._flags(vals, ())
            if scenario == "trapped":
                argv += ["--eta", repr(spec["eta"])]
            return argv + (["--json"] if spec["json"] else [])
        if kind == "cli-sweep":
            lo, hi = self._sweep_grid(lib, spec)
            unit = spec["axis_unit"]
            argv = ["sweep", scenario, "--axis", spec["axis"],
                    "--min", ref.text(lo, unit), "--max", ref.text(hi, unit),
                    "--count", str(spec["count"])] + self._flags(vals, (spec["axis"],))
            if scenario == "trapped":
                argv += ["--eta", repr(spec["eta"])]
            return argv + (["--json"] if spec["json"] else [])
        Quantity, quantity = lib.units.Quantity, lib.units.quantity
        params = {k: Quantity(float(v)) if k == "n" else quantity(v, u)
                  for k, (v, u) in vals.items()}
        scen = lib.boundary.Scenario(scenario)
        if kind == "lib-verdict":
            return scen, params, spec["eta"]
        lo, hi = self._sweep_grid(lib, spec)
        unit = spec["axis_unit"]
        fixed = {k: q for k, q in params.items() if k != spec["axis"]}
        return lib.boundary.SweepSpec(scen, spec["axis"], quantity(lo, unit),
                                      quantity(hi, unit), count=spec["count"],
                                      fixed=fixed, eta=spec["eta"])

    @staticmethod
    def _flags(vals: dict, skip: tuple) -> list[str]:
        argv = []
        for k, (v, u) in vals.items():
            if k in skip:
                continue
            argv += [f"--{k}", str(v) if k == "n" else ref.text(v, u)]
        return argv

    def run(self, lib, built):
        if isinstance(built, list):
            return run_cli(lib, built)
        if isinstance(built, tuple):
            return lib.boundary.scenario_verdict(*built)
        return lib.boundary.sweep(built)

    def check(self, lib, spec, built, out, validators):
        kind, scenario = spec["kind"], spec["scenario"]
        p = _si_params(spec["vals"])
        if kind in ("cli-tau", "lib-verdict"):
            tau, regime = ref.verdict(scenario, p, spec["eta"])
            if kind == "lib-verdict":
                return self._check_verdict(out.tau.value, out.regime.value, tau, regime, ref.TAU_TOL), {}
            code, text, err = out
            problem = _expect_exit(code, 0, err)
            if problem:
                return problem, {}
            if spec["json"]:
                doc = json.loads(text)
                problem = _schema_errors(validators, "verdict", doc)
                if problem:
                    return problem, {}
                got = math.inf if doc["infinite"] else doc["tau"]["value"]
                return self._check_verdict(got, doc["regime"], tau, regime, ref.TAU_TOL), {}
            lines = text.splitlines()
            first = lines[0].split(":", 1)[1].strip()
            got = math.inf if first == "infinite" else float(first.split()[0])
            return self._check_verdict(got, lines[1].split(":", 1)[1].strip(),
                                       tau, regime, ref.TEXT5_TOL), {}
        if kind == "cli-boundary":
            return self._check_boundary(lib, spec, p, out, validators), {}
        return self._check_sweep(lib, spec, p, out, validators), {}

    @staticmethod
    def _check_verdict(got_tau, got_regime, tau, regime, tol) -> str | None:
        if math.isinf(tau) != math.isinf(got_tau):
            return f"tau {got_tau!r}, expected {tau!r}"
        if not math.isinf(tau) and not ref.close(got_tau, tau, tol):
            return f"tau {got_tau!r}, expected {tau!r}"
        if got_regime != regime:
            return f"regime {got_regime}, expected {regime}"
        return None

    def _check_boundary(self, lib, spec, p, out, validators) -> str | None:
        code, text, err = out
        m_star = _critical(lib, spec["scenario"], "M", p, spec["eta"])
        lo, hi, count = BOUNDARY_GRID_GEV
        in_grid = lo * ref.GEV_C2 < m_star < hi * ref.GEV_C2
        problem = _expect_exit(code, 0 if in_grid else 1, err)
        if problem or not in_grid:
            return problem
        if spec["json"]:
            doc = json.loads(text)
            problem = _schema_errors(validators, "report", doc)
            if problem:
                return problem
            if len(doc["rows"]) != count:
                return f"{len(doc['rows'])} rows, expected {count}"
            got = doc["critical_value"]["value"]
            tol = ref.BISECTION_TOL
        else:
            value, unit = text.split(":", 1)[1].split()
            got = ref.si(float(value), unit)
            tol = ref.BISECTION_TOL + ref.TEXT5_TOL
        if not ref.close(got, m_star, tol):
            return f"critical mass {got!r} kg, expected {m_star!r} kg"
        return None

    def _check_sweep(self, lib, spec, p, out, validators) -> str | None:
        scenario, axis, count = spec["scenario"], spec["axis"], spec["count"]
        x_star = _critical(lib, scenario, axis, p, spec["eta"])
        side = dict((a, s) for a, _, s in SWEEP_AXES[scenario])[axis]
        lo, hi = self._sweep_grid(lib, spec)
        scale = ref.SCALE[spec["axis_unit"]]
        in_grid = lo * scale < x_star < hi * scale
        if spec["kind"] == "lib-sweep":
            rows = [(r.value.value, r.tau.is_finite) for r in out.rows]
            got = None if out.critical_value is None else out.critical_value.value
        else:
            code, text, err = out
            problem = _expect_exit(code, 0, err)
            if problem:
                return problem
            if spec["json"]:
                doc = json.loads(text)
                problem = _schema_errors(validators, "report", doc)
                if problem:
                    return problem
                rows = [(r["value"], r["tau"]["value"] is not None) for r in doc["rows"]]
                cv = doc["critical_value"]
                got = None if cv is None else cv["value"]
            else:
                lines = text.splitlines()
                rows = None
                if len(lines) != count + 2:
                    return f"{len(lines) - 2} rows, expected {count}"
                last = lines[-1].split(":", 1)[1].strip()
                got = None if last == "none within grid" else float(last.split()[0])
        if rows is not None:
            if len(rows) != count:
                return f"{len(rows)} rows, expected {count}"
            for x, finite in rows:
                if finite != ((x - x_star) * side > 0):
                    return f"row {axis}={x!r}: finite={finite}, flip at {x_star!r}"
        if (got is None) == in_grid:
            return f"critical {got!r}, expected {x_star if in_grid else None!r}"
        if got is not None and not ref.close(got, x_star, ref.BISECTION_TOL):
            return f"critical {got!r}, expected {x_star!r}"
        return None


# --- evolve-long --------------------------------------------------------------

def _rates(rng, n: int, r_max: float) -> np.ndarray:
    R = rng.uniform(0.05, 1.0, (n, n)) * r_max
    R = np.triu(R, 1)
    R[0, 1] = r_max
    return R + R.T


class EvolveLong:
    """250-1500 RK4 steps per problem with sparse recording."""

    name = "evolve-long"
    # n, H = 0 and AUTO dt repeat with periods 3, 4 and 2.
    cycle_len = 12
    cycles_per_second = 9 / 60

    def generate(self, rng, size: int) -> list[dict]:
        specs = []
        strata = _strata(rng, size, self.cycle_len)
        for i in range(size):
            n = (2, 3, 4)[i % 3]
            r_max = _log_uniform(rng, -2, 4)
            R = _rates(rng, n, r_max)
            if i % 4 == 3:
                H = np.zeros((n, n), dtype=np.complex128)
            else:
                A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                A = (A + A.conj().T) / 2.0
                H = A / np.max(np.abs(A)) * (ref.HBAR * r_max * rng.uniform(0.25, 1.0))
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
            # Log-uniform over a wide range: latencies form one broad
            # distribution, so the median moves smoothly with machine speed.
            steps = int(250 * 6.0 ** strata[i])
            dt_auto = 1.0 / (64.0 * r_max)
            dt = None if i % 2 == 0 else dt_auto * rng.uniform(0.5, 1.0)
            t_end = steps * (dt_auto if dt is None else dt)
            specs.append({"n": n, "R": R, "H": H, "amps": amps, "t_end": t_end,
                          "dt": dt, "stride": steps // 8})
        return specs

    def build(self, lib, spec):
        st, q = lib.states, lib.units.quantity
        basis = st.make_basis(*[f"s{k}" for k in range(spec["n"])])
        cfg = lib.evolution.EvolutionConfig(
            t_end=q(spec["t_end"], "s"),
            dt=None if spec["dt"] is None else q(spec["dt"], "s"),
            record_stride=spec["stride"])
        return (st.pure_state(spec["amps"], basis), st.Hamiltonian(basis, spec["H"]),
                st.CollapseRateMatrix(basis, spec["R"]), cfg)

    def run(self, lib, built):
        return lib.evolution.evolve(*built)

    def check(self, lib, spec, built, traj, validators):
        t = float(traj.times[-1])
        final = traj.final_state().elements
        if not t >= spec["t_end"] * (1.0 - 1e-12):
            return f"final time {t!r} before t_end {spec['t_end']!r}", {}
        if not np.any(spec["H"]):
            rho0, _, rates, _ = built
            exact = lib.evolution.analytic_isolated(
                rho0, rates, lib.units.quantity(t, "s")).elements
            err = float(np.max(np.abs(final - exact)))
            if err > ref.STATE_TOL:
                return f"analytic_isolated differs by {err:.3e}", {}
        # The expm reference needs scipy, which the parent loads instead of
        # the measured process.
        return None, {"final": [t, final.real.ravel().tolist(),
                                final.imag.ravel().tolist()]}


def check_final(spec: dict, final: list) -> str | None:
    """Final state of an evolve-long problem against expm of the generator."""
    t, re, im = final
    n = spec["n"]
    got = (np.array(re) + 1j * np.array(im)).reshape(n, n)
    want = ref.propagate(ref.pure_density(spec["amps"]), spec["H"], spec["R"], t)
    err = float(np.max(np.abs(got - want)))
    return None if err <= ref.STATE_TOL else f"expm reference differs by {err:.3e}"


# --- trajectory-dense ---------------------------------------------------------

class TrajectoryDense:
    """Every step recorded and serialised: CLI `evolve` / `curve` at n = 2,
    library evolve + CSV + JSON at n = 3, 8, 16."""

    name = "trajectory-dense"
    # Seven equally weighted kinds: the median falls inside the fourth.
    cycle = ("cli-evolve", "lib:3", "cli-curve", "lib:8", "cli-evolve-json",
             "lib:16", "cli-curve-json")
    cycle_len = len(cycle)
    cycles_per_second = 15 / 60
    lib_steps = {3: (75, 125), 8: (25, 40), 16: (12, 20)}

    def generate(self, rng, size: int) -> list[dict]:
        specs = []
        strata = _strata(rng, size, self.cycle_len)
        for i in range(size):
            c, pos = divmod(i, self.cycle_len)
            kind = self.cycle[pos]
            json_out = kind.endswith("-json")
            if kind.startswith("cli-evolve"):
                specs.append(self._cli_evolve(rng, json_out, strata[i], auto=c % 2 == 0,
                                              gap=(c // 2) % 2 == 0))
            elif kind.startswith("cli-curve"):
                scenario = SCENARIOS[c % 3]
                vals, eta = _scenario_values(rng, scenario)
                tau, _ = ref.verdict(scenario, _si_params(vals), eta)
                # Five decay times (1 s when tau is infinite) in 128 steps;
                # dividing by a power of two keeps 128 * dt == t_end exactly.
                t_end = 1.0 if math.isinf(tau) else 5.0 * tau
                specs.append({"kind": "cli-curve", "json": json_out, "scenario": scenario,
                              "vals": vals, "eta": eta, "tau": tau, "t_end": t_end})
            else:
                n = int(kind.split(":")[1])
                r_max = _log_uniform(rng, -3, 3)
                lo, hi = self.lib_steps[n]
                steps = lo + int(strata[i] * (hi - lo))
                dt = _binary_step(rng.uniform(0.5, 1.0) / (64.0 * r_max))
                specs.append({"kind": "lib", "n": n, "R": _rates(rng, n, r_max),
                              "E": ref.HBAR * r_max * rng.uniform(0.0, 1.0, n),
                              "steps": steps, "dt": dt, "t_end": steps * dt})
        return specs

    @staticmethod
    def _cli_evolve(rng, json_out: bool, stratum: float, auto: bool, gap: bool) -> dict:
        rate = _log_uniform(rng, -3, 3)
        steps = 75 + int(stratum * 75)
        gap_ev = None
        if gap:
            gap_ev = ref.HBAR * rate * rng.uniform(0.25, 1.0) / ref.EV
        if auto:
            # AUTO step: min(1/rate, hbar/gap) / 64.  Half a step past a
            # whole number keeps the planned count clear of rounding.
            scales = [1.0 / rate] + ([] if gap_ev is None else [ref.HBAR / (gap_ev * ref.EV)])
            dt = min(scales) / 64.0
            t_end, dt_flag, steps = (steps + 0.5) * dt, None, steps + 1
        else:
            dt = _binary_step(rng.uniform(0.5, 1.0) / (64.0 * rate))
            t_end, dt_flag = steps * dt, dt
        return {"kind": "cli-evolve", "json": json_out, "rate": rate, "gap_ev": gap_ev,
                "t_end": t_end, "dt": dt_flag, "steps": steps, "t_last": steps * dt}

    def build(self, lib, spec):
        kind = spec["kind"]
        if kind == "cli-evolve":
            argv = ["evolve", "--rate", ref.text(spec["rate"], "1/s"),
                    "--t-end", ref.text(spec["t_end"], "s")]
            if spec["dt"] is not None:
                argv += ["--dt", ref.text(spec["dt"], "s")]
            if spec["gap_ev"] is not None:
                argv += ["--gap", ref.text(spec["gap_ev"], "eV")]
            return argv + (["--json"] if spec["json"] else [])
        if kind == "cli-curve":
            argv = ["curve", spec["scenario"]] + BoundaryScan._flags(spec["vals"], ()) + [
                "--t-end", ref.text(spec["t_end"], "s"), "--dt", ref.text(spec["t_end"] / 128, "s")]
            if spec["scenario"] == "trapped":
                argv += ["--eta", repr(spec["eta"])]
            return argv + (["--json"] if spec["json"] else [])
        st, q, n = lib.states, lib.units.quantity, spec["n"]
        basis = st.make_basis(*[f"s{k}" for k in range(n)])
        cfg = lib.evolution.EvolutionConfig(t_end=q(spec["t_end"], "s"),
                                            dt=q(spec["dt"], "s"), record_stride=1)
        return (st.pure_state(np.ones(n), basis),
                st.Hamiltonian(basis, np.diag(spec["E"]).astype(np.complex128)),
                st.CollapseRateMatrix(basis, spec["R"]), cfg)

    def run(self, lib, built):
        if isinstance(built, list):
            return run_cli(lib, built)
        traj = lib.evolution.evolve(*built)
        return (lib.evolution.trajectory_to_csv(traj, (0, 1)),
                lib.evolution.trajectory_to_json(traj, (0, 1)))

    def check(self, lib, spec, built, out, validators):
        kind = spec["kind"]
        if kind == "lib":
            n = spec["n"]
            csv_text, doc = out
            expect = (2.0 / n, spec["R"][0, 1], spec["steps"] + 1, spec["t_end"])
            problem = (self._check_csv(csv_text, ref.trajectory_csv_header(n), *expect)
                       or self._check_json(doc, validators, *expect))
            # Sized as the CLI would print it; computed only for counted problems.
            size = lambda: len(csv_text) + len(json.dumps(doc, indent=2)) + 1
            return problem, {"output_bytes": size}
        code, text, err = out
        problem = _expect_exit(code, 0, err)
        if problem:
            return problem, {}
        if kind == "cli-evolve":
            expect = (1.0, spec["rate"], spec["steps"] + 1, spec["t_last"])
            header = ref.trajectory_csv_header(2)
        else:
            rate = 0.0 if math.isinf(spec["tau"]) else 1.0 / spec["tau"]
            expect = (1.0, rate, 129, spec["t_end"])
            header = "time_s,visibility"
        if spec["json"]:
            problem = self._check_json(json.loads(text), validators, *expect)
        else:
            problem = self._check_csv(text, header, *expect)
        return problem, {"output_bytes": lambda: len(text)}

    @staticmethod
    def _check_last(t: float, vis: float, vis0: float, rate: float,
                    t_last: float) -> str | None:
        if not ref.close(t, t_last, 1e-9):
            return f"last time {t!r}, expected {t_last!r}"
        want = vis0 * math.exp(-rate * t)
        if not ref.visibility_ok(vis, want):
            return f"last visibility {vis!r}, expected {want!r}"
        return None

    def _check_csv(self, text, header, vis0, rate, rows, t_last) -> str | None:
        lines = text.split("\r\n")
        if lines[-1] != "" or lines[0] != header:
            return f"CSV header {lines[0][:80]!r}"
        if len(lines) - 2 != rows:
            return f"{len(lines) - 2} CSV rows, expected {rows}"
        last = lines[-2].split(",")
        vis = float(last[-1] if header == "time_s,visibility" else last[-2])
        return self._check_last(float(last[0]), vis, vis0, rate, t_last)

    def _check_json(self, doc, validators, vis0, rate, rows, t_last) -> str | None:
        problem = _schema_errors(validators, "trajectory", doc)
        if problem:
            return problem
        samples = doc["samples"]
        if len(samples) != rows:
            return f"{len(samples)} JSON samples, expected {rows}"
        last = samples[-1]
        return self._check_last(last["time"]["value"], last["visibility"],
                                vis0, rate, t_last)


WORKLOADS = {w.name: w for w in (BoundaryScan(), EvolveLong(), TrajectoryDense())}


def pool(workload, seed: int, seconds: int) -> list[dict]:
    """The run's problems, reproducible from the seed.

    Whole cycles of the workload's kinds, scaled with the run so that it
    makes about 10 to 20 passes; a 60 s run gives 400, 108 and 105 problems.
    The size fixes which tail percentile is reported.
    """
    cycles = max(1, math.ceil(seconds * workload.cycles_per_second))
    return workload.generate(np.random.default_rng(seed), workload.cycle_len * cycles)
