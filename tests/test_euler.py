"""Finite-volume Euler solver: fluxes, conservation, convergence, guards."""

import numpy as np
import pytest

from fermi_euler import eos
from fermi_euler import euler as euler_module
from fermi_euler.errors import (
    CflViolation,
    LeftOnePhaseRegion,
    NonFinite,
    OutOfDomain,
    VacuumCell,
)
from fermi_euler.euler import (
    ConservedField,
    EulerSolution,
    MacroGrid,
    flux_A,
    initial_q_field,
    lambda_field_of,
    run,
    step,
    wave_speed_bound,
)
from fermi_euler.harness.config import DEFAULT_PROFILE

MODEL = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=4096)

BUMP = dict(
    lam0=0.25,
    lam0_amp=0.08,
    lam1_amp=0.1,
    lam1_phase=-np.pi / 2,
    lam4=2.5,
    lam4_amp=0.25,
    lam4_phase=0.7,
)


@pytest.fixture(scope="module")
def closure():
    # table hull covering the BUMP profile with margins
    return eos.PressureClosure(
        MODEL,
        eos.tabulate(MODEL, (0.15, 0.21), (0.035, 0.065), resolution=(40, 40)),
    )


def bump_field(n_cells):
    return initial_q_field("lambda-cos", BUMP, MacroGrid(n_cells), MODEL)


def fd_spectral_radius(q, closure):
    """Oracle: spectral radius of the central-difference flux Jacobian,
    evaluated at |mom| like the solver's bound."""
    q = ConservedField(rho=q.rho, mom=np.abs(q.mom), e=q.e)
    base = q.stack()
    scale = np.maximum(np.abs(base), 1e-3)
    jac = np.empty((q.n_cells, 3, 3))
    for i in range(3):
        h = 1e-6 * scale[i]
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        qu, qd = ConservedField.from_stack(up), ConservedField.from_stack(dn)
        fu = flux_A(qu, closure(qu.rho, qu.e_internal)[0])
        fd = flux_A(qd, closure(qd.rho, qd.e_internal)[0])
        jac[:, :, i] = ((fu - fd) / (2.0 * h)).T
    return np.abs(np.linalg.eigvals(jac)).max(axis=1)


def closure_speeds(q, closure):
    """The wave-speed bound on q from the closure's values there."""
    return wave_speed_bound(q, *closure(q.rho, q.e_internal))


class CountingClosure:
    """Wraps a closure and counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.model = inner.model
        self.calls = 0

    def __call__(self, rho, eint):
        self.calls += 1
        return self.inner(rho, eint)


class DirectClosure:
    """The solver's closure interface, `.model` and a call, on the direct
    closure oracle."""

    model = MODEL

    def __init__(self, direct):
        self.direct = direct

    def __call__(self, rho, eint):
        return self.direct(MODEL, rho, eint)


class TestFlux:
    def test_rest_frame(self):
        q = ConservedField(rho=[1.0], mom=[0.0], e=[0.5])
        a = flux_A(q, np.array([0.3]))
        assert np.allclose(a[:, 0], [0.0, 0.3, 0.0])

    def test_pinned_values(self):
        q = ConservedField(rho=[2.0], mom=[1.0], e=[3.0])
        a = flux_A(q, np.array([0.4]))
        assert np.allclose(a[:, 0], [1.0, 0.9, 1.7])

    def test_dust_limit(self):
        q = ConservedField(rho=[2.0], mom=[1.0], e=[3.0])
        a = flux_A(q, np.array([0.0]))
        assert np.allclose(a[:, 0], [1.0, 0.5, 1.5])

    def test_vacuum_rejected(self):
        with pytest.raises(VacuumCell):
            flux_A(ConservedField(rho=[0.0], mom=[0.0], e=[0.1]), np.array([0.1]))


class TestStep:
    def test_constant_state_fixed_point(self, closure):
        grid = MacroGrid(64)
        q = ConservedField(
            rho=np.full(64, 0.177), mom=np.full(64, 0.01), e=np.full(64, 0.048)
        )
        sol = EulerSolution(grid=grid, q=q, time=0.0, closure=closure)
        out = step(sol, 1e-4)
        assert np.max(np.abs(out.q.stack() - q.stack())) == 0.0

    def test_conservation_per_step(self, closure):
        grid = MacroGrid(128)
        sol = EulerSolution(grid=grid, q=bump_field(128), time=0.0, closure=closure)
        tot0 = sol.q.totals()
        for _ in range(50):
            sol = step(sol, 2e-4)
            assert np.max(np.abs(sol.q.totals() - tot0)) < 1e-13 * 128

    def test_long_run_conservation(self, closure):
        grid = MacroGrid(128)
        sol = EulerSolution(grid=grid, q=bump_field(128), time=0.0, closure=closure)
        tot0 = sol.q.totals()
        for _ in range(1000):
            sol = step(sol, 1e-4)
        assert np.max(np.abs(sol.q.totals() - tot0)) < 1e-10

    def test_mirror_symmetry_preserved(self, closure):
        grid = MacroGrid(128)
        base = initial_q_field(
            "lambda-cos",
            dict(lam0=0.25, lam0_amp=0.08, lam4=2.5, lam4_amp=0.25, lam4_phase=np.pi),
            grid,
            MODEL,
        )
        q = ConservedField(
            rho=0.5 * (base.rho + base.rho[::-1]),
            mom=np.zeros(128),
            e=0.5 * (base.e + base.e[::-1]),
        )
        sol = EulerSolution(grid=grid, q=q, time=0.0, closure=closure)
        for _ in range(100):
            sol = step(sol, 2e-4)
        assert np.max(np.abs(sol.q.rho - sol.q.rho[::-1])) < 1e-12
        assert np.max(np.abs(sol.q.mom + sol.q.mom[::-1])) < 1e-12
        assert np.max(np.abs(sol.q.e - sol.q.e[::-1])) < 1e-12

    def test_cfl_violation(self, closure):
        grid = MacroGrid(64)
        sol = EulerSolution(
            grid=grid, q=bump_field(64), time=0.0, closure=closure, cfl=0.4
        )
        with pytest.raises(CflViolation):
            step(sol, 0.1)

    def test_one_phase_guard(self, closure):
        grid = MacroGrid(64)
        q = bump_field(64)
        cold = ConservedField(
            rho=q.rho, mom=q.mom, e=0.5 * eos.energy_floor(MODEL, q.rho) + 0.5 * q.mom**2 / q.rho
        )
        sol = EulerSolution(grid=grid, q=cold, time=0.0, closure=closure)
        with pytest.raises(LeftOnePhaseRegion):
            step(sol, 1e-5)

    def test_nan_cell_rejected_with_cell_named(self, closure):
        q = bump_field(64)
        for name in ("rho", "mom", "e"):
            fields = {"rho": q.rho.copy(), "mom": q.mom.copy(), "e": q.e.copy()}
            fields[name][5] = np.nan
            sol = EulerSolution(
                grid=MacroGrid(64), q=ConservedField(**fields), time=0.0, closure=closure
            )
            with pytest.raises(NonFinite, match="cell 5"):
                step(sol, 1e-5)
            with pytest.raises(NonFinite, match="cell 5"):
                run(sol.q, 0.01, sol.grid, closure)

    def test_wave_speed_even_in_momentum(self, closure):
        q = bump_field(64)
        flipped = ConservedField(rho=q.rho, mom=-q.mom, e=q.e)
        assert np.array_equal(closure_speeds(q, closure), closure_speeds(flipped, closure))


class TestWaveSpeed:
    def test_matches_fd_jacobian_oracle(self, closure):
        q = bump_field(256)
        oracle = fd_spectral_radius(q, closure)
        rel = np.abs(closure_speeds(q, closure) - oracle) / oracle
        assert rel.max() <= 1e-6

    def test_direct_partials_match_table(self, closure, direct_closure):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.16, 0.20, 12)
        eint = rng.uniform(0.038, 0.062, 12)
        _, t_rho, t_eint = closure(rho, eint)
        _, d_rho, d_eint = direct_closure(MODEL, rho, eint)
        # dP/drho is small beside dP/de_int ~ 2 (the 1D virial), so both
        # are compared on the scale of dP/de_int
        assert np.max(np.abs(t_rho - d_rho) / np.abs(d_eint)) < 1e-6
        assert np.max(np.abs(t_eint - d_eint) / np.abs(d_eint)) < 1e-6

    def test_nonpositive_sound_speed_names_cell(self, closure):
        q = bump_field(16)
        p, dp_drho, dp_deint = closure(q.rho, q.e_internal)
        softened = dp_deint.copy()
        softened[5] = -1.0
        with pytest.raises(LeftOnePhaseRegion, match="cell 5"):
            wave_speed_bound(q, p, dp_drho, softened)


class TestRun:
    def test_zero_time_returns_initial(self, closure):
        grid = MacroGrid(64)
        q = bump_field(64)
        traj = run(q, 0.0, grid, closure)
        assert np.array_equal(traj.snapshots[0].stack(), q.stack())
        assert traj.times == [0.0]

    def test_snapshot_times(self, closure):
        grid = MacroGrid(64)
        traj = run(bump_field(64), 0.02, grid, closure, snapshot_times=[0.01])
        assert traj.times == pytest.approx([0.0, 0.01, 0.02], abs=1e-14)
        assert traj.at(0.01).n_cells == 64

    def test_direct_closure_matches_table(self, closure, direct_closure):
        grid = MacroGrid(16)
        q0 = bump_field(16)
        tabled = run(q0, 0.1, grid, closure).snapshots[-1]
        direct = run(q0, 0.1, grid, DirectClosure(direct_closure)).snapshots[-1]
        scale = np.abs(tabled.stack()).max(axis=1)[:, None]
        assert np.max(np.abs(direct.stack() - tabled.stack()) / scale) < 1e-7

    def test_two_evaluations_per_step(self, closure, monkeypatch):
        calls = {"step": 0, "wave_speed_bound": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(euler_module, "step", counted(step))
        monkeypatch.setattr(euler_module, "wave_speed_bound", counted(wave_speed_bound))
        counting = CountingClosure(closure)
        run(bump_field(64), 0.02, MacroGrid(64), counting, snapshot_times=[0.01])
        steps = calls["step"]
        assert steps > 2
        # two per step, but the partial step branched off to T = 0.01 and
        # the full step that continues from the same state share its
        # first-stage evaluation
        assert calls["wave_speed_bound"] == 2 * steps - 1
        assert counting.calls == 2 * steps - 1

    def test_one_phase_guard_once_per_state(self, closure, monkeypatch):
        # 256 cells of the default profile to T = 0.05 take 44 steps: the
        # initial state, and each step's Heun stage and result, are checked
        # once each (checking a step's result again as the next state took
        # 132 checks)
        checked = []
        guard = euler_module._check_one_phase

        def counted(q, model):
            checked.append(q)
            return guard(q, model)

        monkeypatch.setattr(euler_module, "_check_one_phase", counted)
        steps = []
        monkeypatch.setattr(euler_module, "step", lambda *args: steps.append(1) or step(*args))
        grid = MacroGrid(256)
        q0 = initial_q_field("lambda-cos", DEFAULT_PROFILE["params"], grid, MODEL)
        traj = run(q0, 0.05, grid, closure)
        assert len(steps) == 44
        assert len(checked) == 1 + 2 * len(steps) <= 90
        # every recorded state, the run's last one too, was checked
        assert all(any(snap is q for q in checked) for snap in traj.snapshots)

    def test_report_times_leave_the_trajectory(self, closure):
        # the partial steps to report times are branches: the state at T is
        # bitwise the same whichever other times were asked for
        grid = MacroGrid(64)
        q0 = bump_field(64)
        plain = run(q0, 0.02, grid, closure)
        stops = run(q0, 0.02, grid, closure, snapshot_times=[0.0031, 0.01, 0.0152])
        assert stops.times == [0.0, 0.0031, 0.01, 0.0152, 0.02]
        assert np.array_equal(stops.snapshots[-1].stack(), plain.snapshots[-1].stack())
        short = run(q0, 0.01, grid, closure)
        assert np.array_equal(stops.at(0.01).stack(), short.snapshots[-1].stack())

    def test_self_convergence_order(self, closure):
        sols = {}
        for n in (128, 256, 512):
            sols[n] = run(bump_field(n), 0.05, MacroGrid(n), closure).snapshots[-1]

        def restrict(q):
            return np.stack(
                [0.5 * (f[0::2] + f[1::2]) for f in (q.rho, q.mom, q.e)]
            )

        e1 = np.abs(sols[128].stack() - restrict(sols[256])).mean()
        e2 = np.abs(sols[256].stack() - restrict(sols[512])).mean()
        order = np.log2(e1 / e2)
        assert order >= 0.8

    def test_boosted_run_agreement(self, closure):
        # value-boost the data, evolve, shift back: agrees with the unboosted
        # run within the refinement-vanishing scheme difference
        s, t_final = 0.625, 0.05
        errors = {}
        for n in (256, 512):
            grid = MacroGrid(n)
            qi = bump_field(n)
            plain = run(qi, t_final, grid, closure).snapshots[-1]
            boosted = run(qi.boosted(s), t_final, grid, closure).snapshots[-1]
            shift = int(round(s * t_final * n))
            rec = ConservedField(
                rho=np.roll(boosted.rho, -shift),
                mom=np.roll(boosted.mom, -shift),
                e=np.roll(boosted.e, -shift),
            ).boosted(-s)
            errors[n] = np.abs(rec.stack() - plain.stack()).mean()
        assert errors[512] < 5e-2
        assert errors[512] < 0.75 * errors[256]  # shrinking under refinement

    def test_weak_form_refinement(self, closure):
        # discrete weak form of the conservation law tightens under refinement
        residuals = []
        for n in (64, 128, 256):
            grid = MacroGrid(n)
            jfun = np.cos(2 * np.pi * grid.centers)
            djfun = -2 * np.pi * np.sin(2 * np.pi * grid.centers)
            traj = run(
                bump_field(n), 0.05, grid, closure,
                snapshot_times=list(np.linspace(0.0, 0.05, 21)),
            )
            acc = np.zeros(3)
            prev = t_prev = None
            for tt, snap in zip(traj.times, traj.snapshots):
                p = closure(snap.rho, snap.e_internal)[0]
                val = (flux_A(snap, p) * djfun).sum(axis=1) * grid.dx
                if prev is not None:
                    acc += 0.5 * (val + prev) * (tt - t_prev)
                prev, t_prev = val, tt
            lhs = (
                (traj.snapshots[-1].stack() - traj.snapshots[0].stack()) * jfun
            ).sum(axis=1) * grid.dx
            residuals.append(np.abs(lhs - acc).max())
        assert residuals[2] < residuals[1] < residuals[0]

    def test_entropy_compatibility_along_smooth_solution(self, closure):
        # cellwise Legendre entropy stays constant within discretization error
        from fermi_euler import ldp

        results = {}
        for n in (64, 128):
            traj = run(bump_field(n), 0.04, MacroGrid(n), closure)
            totals = []
            for q in (traj.snapshots[0], traj.snapshots[-1]):
                s_sum = 0.0
                for j in range(n):
                    qv = eos.ConservedVector(rho=q.rho[j], mom=[q.mom[j]], e=q.e[j])
                    s_sum += ldp.entropy_s(MODEL, qv)[0] / n
                totals.append(s_sum)
            results[n] = abs(totals[1] - totals[0]) / abs(totals[0])
        assert results[128] < 0.02
        assert results[128] < results[64]


class TestLambdaField:
    def test_constant_field(self):
        grid = MacroGrid(16)
        lam = eos.MultiplierVector.from_physical(2.0, 0.2, 0.1)
        q = eos.dual_q(MODEL, lam)
        field = ConservedField(
            rho=np.full(16, q.rho), mom=np.full(16, q.mom[0]), e=np.full(16, q.e)
        )
        lam0, lam1, lam4 = lambda_field_of(field, MODEL)
        assert np.max(np.abs(lam0 - lam.lam0)) < 1e-8
        assert np.max(np.abs(lam1 - lam.lam_mom[0])) < 1e-8
        assert np.max(np.abs(lam4 - lam.lam4)) < 1e-8

    def test_bump_roundtrip(self):
        grid = MacroGrid(64)
        q = bump_field(64)
        lam0, lam1, lam4 = lambda_field_of(q, MODEL)
        worst = 0.0
        for j in range(64):
            qq = eos.dual_q(
                MODEL, eos.MultiplierVector(lam0=lam0[j], lam_mom=[lam1[j]], lam4=lam4[j])
            )
            worst = max(
                worst,
                np.max(np.abs(qq.as_array() - [q.rho[j], q.mom[j], q.e[j]])),
            )
        assert worst < 1e-8

    def test_floor_violation_names_cell(self):
        q = bump_field(32)
        bad_e = q.e.copy()
        bad_e[7] = 0.9 * eos.energy_floor(MODEL, q.rho[7]) + 0.5 * q.mom[7] ** 2 / q.rho[7]
        bad = ConservedField(rho=q.rho, mom=q.mom, e=bad_e)
        with pytest.raises(OutOfDomain, match="cell 7"):
            lambda_field_of(bad, MODEL)


class TestProfile:
    PARAMS = {
        "lambda-cos": dict(BUMP, lam0_phase=0.3),
        "q-cos": {"rho": 0.177, "rho_amp": 0.01, "mom_amp": 0.01, "mom_phase": 0.5,
                  "e": 0.048, "e_amp": 0.0025},
    }

    @pytest.mark.parametrize("kind", ["lambda-cos", "q-cos"])
    @pytest.mark.parametrize("X", [np.linspace(0.0, 1.0, 7).reshape(7, 1) * [1.0, 0.5],
                                   0.3], ids=["array", "scalar"])
    def test_fields_match_the_closed_form(self, kind, X):
        params = self.PARAMS[kind]
        names = {"lambda-cos": ("lam0", "lam1", "lam4"), "q-cos": ("rho", "mom", "e")}[kind]
        out = euler_module.profile_fields(kind, params, X)
        assert out.shape == np.shape(X) + (3,)
        for j, name in enumerate(names):
            expect = params.get(name, 0.0) + params.get(name + "_amp", 0.0) * np.cos(
                2.0 * np.pi * np.asarray(X) + params.get(name + "_phase", 0.0))
            assert np.array_equal(out[..., j], expect)

    @pytest.mark.parametrize("kind, params, message", [
        ("lambda-cos", {"lam0": 0.25, "lam4amp": 0.25}, "profile key 'lam4amp'"),
        ("lambda-cos", {"rho": 0.2}, "profile key 'rho'"),
        ("q-cos", {"rho": 0.2, "lam4": 2.5}, "profile key 'lam4'"),
        ("sin", {}, "unknown profile kind 'sin'"),
    ], ids=["misspelt", "other-kind-key", "q-cos", "kind"])
    def test_unknown_kind_or_key_raises(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            euler_module.profile_fields(kind, params, 0.5)
        with pytest.raises(ValueError, match=message):
            initial_q_field(kind, params, MacroGrid(8), MODEL)

    def test_q_cos_cells_are_the_profile(self):
        grid = MacroGrid(16)
        q = initial_q_field("q-cos", self.PARAMS["q-cos"], grid, MODEL)
        fields = euler_module.profile_fields("q-cos", self.PARAMS["q-cos"], grid.centers)
        assert np.array_equal(q.stack(), fields.T)


class TestPositivity:
    def test_shipped_case_stays_in_domain(self, closure):
        traj = run(bump_field(128), 0.05, MacroGrid(128), closure)
        for q in traj.snapshots:
            assert q.rho.min() > 0.0
            assert np.all(q.e_internal > eos.energy_floor(MODEL, q.rho))
