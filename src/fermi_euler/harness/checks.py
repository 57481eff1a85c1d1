"""Named invariant checks spanning every module, with machine-readable results.

Each check measures a number and compares it against a tolerance (overridable
through the config's `tolerances` section); failures are data, not exceptions.
The acceptance criteria map onto named groups via CRITERION_GROUPS, so the
CLI `checks` run and the pytest acceptance suite execute the same code.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.special import expit

from .. import entropy, eos, euler, ldp, micro
from ..micro import Lattice, MultiplierField
from .config import ExperimentConfig, write_manifest
from .experiments import run_entropy_track, run_hydro_compare

M1_UNBOUNDED = eos.EosModel(d=1, domain=eos.UNBOUNDED)


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float
    mode: str  # "le": value <= tol passes; "ge": value >= tol passes
    passed: bool
    note: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        rel = "<=" if self.mode == "le" else ">="
        return f"[{mark}] {self.name}: {self.value:.6e} {rel} {self.tol:.6e}  {self.note}"


def _res(name, value, tol, mode="le", note=""):
    value = float(value)
    tol = float(tol)
    passed = value <= tol if mode == "le" else value >= tol
    return CheckResult(name=name, value=value, tol=tol, mode=mode, passed=passed, note=note)


def _smooth_field(lattice, rng, beta0=2.5, amp=0.1):
    X = lattice.sites * lattice.epsilon
    c = rng.normal(size=6) * amp
    return MultiplierField(
        lattice,
        lam0=0.3 + c[0] * np.cos(2 * np.pi * X) + c[1] * np.sin(4 * np.pi * X),
        lam1=c[2] * np.sin(2 * np.pi * X) + c[3] * np.cos(4 * np.pi * X),
        lam4=beta0 + c[4] * np.cos(2 * np.pi * X) + c[5] * np.sin(4 * np.pi * X),
    )


# ---------------------------------------------------------------------------
# eos
# ---------------------------------------------------------------------------


def check_eos_virial(rng, tol):
    worst = 0.0
    for d in (1, 3):
        model = eos.EosModel(d=d, domain=eos.UNBOUNDED)
        for _ in range(20):
            lam = eos.MultiplierVector.from_physical(
                rng.uniform(0.5, 4.0), rng.uniform(-0.6, 0.6, size=d), rng.uniform(-0.5, 0.8)
            )
            p = eos.pressure_psi(model, lam) / lam.beta
            worst = max(worst, abs(eos.virial_gap(model, lam)) / max(1.0, p))
    return [_res("eos.virial_residual", worst, tol("virial", 1e-8),
                 note="20-point grids, d = 1 and 3")]


def _moving_frame_integral(lam, weight):
    """(2*pi)^-1 * Integral weight(p, g(p)) dp over the real line by plain
    quadrature of the boosted 1D integrand g = lam0 + lam1 p - lam4 p^2/2,
    independent of eos's rest-frame reduction."""
    lam0, lam1, lam4 = lam.lam0, float(lam.lam_mom[0]), lam.lam4
    val, _ = integrate.quad(
        lambda p: weight(p, lam0 + lam1 * p - 0.5 * lam4 * p * p),
        -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    return val / (2.0 * np.pi)


def check_eos_boost(rng, tol):
    worst_psi = worst_ekin = 0.0
    for _ in range(10):
        beta = rng.uniform(0.5, 3.0)
        mu = rng.uniform(-0.5, 0.5)
        a = rng.uniform(-0.8, 0.8)
        lam = eos.MultiplierVector.from_physical(beta, a, mu)
        lam_rest = eos.MultiplierVector.from_physical(beta, 0.0, mu + 0.5 * a * a)
        psi = _moving_frame_integral(lam, lambda p, g: np.logaddexp(0.0, g))
        worst_psi = max(worst_psi, abs(psi - eos.pressure_psi(M1_UNBOUNDED, lam_rest)))
        rho = _moving_frame_integral(lam, lambda p, g: expit(g))
        e = _moving_frame_integral(lam, lambda p, g: 0.5 * p * p * expit(g))
        q_rest = eos.dual_q(M1_UNBOUNDED, lam_rest)
        worst_ekin = max(worst_ekin, abs(e - (q_rest.e + 0.5 * a * a * rho)))
    t = tol("boost", 1e-8)
    return [
        _res("eos.boost_pressure", worst_psi, t,
             note="10 random points, moving frame by plain quadrature"),
        _res("eos.boost_kinetic_energy", worst_ekin, t),
    ]


def check_eos_convexity(rng, tol):
    worst = -np.inf
    for _ in range(20):
        a = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 3)])
        b = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 3)])
        t = rng.uniform(0.1, 0.9)
        mid = eos.MultiplierVector.from_array(t * a + (1 - t) * b)
        lhs = eos.pressure_psi(M1_UNBOUNDED, mid)
        rhs = t * eos.pressure_psi(M1_UNBOUNDED, eos.MultiplierVector.from_array(a)) + (
            1 - t
        ) * eos.pressure_psi(M1_UNBOUNDED, eos.MultiplierVector.from_array(b))
        worst = max(worst, lhs - rhs)
    return [_res("eos.convexity_violation", worst, tol("convexity", 1e-10))]


def check_eos_gradient(rng, tol):
    worst = 0.0
    for _ in range(20):
        lam = eos.MultiplierVector.from_physical(
            rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        )
        q = eos.dual_q(M1_UNBOUNDED, lam).signed()
        arr = lam.as_array()
        fd = np.zeros(3)
        for i in range(3):
            h = 1e-6 * max(1.0, abs(arr[i]))
            up, dn = arr.copy(), arr.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                eos.pressure_psi(M1_UNBOUNDED, eos.MultiplierVector.from_array(up))
                - eos.pressure_psi(M1_UNBOUNDED, eos.MultiplierVector.from_array(dn))
            ) / (2 * h)
        worst = max(worst, np.max(np.abs(q - fd) / np.maximum(np.abs(fd), 1e-12)))
    return [_res("eos.gradient_consistency", worst, tol("gradient", 1e-6),
                 note="dual vs finite differences, 20-point grid")]


def check_eos_domains(rng, tol):
    worst = 0.0
    bz = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=4096)
    for beta in (2.0, 3.0, 5.0):
        lam = eos.MultiplierVector.from_physical(beta, 0.2, 0.2)
        diff = abs(eos.pressure_psi(bz, lam) - eos.pressure_psi(M1_UNBOUNDED, lam))
        worst = max(worst, diff / (10.0 * np.exp(-beta * np.pi**2 / 2)))
    return [_res("eos.domain_agreement", worst, tol("domains", 1.0),
                 note="|psi_BZ - psi_unbounded| / tail bound")]


# ---------------------------------------------------------------------------
# ldp
# ---------------------------------------------------------------------------


def check_ldp_rate(rng, tol):
    out = []
    min_rate = np.inf
    for _ in range(30):
        lam_q = eos.MultiplierVector.from_physical(
            rng.uniform(0.7, 2.5), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
        )
        lam_ref = eos.MultiplierVector.from_physical(
            rng.uniform(0.7, 2.5), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
        )
        q = eos.dual_q(M1_UNBOUNDED, lam_q)
        min_rate = min(min_rate, ldp.rate_I(M1_UNBOUNDED, q, lam_ref).rate)
    out.append(_res("ldp.rate_nonnegative", -min_rate, tol("rate_nonneg", 1e-12),
                    note="-min I over 30 samples"))
    lam = eos.MultiplierVector.from_physical(1.0, 0.0, 0.0)
    q0 = eos.dual_q(M1_UNBOUNDED, lam)
    out.append(_res("ldp.rate_zero_at_dual", ldp.rate_I(M1_UNBOUNDED, q0, lam).rate,
                    tol("rate_zero", 1e-10)))
    eigs = np.linalg.eigvalsh(ldp.hessian_rate(M1_UNBOUNDED, q0))
    out.append(_res("ldp.rate_hessian_min_eig", eigs.min(), tol("rate_hessian", 1e-12),
                    mode="ge", note="positive definite at the minimum"))
    trunc = ldp.rate_I_truncated(M1_UNBOUNDED, q0, lam, eta=0.05)
    full = ldp.rate_I(M1_UNBOUNDED, q0, lam).rate
    out.append(_res("ldp.truncated_equals_full_near_minimum", abs(trunc - full),
                    tol("rate_truncated", 1e-10), note="eta = 0.05"))
    return out


def check_ldp_entropy(rng, tol):
    worst = -np.inf
    for _ in range(20):
        la = eos.MultiplierVector.from_physical(
            rng.uniform(0.7, 2.5), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
        )
        lb = eos.MultiplierVector.from_physical(
            rng.uniform(0.7, 2.5), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
        )
        qa, qb = eos.dual_q(M1_UNBOUNDED, la), eos.dual_q(M1_UNBOUNDED, lb)
        qm = eos.ConservedVector.from_array(0.5 * (qa.as_array() + qb.as_array()))
        sm, _ = ldp.entropy_s(M1_UNBOUNDED, qm)
        sa, _ = ldp.entropy_s(M1_UNBOUNDED, qa)
        sb, _ = ldp.entropy_s(M1_UNBOUNDED, qb)
        worst = max(worst, sm - 0.5 * (sa + sb))
    out = [_res("ldp.entropy_convexity_violation", worst, tol("entropy_convexity", 1e-10))]
    # model-problem guard for the harness error-bound logic:
    # sup_x [x - x^2/delta] = delta/4 <= delta
    xs = np.linspace(-5.0, 5.0, 100001)
    worst_mp = max(np.max(xs - xs**2 / d) - d for d in (0.1, 0.5, 1.0))
    out.append(_res("ldp.model_problem_bound", worst_mp, 0.0,
                    note="sup_x [x - x^2/delta] - delta over delta grid"))
    return out


# ---------------------------------------------------------------------------
# entropy toolkit
# ---------------------------------------------------------------------------


def check_entropy_gaps(rng, tol):
    worst_ent = worst_gt = worst_pe = -np.inf
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        gamma = entropy.DensityMatrix.random(dim, rng)
        omega = entropy.DensityMatrix.random(dim, rng)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (g + g.conj().T)
        worst_ent = max(
            worst_ent, -entropy.entropy_inequality_gap(gamma, omega, h, rng.uniform(0.2, 2.0))
        )
        g2 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = 0.5 * (g2 + g2.conj().T)
        worst_gt = max(worst_gt, -entropy.golden_thompson_gap(h, b))
        qmat, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        worst_pe = max(worst_pe, -entropy.peierls_gap(h, qmat))
    t = tol("entropy_gaps", 1e-10)
    out = [
        _res("entropy.variational_gap_nonneg", worst_ent, t, note="100 random instances"),
        _res("entropy.golden_thompson_nonneg", worst_gt, t),
        _res("entropy.peierls_nonneg", worst_pe, t),
    ]
    # equality cases
    from scipy.linalg import eigh, expm

    omega = entropy.DensityMatrix.random(4, rng)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (g + g.conj().T)
    log_omega = (omega.eigvecs * np.log(omega.eigvals)) @ omega.eigvecs.conj().T
    gamma_eq = entropy.DensityMatrix.from_unnormalized(expm(h + log_omega))
    eq1 = abs(entropy.entropy_inequality_gap(gamma_eq, omega, h, 1.0))
    eq2 = abs(entropy.golden_thompson_gap(np.diag(rng.normal(size=4)), np.diag(rng.normal(size=4))))
    _, vecs = eigh(h)
    eq3 = abs(entropy.peierls_gap(h, vecs))
    out.append(_res("entropy.equality_cases", max(eq1, eq2, eq3), tol("entropy_equality", 1e-9)))
    return out


def check_entropy_monotonicity(rng, tol):
    worst = -np.inf
    for _ in range(20):
        gamma = entropy.DensityMatrix.random(8, rng)
        omega = entropy.DensityMatrix.random(8, rng)
        full = entropy.rel_entropy_dm(gamma, omega)
        red = entropy.rel_entropy_dm(
            entropy.partial_trace(gamma, 3, [0, 2]), entropy.partial_trace(omega, 3, [0, 2])
        )
        worst = max(worst, red - full)
    return [_res("entropy.partial_trace_monotone", worst, tol("monotonicity", 1e-9),
                 note="20 random 3-site cases")]


# ---------------------------------------------------------------------------
# micro
# ---------------------------------------------------------------------------


def check_micro_fock(rng, tol):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        lat = Lattice(n)
        lf1 = MultiplierField(
            lat, 0.4 * rng.normal(size=n), 0.3 * rng.normal(size=n), 1.0 + 0.5 * rng.random(n)
        )
        lf2 = MultiplierField(
            lat, 0.4 * rng.normal(size=n), 0.3 * rng.normal(size=n), 1.0 + 0.5 * rng.random(n)
        )
        gamma = micro.gibbs_gaussian(lat, lf1)
        s_dense, _ = micro.rel_entropy_gaussian(gamma, micro.gibbs_gaussian(lat, lf2))
        s_closed, _ = micro.rel_entropy_gaussian(gamma, lf2)
        # the Fock oracle takes the position-space exponent K = W+ Khat W
        s_fock = entropy.rel_entropy_dm(
            entropy.fock_oracle_gaussian(n, micro.to_position(micro.gibbs_exponent(lf1))),
            entropy.fock_oracle_gaussian(n, micro.to_position(micro.gibbs_exponent(lf2))),
        )
        worst = max(worst, abs(s_dense - s_fock), abs(s_closed - s_fock))
    return [_res("micro.gaussian_vs_fock_entropy", worst, tol("fock", 1e-8),
                 note="20 random pairs, L <= 5, two-spectrum and Gibbs-reference forms")]


def check_micro_conservation(rng, tol):
    lat = Lattice(128)
    worst_spec = worst_tot = 0.0
    for _ in range(10):
        st = micro.gibbs_gaussian(lat, _smooth_field(lat, rng))
        ev = micro.evolve(st, rng.uniform(0.5, 5.0))
        s0 = np.sort(np.linalg.eigvalsh(st.chat))
        s1 = np.sort(np.linalg.eigvalsh(ev.chat))
        worst_spec = max(worst_spec, float(np.max(np.abs(s0 - s1))))
        worst_tot = max(
            worst_tot,
            float(np.max(np.abs(np.array(micro.densities(st).totals())
                                - np.array(micro.densities(ev).totals())))),
        )
    t = tol("conservation", 1e-10)
    return [
        _res("micro.evolution_unitarity", worst_spec, t, note="10 random states"),
        _res("micro.total_conservation", worst_tot, t),
    ]


def check_micro_continuity(rng, tol):
    lat = Lattice(128)
    dt = 1e-4
    worst = 0.0
    for _ in range(5):
        st = micro.gibbs_gaussian(lat, _smooth_field(lat, rng))
        dp = micro.densities(micro.evolve(st, dt))
        dm = micro.densities(micro.evolve(st, -dt))
        dudt = (dp.stack() - dm.stack()) / (2 * dt)
        cur = micro.currents(st)
        div = np.stack(
            [micro.spectral_derivative(w, lat) for w in (cur.w0, cur.w1, cur.w4)]
        )
        worst = max(worst, float(np.max(np.sqrt(np.mean((dudt + div) ** 2, axis=1)))))
    return [_res("micro.continuity_residual", worst, tol("continuity", 1e-6),
                 note="L2 norm, dt = 1e-4, L = 128, 5 smooth states")]


def check_micro_expectations(rng, tol):
    # cold homogeneous Gibbs: zone-edge occupation ~ 1e-11, so the continuum
    # current identities transfer to the lattice at the stated tolerance
    lat = Lattice(512)
    beta, alpha, mu = 6.0, 0.2, 0.1
    st = micro.gibbs_gaussian(lat, MultiplierField.constant(lat, beta, alpha, mu))
    model = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=512)
    lam = eos.MultiplierVector.from_physical(beta, alpha, mu)
    q = eos.dual_q(model, lam)
    p = eos.pressure_psi(model, lam) / beta
    d = micro.densities(st)
    c = micro.currents(st)
    dens_err = max(
        abs(d.n.mean() - q.rho), abs(d.p.mean() - q.mom[0]), abs(d.h.mean() - q.e)
    )
    rel = max(
        abs(c.w0.mean() - q.mom[0]) / abs(q.mom[0]),
        abs(c.w1.mean() - (alpha**2 * q.rho + p)) / (alpha**2 * q.rho + p),
        abs(c.w4.mean() - alpha * (q.e + p)) / abs(alpha * (q.e + p)),
    )
    return [
        _res("micro.densities_vs_eos", dens_err, tol("densities", 1e-8),
             note="homogeneous Gibbs, L = 512, BRILLOUIN grid"),
        _res("micro.current_expectations", rel, tol("expectations", 1e-6),
             note="(w0, w1, w4) = (q1, a^2 rho + P, a (e + P)), beta = 6"),
    ]


def check_micro_boost(rng, tol):
    lat = Lattice(256)
    st = micro.gibbs_gaussian(lat, MultiplierField.constant(lat, 6.0, 0.0, 0.0))
    s = 2 * np.pi * 3 / 256
    n0, p0, e0 = micro.densities(st).totals()
    nb, pb, eb = micro.densities(micro.boost(st, 3)).totals()
    worst = max(abs(nb - n0), abs((pb - p0) - s * n0),
                abs((eb - e0) - (s * p0 + 0.5 * s * s * n0)))
    return [_res("micro.boost_automorphism", worst, tol("boost_state", 1e-9))]


def check_micro_window(rng, tol):
    ts = rng.uniform(-3.0, 3.0, size=10000)
    eta = 32.0**-0.5
    part = np.max(np.abs(sum(micro.window_chi_sq(ts + j, eta) for j in range(-4, 5)) - 1.0))
    lat = Lattice(1024)
    cut = micro.momentum_cutoff(lat, 2.0)
    band = np.abs(lat.momenta) <= 2.0
    passband = float(np.max(np.abs(cut.transfer[band] - 1.0)))
    norm = abs(float(cut.kernel.sum()) - 1.0)
    return [
        _res("micro.window_partition_of_unity", part, tol("window", 1e-12),
             note="10^4 sample points"),
        _res("micro.cutoff_passband", passband, tol("cutoff", np.exp(-4.0) + 1e-9),
             note="M = 2, L = 1024"),
        _res("micro.cutoff_normalization", norm, tol("cutoff_norm", 1e-12)),
    ]


# ---------------------------------------------------------------------------
# euler
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _euler_fixture():
    model = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=4096)
    closure = eos.PressureClosure(
        model, eos.tabulate(model, (0.15, 0.21), (0.035, 0.065), resolution=(40, 40))
    )
    profile = dict(lam0=0.25, lam0_amp=0.08, lam1_amp=0.1, lam1_phase=-np.pi / 2,
                   lam4=2.5, lam4_amp=0.25, lam4_phase=0.7)
    return model, closure, profile


def check_euler_conservation(rng, tol):
    model, closure, profile = _euler_fixture()
    grid = euler.MacroGrid(128)
    q = euler.initial_q_field("lambda-cos", profile, grid, model)
    sol = euler.EulerSolution(grid=grid, q=q, time=0.0, closure=closure)
    tot = sol.q.totals()
    worst = 0.0
    for _ in range(50):
        sol = euler.step(sol, 2e-4)
        worst = max(worst, float(np.max(np.abs(sol.q.totals() - tot))))
        tot = sol.q.totals()
    qc = euler.ConservedField(
        rho=np.full(128, 0.177), mom=np.full(128, 0.01), e=np.full(128, 0.048)
    )
    solc = euler.step(
        euler.EulerSolution(grid=grid, q=qc, time=0.0, closure=closure), 1e-4
    )
    drift = float(np.max(np.abs(solc.q.stack() - qc.stack())))
    return [
        _res("euler.per_step_conservation", worst, tol("euler_conservation", 1e-13)),
        _res("euler.constant_state_fixed_point", drift, tol("euler_constant", 1e-14)),
    ]


def check_euler_convergence(rng, tol):
    model, closure, profile = _euler_fixture()
    sols = {}
    for n in (128, 256, 512):
        qi = euler.initial_q_field("lambda-cos", profile, euler.MacroGrid(n), model)
        sols[n] = euler.run(qi, 0.05, euler.MacroGrid(n), closure).snapshots[-1]

    def restrict(q):
        return np.stack([0.5 * (f[0::2] + f[1::2]) for f in (q.rho, q.mom, q.e)])

    e1 = float(np.abs(sols[128].stack() - restrict(sols[256])).mean())
    e2 = float(np.abs(sols[256].stack() - restrict(sols[512])).mean())
    order = float(np.log2(e1 / e2))
    return [_res("euler.self_convergence_order", order, tol("euler_order", 0.8), mode="ge",
                 note="L1, smooth bump, T = 0.05, N in {128, 256, 512}")]


# ---------------------------------------------------------------------------
# the commuting-diagram trend (criterion 10)
# ---------------------------------------------------------------------------


def check_hydro_trend(rng, tol, config: ExperimentConfig | None = None):
    base = config or ExperimentConfig(kind="checks")
    cfg = ExperimentConfig(
        kind="hydro-compare",
        out_dir=str(Path(base.out_dir) / "hydro_trend"),
        l_list=[256, 512, 1024],
        ell_ratio=16,
        times=[0.0, 0.02],
        n_cells=256,
        profile=base.profile,
        table={"rho_range": [0.15, 0.21], "eint_range": [0.035, 0.065],
               "resolution": [40, 40]},
        seed=base.seed,
    )
    report = run_hydro_compare(cfg)
    table = report.error_table()
    worst_ratio = 0.0
    for comp in ("n", "p", "h"):
        by_l = table[(0.0, comp)]
        ls = sorted(by_l)
        for a, b in zip(ls, ls[1:]):
            worst_ratio = max(worst_ratio, by_l[b] / by_l[a])
    slopes = report.slope_table()
    slope_ratio = max(
        slopes[comp][max(slopes[comp])] / slopes[comp][min(slopes[comp])]
        for comp in slopes
    )
    ecfg = ExperimentConfig(
        kind="entropy-track",
        out_dir=str(Path(base.out_dir) / "entropy_trend"),
        l_list=[256],
        times=[0.0, 0.01],
        n_cells=256,
        profile=base.profile,
        table=cfg.table,
        seed=base.seed,
    )
    erep = run_entropy_track(ecfg)
    row0 = next(r for r in erep.rows if r[1] == 0.0)
    row1 = next(r for r in erep.rows if r[1] > 0.0)
    s0 = abs(row0[3])
    prod0_per_site = abs(row0[5]) / 256
    fd_gap = abs(row1[5] - row1[6]) / max(abs(row1[6]), 1e-300)
    return [
        _res("hydro.error_strictly_decreasing", worst_ratio, tol("hydro_trend", 0.999),
             note="max E(L_next)/E(L_prev) at T = 0 over components"),
        _res("hydro.slope_residual_refining", slope_ratio, tol("hydro_slope", 0.999),
             note="slope residual at L = 1024 vs L = 256"),
        _res("hydro.entropy_starts_at_zero", s0, tol("entropy_zero", 0.0)),
        _res("hydro.entropy_production_at_zero", prod0_per_site,
             tol("entropy_production", 1e-6), note="per site"),
        _res("hydro.production_fd_crosscheck", fd_gap, tol("production_fd", 1e-4),
             note="formula vs centered difference, relative"),
    ]


REGISTRY = {
    "eos_virial": check_eos_virial,
    "eos_boost": check_eos_boost,
    "eos_convexity": check_eos_convexity,
    "eos_gradient": check_eos_gradient,
    "eos_domains": check_eos_domains,
    "ldp_rate": check_ldp_rate,
    "ldp_entropy": check_ldp_entropy,
    "entropy_gaps": check_entropy_gaps,
    "entropy_monotonicity": check_entropy_monotonicity,
    "micro_fock": check_micro_fock,
    "micro_conservation": check_micro_conservation,
    "micro_continuity": check_micro_continuity,
    "micro_expectations": check_micro_expectations,
    "micro_boost": check_micro_boost,
    "micro_window": check_micro_window,
    "euler_conservation": check_euler_conservation,
    "euler_convergence": check_euler_convergence,
    "hydro_trend": check_hydro_trend,
}

# acceptance criterion number -> registry groups
CRITERION_GROUPS = {
    1: ["eos_virial"],
    2: ["eos_boost"],
    3: ["micro_expectations"],
    4: ["micro_fock"],
    5: ["entropy_gaps"],
    6: ["ldp_rate"],
    7: ["micro_continuity"],
    8: ["micro_window"],
    9: ["euler_conservation", "euler_convergence"],
    10: ["hydro_trend"],
}


@dataclass
class CheckReport:
    results: list
    all_passed: bool


def run_checks(config: ExperimentConfig, groups=None, out_dir=None, verbose=True) -> CheckReport:
    rng = np.random.default_rng(config.seed)
    results = []
    for name, fn in REGISTRY.items():
        if groups is not None and name not in groups:
            continue
        if name == "hydro_trend":
            found = fn(rng, config.tolerance, config)
        else:
            found = fn(rng, config.tolerance)
        results.extend(found)
        if verbose:
            for r in found:
                print(r.line())
    all_passed = all(r.passed for r in results)
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "checks.json").write_text(
        json.dumps({"all_passed": all_passed, "results": [asdict(r) for r in results]},
                   indent=2, sort_keys=True)
    )
    write_manifest(out, config, extras={"all_passed": all_passed})
    return CheckReport(results=results, all_passed=all_passed)
