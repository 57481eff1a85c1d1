"""Free-Fermi-gas thermodynamics: pressure, dual map, inversion, closures."""

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit

from fermi_euler import eos
from fermi_euler.eos import (
    BRILLOUIN,
    UNBOUNDED,
    ConservedVector,
    EosModel,
    MultiplierVector,
    PressureClosure,
    dual_q,
    energy_floor,
    hessian_psi,
    invert,
    invert_to_multipliers,
    moments,
    pressure_psi,
    tabulate,
    virial_gap,
)
from fermi_euler.errors import NoConvergence, NonFinite, NonpositiveBeta, OutOfDomain

M1 = EosModel(d=1, domain=UNBOUNDED)

# frozen golden: adaptive quadrature of (2pi)^-1 Int log(1+exp(-p^2/2)) dp,
# cross-checked against 30-digit mpmath during development
PSI_BETA1_MU0 = 0.3052494988464314


def lam_phys(beta, alpha, mu):
    return MultiplierVector.from_physical(beta, alpha, mu)


def moving_frame_integral(lam, weight):
    """(2*pi)^-1 * Integral weight(p, g(p)) dp over the real line by plain
    quadrature of the boosted 1D integrand, g = lam0 + lam1 p - lam4 p^2/2;
    independent of the rest-frame reduction in eos."""
    lam0, lam1, lam4 = lam.lam0, float(lam.lam_mom[0]), lam.lam4
    val, _ = integrate.quad(
        lambda p: weight(p, lam0 + lam1 * p - 0.5 * lam4 * p * p),
        -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    return val / (2.0 * np.pi)


def fermi_dirac_oracle(lam):
    """psi, the densities and the Hessian on the unbounded domain from
    psi = (2 pi lam4)^(-d/2) F_{d/2+1}(z), F_s(z) = -Li_s(-e^z),
    z = lam0 + |lam_mom|^2/(2 lam4), in 30-digit mpmath."""
    d = lam.d
    with mpmath.workdps(30):
        b = mpmath.mpf(lam.lam4)
        m = [mpmath.mpf(float(x)) for x in lam.lam_mom]
        msq = sum(x * x for x in m)
        z = lam.lam0 + msq / (2 * b)
        h = mpmath.mpf(d) / 2

        def F(s):
            return -mpmath.re(mpmath.polylog(s, -mpmath.exp(z)))

        c = (2 * mpmath.pi * b) ** -h
        # Psi(z, b) and its partials in z and b
        P, Pz, Pzz = c * F(h + 1), c * F(h), c * F(h - 1)
        Pb, Pzb, Pbb = -h / b * P, -h / b * Pz, h * (h + 1) / b**2 * P
        # chain rule through z(lam): dz = (1, m/b, -|m|^2/(2 b^2))
        a = [mpmath.mpf(1)] + [x / b for x in m] + [-msq / (2 * b**2)]
        n = d + 2
        H = mpmath.matrix([[Pzz * ai * aj for aj in a] for ai in a])
        for i in range(n):
            H[i, n - 1] += Pzb * a[i]
            H[n - 1, i] += Pzb * a[i]
        H[n - 1, n - 1] += Pbb + Pz * msq / b**3
        for i in range(d):
            H[1 + i, 1 + i] += Pz / b
            H[1 + i, n - 1] -= Pz * m[i] / b**2
            H[n - 1, 1 + i] -= Pz * m[i] / b**2
        q = [Pz] + [Pz * x / b for x in m] + [-(Pz * a[-1] + Pb)]
        return (
            float(P),
            np.array([float(x) for x in q]),
            np.array(H.tolist(), dtype=float),
        )


def fd_gradient(model, lam, h=1e-6):
    arr = lam.as_array()
    out = np.zeros_like(arr)
    for i in range(arr.size):
        hi = h * max(1.0, abs(arr[i]))
        up, dn = arr.copy(), arr.copy()
        up[i] += hi
        dn[i] -= hi
        out[i] = (
            pressure_psi(model, MultiplierVector.from_array(up))
            - pressure_psi(model, MultiplierVector.from_array(dn))
        ) / (2 * hi)
    return out


class TestPressure:
    def test_empty_gas_limit(self):
        assert pressure_psi(M1, lam_phys(1.0, 0.0, -40.0)) < 1e-17

    def test_golden_value(self):
        assert pressure_psi(M1, lam_phys(1.0, 0.0, 0.0)) == pytest.approx(
            PSI_BETA1_MU0, abs=1e-13
        )

    def test_boost_identity(self):
        # psi(beta, alpha, mu) = psi(beta, 0, mu + alpha^2/2): the moving
        # frame by plain quadrature of the boosted integrand, the rest frame
        # by pressure_psi
        a = moving_frame_integral(lam_phys(2.0, 0.7, 0.3), lambda p, g: np.logaddexp(0.0, g))
        b = pressure_psi(M1, lam_phys(2.0, 0.0, 0.3 + 0.5 * 0.7**2))
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize(
        "d,beta,alpha,mu",
        [(1, 1.7, [0.6], 0.3), (1, 3.5, [-0.8], 0.9), (1, 0.6, [0.2], -0.5),
         (3, 1.3, [0.2, -0.4, 0.1], 0.25)],
    )
    def test_fermi_dirac_oracle(self, d, beta, alpha, mu):
        model = EosModel(d=d, domain=UNBOUNDED)
        lam = MultiplierVector.from_physical(beta, alpha, mu)
        psi, q, H = fermi_dirac_oracle(lam)
        assert abs(pressure_psi(model, lam) - psi) < 1e-10 * psi
        assert np.all(np.abs(dual_q(model, lam).as_array() - q) <= 1e-10 * np.abs(q))
        assert np.all(np.abs(hessian_psi(model, lam) - H) <= 1e-10 * np.abs(H))

    def test_monotone_in_lam0(self):
        vals = [pressure_psi(M1, lam_phys(1.0, 0.1, mu)) for mu in (-0.5, 0.0, 0.5, 1.0)]
        assert np.all(np.diff(vals) > 0)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(NonpositiveBeta):
            MultiplierVector.from_physical(-1.0, 0.0, 0.0)
        with pytest.raises(NonpositiveBeta):
            MultiplierVector(lam0=0.0, lam_mom=np.zeros(1), lam4=0.0)

    def test_convexity_random_segments(self, rng):
        for _ in range(20):
            a1 = MultiplierVector.from_array(
                np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 3)])
            )
            a2 = MultiplierVector.from_array(
                np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 3)])
            )
            t = rng.uniform(0.1, 0.9)
            mid = MultiplierVector.from_array(t * a1.as_array() + (1 - t) * a2.as_array())
            lhs = pressure_psi(M1, mid)
            rhs = t * pressure_psi(M1, a1) + (1 - t) * pressure_psi(M1, a2)
            assert lhs <= rhs + 1e-10


class TestDual:
    def test_zero_alpha_zero_momentum(self):
        q = dual_q(M1, lam_phys(1.7, 0.0, 0.2))
        assert q.mom[0] == 0.0

    def test_degenerate_closed_forms(self):
        # T=0, mu=0.5: p_F = 1, rho = p_F/pi, e = p_F^3/(6 pi)
        q = dual_q(M1, lam_phys(100.0, 0.0, 0.5))
        assert q.rho == pytest.approx(1 / np.pi, abs=5e-4)
        assert q.e == pytest.approx(1 / (6 * np.pi), abs=5e-4)

    @pytest.mark.parametrize("beta,alpha,mu", [(1.3, 0.2, -0.1), (2.5, -0.4, 0.3)])
    def test_gradient_consistency(self, beta, alpha, mu):
        lam = lam_phys(beta, alpha, mu)
        q = dual_q(M1, lam)
        fd = fd_gradient(M1, lam)
        assert np.max(np.abs(q.signed() - fd) / np.abs(fd)) < 1e-6

    def test_gradient_consistency_grid(self, rng):
        # 20-point lambda grid, rel 1e-6 against central differences
        for _ in range(20):
            lam = lam_phys(rng.uniform(0.5, 3), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            q = dual_q(M1, lam)
            fd = fd_gradient(M1, lam)
            assert np.max(np.abs(q.signed() - fd) / np.maximum(np.abs(fd), 1e-12)) < 1e-6

    def test_gradient_consistency_d3(self):
        m3 = EosModel(d=3, domain=UNBOUNDED)
        lam = MultiplierVector.from_physical(1.7, [0.2, -0.1, 0.3], 0.15)
        q = dual_q(m3, lam)
        fd = fd_gradient(m3, lam)
        assert np.max(np.abs(q.signed() - fd) / np.abs(fd)) < 1e-6

    def test_hessian_matches_fd_of_dual(self):
        lam = lam_phys(1.3, 0.2, -0.1)
        H = hessian_psi(M1, lam)
        arr = lam.as_array()
        fd = np.zeros((3, 3))
        for i in range(3):
            h = 1e-6 * max(1.0, abs(arr[i]))
            up, dn = arr.copy(), arr.copy()
            up[i] += h
            dn[i] -= h
            fd[:, i] = (
                dual_q(M1, MultiplierVector.from_array(up)).signed()
                - dual_q(M1, MultiplierVector.from_array(dn)).signed()
            ) / (2 * h)
        assert np.max(np.abs(H - fd)) / np.max(np.abs(H)) < 1e-6

    def test_brillouin_matches_unbounded_when_cold(self):
        # tail bound: the two domains differ by the occupation mass outside
        # the zone, < 10 exp(-lam4 pi^2/2) for lam4 >= 2
        for beta in (2.0, 3.0, 5.0):
            lam = lam_phys(beta, 0.2, 0.2)
            mb = EosModel(d=1, domain=BRILLOUIN, bz_nodes=4096)
            diff = abs(pressure_psi(mb, lam) - pressure_psi(M1, lam))
            assert diff < 10.0 * np.exp(-beta * np.pi**2 / 2)

    def test_brillouin_gradient_consistency(self):
        mb = EosModel(d=1, domain=BRILLOUIN, bz_nodes=512)
        lam = lam_phys(2.0, 0.3, 0.1)
        q = dual_q(mb, lam)
        fd = fd_gradient(mb, lam)
        assert np.max(np.abs(q.signed() - fd) / np.abs(fd)) < 1e-6


def random_multipliers(rng, d, n):
    """n multiplier rows (lam0, lam_mom, lam4) with beta in [0.5, 4],
    alpha in [-0.6, 0.6]^d and mu in [-0.5, 0.8]."""
    beta = rng.uniform(0.5, 4.0, n)
    alpha = rng.uniform(-0.6, 0.6, (n, d))
    mu = rng.uniform(-0.5, 0.8, n)
    return np.concatenate([(beta * mu)[:, None], beta[:, None] * alpha, beta[:, None]], axis=1)


def densities_of(model, lam):
    """Unsigned densities (rho, mom, e) at multiplier rows lam."""
    q = moments(model, lam)[1].copy()
    q[..., -1] *= -1.0
    return q


class TestKernel:
    @pytest.mark.parametrize("domain", [UNBOUNDED, BRILLOUIN])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_matches_scalar(self, d, domain, rng):
        model = EosModel(d=d, domain=domain, bz_nodes={1: 4096, 2: 64, 3: 16}[d])
        lam = random_multipliers(rng, d, 12)
        psi, grad, hess = moments(model, lam)
        q = densities_of(model, lam)
        back = invert(model, q)
        for i, row in enumerate(lam):
            mv = MultiplierVector.from_array(row)
            assert abs(pressure_psi(model, mv) - psi[i]) <= 1e-14 * psi[i]
            scale = np.abs(grad[i]).max()
            assert np.max(np.abs(dual_q(model, mv).signed() - grad[i])) <= 1e-14 * scale
            scale = np.abs(hess[i]).max()
            assert np.max(np.abs(hessian_psi(model, mv) - hess[i])) <= 1e-14 * scale
            # the same Newton on one cell, from the same crossover guess
            one = invert_to_multipliers(model, ConservedVector.from_array(q[i])).as_array()
            assert np.max(np.abs(one - back[i])) <= 1e-12 * np.abs(back[i]).max()
        assert np.max(np.abs(back - lam)) < 1e-8

    def test_shapes(self):
        lam = np.broadcast_to([0.3, 0.1, 1.5], (2, 4, 3))
        psi, grad, hess = moments(M1, lam)
        assert psi.shape == (2, 4) and grad.shape == (2, 4, 3) and hess.shape == (2, 4, 3, 3)
        assert invert(M1, densities_of(M1, lam)).shape == (2, 4, 3)

    @pytest.mark.parametrize("n", [63, 64, 4096])
    def test_fused_brillouin_matches_explicit_sums(self, n, rng):
        # the zone sums written out node by node, as separate quadratures
        model = EosModel(d=1, domain=BRILLOUIN, bz_nodes=n)
        p = eos.brillouin_momenta(n)
        basis = np.stack([np.ones(n), p, -0.5 * p * p], axis=1)
        lam = random_multipliers(rng, 1, 10)
        psi, grad, hess = moments(model, lam)
        for i, (lam0, lam1, lam4) in enumerate(lam):
            g = lam0 + lam1 * p - 0.5 * lam4 * p * p
            f = expit(g)
            ref_q = np.array([np.sum(f), np.sum(p * f), -np.sum(0.5 * p * p * f)]) / n
            ref_h = (basis * (expit(g) * expit(-g))[:, None]).T @ basis / n
            assert abs(psi[i] - np.mean(np.logaddexp(0.0, g))) <= 1e-14 * psi[i]
            assert np.max(np.abs(grad[i] - ref_q)) <= 1e-14 * np.abs(ref_q).max()
            assert np.max(np.abs(hess[i] - ref_h)) <= 1e-14 * np.abs(ref_h).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fermi_dirac_oracle_sweep(self, d):
        # lam4 enters only through the closed-form prefactor, z through the
        # quadrature: sweep z across the rule's panels, and on to the
        # near-degenerate cells (z ~ 575 at beta ~ 1150, mu = 0.5) where the
        # Fermi edge is sharpest
        rng = np.random.default_rng(d)
        rows = []
        for z in np.concatenate([np.linspace(-40.0, 40.0, 9), [100.0, 500.0, 1000.0]]):
            for lam4 in (0.2, 2.0, 20.0):
                m = lam4 * rng.uniform(-0.5, 0.5, d)
                rows.append(np.concatenate([[z - 0.5 * (m @ m) / lam4], m, [lam4]]))
        psi, grad, hess = moments(EosModel(d=d, domain=UNBOUNDED), np.array(rows))
        for i, row in enumerate(rows):
            ref_psi, ref_q, ref_h = fermi_dirac_oracle(MultiplierVector.from_array(row))
            ref_q[-1] *= -1.0
            assert abs(psi[i] - ref_psi) <= 1e-10 * ref_psi
            assert np.all(np.abs(grad[i] - ref_q) <= 1e-10 * np.abs(ref_q))
            assert np.all(np.abs(hess[i] - ref_h) <= 1e-10 * np.abs(ref_h))

    @pytest.fixture(params=[BRILLOUIN, UNBOUNDED])
    def batch(self, request):
        # 256 cells of a smooth profile, with the multipliers that produce them
        model = EosModel(d=1, domain=request.param, bz_nodes=512)
        x = (np.arange(256) + 0.5) / 256
        lam = np.stack([0.25 + 0.08 * np.cos(2 * np.pi * x), 0.1 * np.sin(2 * np.pi * x),
                        2.5 + 0.25 * np.cos(2 * np.pi * x + 0.7)], axis=1)
        return model, lam, densities_of(model, lam)

    def test_non_finite_cell_named(self, batch):
        model, _, q = batch
        q[117, 1] = np.nan
        with pytest.raises(NonFinite, match="cell 117"):
            invert(model, q)

    def test_out_of_domain_cell_named(self, batch):
        model, _, q = batch
        q[117, -1] = 0.9 * energy_floor(model, q[117, 0]) + 0.5 * q[117, 1] ** 2 / q[117, 0]
        with pytest.raises(OutOfDomain, match="cell 117"):
            invert(model, q)

    def test_non_converging_cell_named(self, batch, monkeypatch):
        # the Newton under `invert`, capped at two steps: every other cell
        # starts at its solution, cell 117 far from it
        model, lam, q = batch
        guess = lam.copy()
        guess[117] = [-3.0, 0.0, 40.0]
        monkeypatch.setattr(eos, "_MAX_ITER", 0)
        assert np.array_equal(eos._newton(model, q, lam.copy())[0], lam)
        monkeypatch.setattr(eos, "_MAX_ITER", 2)
        with pytest.raises(NoConvergence, match="cell 117"):
            invert(model, q, guess)

    def test_invert_cells_masks(self, batch):
        # the guard and the Newton report per cell where `invert` raises
        model, lam, q = batch
        q[3, 1] = np.nan
        q[50, 0] = -0.1
        q[117, -1] = 0.9 * energy_floor(model, q[117, 0]) + 0.5 * q[117, 1] ** 2 / q[117, 0]
        out, inside, converged = eos.invert_cells(model, q)
        bad = np.zeros(len(q), dtype=bool)
        bad[[3, 50, 117]] = True
        assert np.array_equal(inside, ~bad) and np.array_equal(converged, ~bad)
        assert np.all(np.isnan(out[bad])) and not np.any(np.isnan(out[~bad]))
        assert np.max(np.abs(out[~bad] - invert(model, q[~bad]))) <= 1e-14 * np.abs(lam).max()
        with pytest.raises(NonFinite, match="cell 3"):
            invert(model, q)

    def test_non_finite_multipliers_named(self, batch):
        model, lam, _ = batch
        lam[117, 0] = np.inf
        with pytest.raises(NonFinite, match="cell 117"):
            moments(model, lam)


class TestInversion:
    def test_roundtrip(self):
        lam = lam_phys(1.0, 0.3, 0.2)
        q = dual_q(M1, lam)
        back = invert_to_multipliers(M1, q, lam_phys(1.5, 0.1, 0.0))
        assert np.max(np.abs(back.as_array() - lam.as_array())) < 1e-8

    def test_roundtrip_brillouin(self):
        mb = EosModel(d=1, domain=BRILLOUIN, bz_nodes=512)
        lam = lam_phys(2.0, 0.25, 0.15)
        q = dual_q(mb, lam)
        back = invert_to_multipliers(mb, q)
        assert np.max(np.abs(back.as_array() - lam.as_array())) < 1e-8

    def test_near_degenerate_target(self):
        # the 6-digit rounded closed-form values sit ~1e-6 above the T=0
        # floor, i.e. at beta ~ 1e3; assert the fit is deeply degenerate with
        # the right chemical potential rather than pinning beta itself
        q = ConservedVector(rho=0.318310, mom=[0.0], e=0.053052)
        lam = invert_to_multipliers(M1, q)
        assert lam.mu == pytest.approx(0.5, rel=0.01)
        assert lam.beta > 50.0
        qq = dual_q(M1, lam)
        assert qq.rho == pytest.approx(q.rho, rel=1e-8)
        assert qq.e == pytest.approx(q.e, rel=1e-8)

    def test_floor_violation_raises(self):
        rho = 0.3
        e_min = np.pi**2 * rho**3 / 6.0
        with pytest.raises(OutOfDomain):
            invert_to_multipliers(M1, ConservedVector(rho=rho, mom=[0.0], e=0.9 * e_min))

    def test_vacuum_rejected(self):
        with pytest.raises(OutOfDomain):
            invert_to_multipliers(M1, ConservedVector(rho=0.0, mom=[0.0], e=0.1))

    def test_non_finite_target_rejected(self):
        with pytest.raises(NonFinite):
            invert_to_multipliers(M1, ConservedVector(rho=0.3, mom=[np.nan], e=0.1))


def rest_pressure(rho, eint):
    """P(rho, e_int) of the direct closure, started cold."""
    return PressureClosure(M1, None)(rho, eint)


class TestRestPressure:
    def test_degenerate_pressure(self):
        assert rest_pressure(0.318310, 0.053052) == pytest.approx(1 / (3 * np.pi), rel=0.01)

    def test_boost_invariance(self):
        # the moving-frame inversion gives the rest-frame pressure
        s = 0.7
        rho, eint = 0.3, 0.08
        qb = ConservedVector(rho=rho, mom=[rho * s], e=eint + 0.5 * rho * s**2)
        lam = invert_to_multipliers(M1, qb)
        assert lam.alpha[0] == pytest.approx(s, abs=1e-8)
        assert abs(rest_pressure(rho, eint) - pressure_psi(M1, lam) / lam.beta) < 1e-8

    def test_rest_consistency_with_psi(self):
        lam = invert_to_multipliers(M1, ConservedVector(rho=0.25, mom=[0.0], e=0.07))
        assert abs(rest_pressure(0.25, 0.07) - pressure_psi(M1, lam) / lam.beta) < 1e-9


class TestVirial:
    @pytest.mark.parametrize(
        "d,beta,alpha,mu",
        [(1, 1.0, 0.0, 0.0), (3, 2.0, 0.0, 0.1), (1, 1.0, 0.5, 0.0)],
    )
    def test_pinned_cases(self, d, beta, alpha, mu):
        model = EosModel(d=d, domain=UNBOUNDED)
        lam = MultiplierVector.from_physical(beta, [alpha] * d, mu)
        p = pressure_psi(model, lam) / beta
        assert abs(virial_gap(model, lam)) < 1e-8 * max(1.0, p)

    @pytest.mark.parametrize("d", [1, 3])
    def test_virial_grid(self, d, rng):
        model = EosModel(d=d, domain=UNBOUNDED)
        for _ in range(20):
            beta = rng.uniform(0.5, 4.0)
            mu = rng.uniform(-0.5, 0.8)
            alpha = rng.uniform(-0.6, 0.6, size=d)
            lam = MultiplierVector.from_physical(beta, alpha, mu)
            p = pressure_psi(model, lam) / beta
            assert abs(virial_gap(model, lam)) < 1e-8 * max(1.0, p)

    def test_kinetic_energy_boost_relation(self, rng):
        # e_kin(beta, alpha, mu) = e_kin(beta, 0, mu + alpha^2/2) + alpha^2 rho / 2
        for _ in range(10):
            beta = rng.uniform(0.5, 3.0)
            mu = rng.uniform(-0.5, 0.5)
            a = rng.uniform(-0.8, 0.8)
            lam = lam_phys(beta, a, mu)
            rho = moving_frame_integral(lam, lambda p, g: expit(g))
            e = moving_frame_integral(lam, lambda p, g: 0.5 * p * p * expit(g))
            q_rest = dual_q(M1, lam_phys(beta, 0.0, mu + 0.5 * a**2))
            assert abs(e - (q_rest.e + 0.5 * a**2 * rho)) < 1e-8


@pytest.fixture(scope="module")
def table():
    # floor at rho = 0.36 is pi^2 0.36^3/6 = 0.0768, below the eint range
    return tabulate(M1, (0.18, 0.36), (0.085, 0.22), resolution=(56, 56))


BZ = EosModel(d=1, domain=BRILLOUIN, bz_nodes=4096)


@pytest.fixture(scope="module")
def bz_table():
    # the closure table of the benchmark's Euler workloads
    return tabulate(BZ, (0.15, 0.21), (0.035, 0.065), resolution=(40, 40))


def forward_rest(model, rho, eint, rho_range, eint_range):
    """(rho, e_int, P) computed forward from multipliers: `invert` at the
    targets, one Newton step through `moments` to take the residual to
    round-off, then the multipliers' own densities and psi/lam4.  The
    forward (rho, e_int) differ from the targets by round-off only, and are
    clipped into the rectangle so that edge points stay on it."""
    signed = np.stack([rho, np.zeros_like(rho), -eint], axis=-1)
    lam = invert(model, signed * [1.0, 1.0, -1.0])
    _, grad, hess = moments(model, lam)
    lam -= np.linalg.solve(hess, (grad - signed)[..., None])[..., 0]
    psi, q, _ = moments(model, lam, hess=False)
    rho_f = q[:, 0]
    eint_f = -q[:, -1] - 0.5 * q[:, 1] ** 2 / rho_f
    return np.clip(rho_f, *rho_range), np.clip(eint_f, *eint_range), psi / lam[:, -1]


def rectangle_sample(rho_range, eint_range, rng, n_random=300, n_edge=12):
    """Random points, points along the four edges, and the four corners."""
    edge = np.linspace(0.0, 1.0, n_edge)
    u = np.concatenate([rng.uniform(0, 1, n_random), edge, edge, np.zeros(n_edge),
                        np.ones(n_edge), [0, 0, 1, 1]])
    v = np.concatenate([rng.uniform(0, 1, n_random), np.zeros(n_edge), np.ones(n_edge),
                        edge, edge, [0, 1, 0, 1]])
    (r0, r1), (e0, e1) = rho_range, eint_range
    return r0 + (r1 - r0) * u, e0 + (e1 - e0) * v


class TestTable:
    @pytest.mark.parametrize("domain", [UNBOUNDED, BRILLOUIN])
    def test_forward_oracle(self, domain, table, bz_table, rng):
        # the interpolant against P computed forward from multipliers, at
        # random points, along the edges and at the corners: the nodes are
        # Chebyshev points, so the edges are reached only by interpolation
        tab, model = (table, M1) if domain == UNBOUNDED else (bz_table, BZ)
        rho, eint, exact = forward_rest(
            model, *rectangle_sample(tab.rho_range, tab.eint_range, rng),
            tab.rho_range, tab.eint_range,
        )
        assert np.max(np.abs(tab.pressure(rho, eint) - exact) / exact) <= 1e-13

    def test_degree_cut_on_benchmark_rectangle(self, bz_table):
        # 40 x 40 points, cut where the coefficients reach round-off; every
        # further degree costs each closure call two ufuncs and more matmul
        assert max(bz_table.coef.shape[1:]) <= 21  # degree <= 20 per axis

    def test_partials_match_direct_closure(self, bz_table, rng):
        # the chebder series against the direct closure's exact response,
        # each relative to its largest value (dP/drho ~ -4e-4, dP/de_int ~ 2);
        # largest at the edges, 3.5e-8 and 1.1e-9 there
        rho, eint = rectangle_sample(bz_table.rho_range, bz_table.eint_range, rng, 100, 4)
        got = bz_table.partials(rho, eint)
        want = PressureClosure(BZ, None).partials(rho, eint)
        for g, w, tol in zip(got, want, (1e-7, 1e-8)):
            assert np.max(np.abs(g - w)) <= tol * np.max(np.abs(w))

    def test_random_probes(self, table, rng):
        rho = rng.uniform(0.19, 0.35, 100)
        eint = rng.uniform(0.09, 0.215, 100)
        direct = rest_pressure(rho, eint)
        assert np.max(np.abs(table.pressure(rho, eint) - direct) / direct) < 1e-6

    def test_partials_match_fd(self, table):
        rho, eint = 0.3, 0.15
        dpr, dpe = table.partials(rho, eint)
        h = 1e-5
        fd_e = (table.pressure(rho, eint + h) - table.pressure(rho, eint - h)) / (2 * h)
        # the 1D virial P = 2 e_int makes dP/drho identically 0 on the
        # unbounded domain (a central difference of P in rho is rounding
        # only), so the table's slope is held to 0: 4.7e-14 here
        assert dpr == pytest.approx(0.0, abs=1e-12)
        assert dpe == pytest.approx(fd_e, rel=1e-5)

    def test_partials_match_fd_brillouin(self):
        # on the Brillouin zone both partials are nonzero (dP/drho = -4.1e-4
        # here); against the table's chebder series the central difference is
        # off by h^2 P'''/6 and the rounding of P over 2h: 1.1e-7 and 4.5e-10
        # relative at this h
        table = tabulate(EosModel(d=1, domain=BRILLOUIN, bz_nodes=512),
                         (0.15, 0.21), (0.035, 0.065), resolution=(16, 16))
        rho, eint = 0.18, 0.05
        dpr, dpe = table.partials(rho, eint)
        h = 1e-5
        fd_r = (table.pressure(rho + h, eint) - table.pressure(rho - h, eint)) / (2 * h)
        fd_e = (table.pressure(rho, eint + h) - table.pressure(rho, eint - h)) / (2 * h)
        assert abs(dpr) > 1e-4
        assert dpr == pytest.approx(fd_r, rel=1e-5)
        assert dpe == pytest.approx(fd_e, rel=1e-5)

    def test_direct_partials_match_fd_of_direct(self):
        # exact thermodynamic partials of the direct closure vs finite
        # differences of direct evaluations, at a fixed point
        rho, eint = 0.25, 0.13
        h = 2e-5

        fd_r = (rest_pressure(rho + h, eint) - rest_pressure(rho - h, eint)) / (2 * h)
        fd_e = (rest_pressure(rho, eint + h) - rest_pressure(rho, eint - h)) / (2 * h)
        dp_drho, dp_deint = PressureClosure(M1, None).partials(rho, eint)
        # in 1D the virial identity forces P = 2 e_int, so dP/drho vanishes
        # identically and only an absolute comparison is meaningful there
        assert dp_drho == pytest.approx(fd_r, rel=1e-5, abs=1e-8)
        assert dp_deint == pytest.approx(fd_e, rel=1e-5)
        assert dp_deint == pytest.approx(2.0, abs=1e-9)

    def test_floor_violation_rejected(self):
        with pytest.raises(OutOfDomain):
            tabulate(M1, (0.2, 0.4), (0.5 * energy_floor(M1, 0.4), 0.2), resolution=(8, 8))

    def test_hot_edge_rejected_before_inverting(self, monkeypatch):
        # on the Brillouin zone the energy at rho stays below its beta -> 0+
        # limit rho mean_k p_k^2/2 (pi^2 rho / 6 for many nodes): 0.0411 at
        # rho = 0.025, which eint_hi = 0.05 passes
        calls = []
        monkeypatch.setattr(eos, "invert_to_multipliers", lambda *args: calls.append(args))
        with pytest.raises(OutOfDomain, match=r"infinite-temperature energy 4\.11"):
            tabulate(EosModel(d=1, domain=BRILLOUIN, bz_nodes=512),
                     (0.025, 0.05), (0.03, 0.05), resolution=(8, 8))
        assert calls == []

    def test_wide_rectangle_builds(self):
        # across this rectangle beta runs from 1.8 to 5e-4; extrapolating a
        # node's warm start from the last rows overshoots to lam4 < 0 at one
        # node here, which then starts from its neighbour instead
        table = tabulate(M1, (0.05, 1.0), (1.7, 50.0), resolution=(6, 6))
        rho, eint = np.array([0.05, 1.0, 0.05, 1.0]), np.array([1.7, 1.7, 50.0, 50.0])
        # the 1D virial: P = 2 e_int on the unbounded domain
        assert np.max(np.abs(table.pressure(rho, eint) / (2.0 * eint) - 1.0)) < 1e-13

    def test_non_finite_probe_rejected(self, table):
        rho = np.full(4, 0.3)
        eint = np.full(4, 0.15)
        eint[2] = np.nan
        with pytest.raises(NonFinite, match="index 2"):
            table.pressure(rho, eint)
        with pytest.raises(NonFinite, match="index 2"):
            table.partials(eint, rho)

    def test_probe_outside_ranges_rejected(self, table):
        with pytest.raises(OutOfDomain):
            table.pressure(0.05, 0.15)
        with pytest.raises(OutOfDomain):
            table.pressure(0.3, 0.5)

    def test_probe_outside_ranges_names_index_and_hull(self, table):
        rho = np.full(5, 0.3)
        rho[3] = 0.4
        with pytest.raises(OutOfDomain, match=r"rho = 0\.4 at index 3 outside the tabulated "
                                              r"range \[0\.18, 0\.36\]"):
            table.pressure(rho, np.full(5, 0.15))
        eint = np.full(5, 0.15)
        eint[1] = 0.05
        with pytest.raises(OutOfDomain, match=r"e_int = 0\.05 at index 1 outside the "
                                              r"tabulated range \[0\.085, 0\.22\]"):
            table.partials(np.full(5, 0.3), eint)
