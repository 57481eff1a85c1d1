"""Legendre entropy, rate function, and the box-truncated variant."""

import numpy as np
import pytest
import sympy

from fermi_euler import eos, ldp
from fermi_euler.eos import BRILLOUIN, UNBOUNDED, ConservedVector, EosModel, MultiplierVector
from fermi_euler.errors import NoConvergence, OutOfDomain

M1 = EosModel(d=1)

# frozen golden: direct Newton sup for the near-degenerate state below,
# cross-checked in-test against a coarse grid search over lambda.  Note the
# signed-pairing Legendre transform equals minus the thermodynamic entropy
# density, so the value is small and negative near T = 0 (Sommerfeld slope
# pi^2 nu(mu) T / 3 ~ 0.0100 at the fitted beta ~ 104).
S_NEAR_T0 = -0.010058540272091
Q_NEAR_T0 = ConservedVector(rho=0.318310, mom=[0.0], e=0.0531)


def lam_phys(beta, alpha, mu):
    return MultiplierVector.from_physical(beta, alpha, mu)


class TestEntropy:
    def test_legendre_fixed_point(self):
        lam0 = lam_phys(1.0, 0.3, 0.2)
        q = eos.dual_q(M1, lam0)
        _, maximizer = ldp.entropy_s(M1, q)
        assert np.max(np.abs(maximizer.as_array() - lam0.as_array())) < 1e-7

    def test_near_degenerate_golden(self):
        s, lam = ldp.entropy_s(M1, Q_NEAR_T0)
        assert s == pytest.approx(S_NEAR_T0, abs=1e-9)
        assert abs(s) < 0.02  # small near T = 0
        # independent coarse grid-search oracle never beats the sup and
        # comes close on a fine grid around the maximizer
        best = -np.inf
        for b in np.linspace(0.8 * lam.beta, 1.2 * lam.beta, 41):
            for m in np.linspace(0.95 * lam.mu, 1.05 * lam.mu, 41):
                trial = lam_phys(b, 0.0, m)
                best = max(best, trial.pair(Q_NEAR_T0) - eos.pressure_psi(M1, trial))
        assert best <= s + 1e-12
        assert best == pytest.approx(s, abs=1e-6)

    def test_young_inequality(self, rng):
        q = eos.dual_q(M1, lam_phys(1.0, 0.3, 0.2))
        s, _ = ldp.entropy_s(M1, q)
        for _ in range(50):
            lam = lam_phys(
                rng.uniform(0.3, 4.0), rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
            )
            assert lam.pair(q) - eos.pressure_psi(M1, lam) <= s + 1e-10

    def test_convexity_on_segments(self, rng):
        for _ in range(20):
            la = lam_phys(rng.uniform(0.7, 2.5), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            lb = lam_phys(rng.uniform(0.7, 2.5), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            qa, qb = eos.dual_q(M1, la), eos.dual_q(M1, lb)
            qm = ConservedVector.from_array(0.5 * (qa.as_array() + qb.as_array()))
            sa, _ = ldp.entropy_s(M1, qa)
            sb, _ = ldp.entropy_s(M1, qb)
            sm, _ = ldp.entropy_s(M1, qm)
            assert sm <= 0.5 * (sa + sb) + 1e-10


class TestRate:
    def test_zero_at_dual(self):
        lam = lam_phys(1.0, 0.0, 0.0)
        q = eos.dual_q(M1, lam)
        assert ldp.rate_I(M1, q, lam) < 1e-10

    def test_quadratic_behavior(self):
        lam = lam_phys(1.0, 0.0, 0.0)
        q = eos.dual_q(M1, lam)
        H = ldp.hessian_rate(M1, q)
        delta = 1e-3
        qp = ConservedVector(rho=q.rho + delta, mom=q.mom, e=q.e)
        rate = ldp.rate_I(M1, qp, lam)
        assert rate == pytest.approx(0.5 * delta**2 * H[0, 0], rel=0.1)

    @pytest.mark.parametrize("beta,alpha,mu", [(1.0, 0.0, 0.0), (1.8, 0.3, 0.4)])
    def test_hessian_matches_fd_of_maximizer(self, beta, alpha, mu):
        # central differences of the gradient of s, (lam0, lam_mom, -lam4) at
        # the maximizer, against the exact D (Hess psi)^-1 D
        q = eos.dual_q(M1, lam_phys(beta, alpha, mu))
        base = q.as_array()
        scale = np.maximum(np.abs(base), 1e-3 * np.max(np.abs(base)))
        fd = np.zeros((base.size, base.size))
        for i in range(base.size):
            h = 1e-4 * scale[i]
            grads = []
            for sign in (1.0, -1.0):
                arr = base.copy()
                arr[i] += sign * h
                g = ldp.entropy_s(M1, ConservedVector.from_array(arr))[1].as_array()
                g[-1] = -g[-1]
                grads.append(g)
            fd[:, i] = (grads[0] - grads[1]) / (2.0 * h)
        H = ldp.hessian_rate(M1, q)
        assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(H))

    def test_hessian_positive_definite(self):
        lam = lam_phys(1.0, 0.0, 0.0)
        q = eos.dual_q(M1, lam)
        eigs = np.linalg.eigvalsh(ldp.hessian_rate(M1, q))
        assert eigs.min() > 0.0

    def test_nonnegative_and_unique_zero(self, rng):
        # 30-point sampled (q', lam) set
        for _ in range(30):
            lam_q = lam_phys(
                rng.uniform(0.7, 2.5), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
            )
            lam_ref = lam_phys(
                rng.uniform(0.7, 2.5), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
            )
            q = eos.dual_q(M1, lam_q)
            rate = ldp.rate_I(M1, q, lam_ref)
            assert rate >= -1e-12
            gap = np.max(np.abs(lam_q.as_array() - lam_ref.as_array()))
            if rate < 1e-10:
                assert gap < 1e-4  # zero only at q' = dual(lam)


class TestBatchedRates:
    # 7 x 7 scans at span 0.9: on both domains the low-e corner crosses the
    # T = 0 floor; on the Brillouin zone the hot corner also crosses the
    # beta -> 0+ edge, where the Newton does not converge
    @pytest.mark.parametrize("domain,beta,mu,alpha,n_no_convergence", [
        (UNBOUNDED, 10.0, 1.0, 0.4, 0),
        (BRILLOUIN, 1.0, 0.0, 0.4, 7),
    ])
    def test_matches_cold_scalar_rate(self, domain, beta, mu, alpha, n_no_convergence):
        model = EosModel(d=1, domain=domain, bz_nodes=512)
        lam = lam_phys(beta, alpha, mu)
        centre = eos.dual_q(model, lam)
        fr = np.linspace(0.1, 1.9, 7)
        q = np.stack(np.broadcast_arrays(fr[:, None] * centre.rho, centre.mom[0],
                                         fr[None, :] * centre.e), axis=-1)
        rates = ldp.rates(model, q, lam)
        assert rates.shape == (7, 7)
        raised = {NoConvergence: 0, OutOfDomain: 0}
        for idx in np.ndindex(7, 7):
            try:
                cold = ldp.rate_I(model, ConservedVector.from_array(q[idx]), lam)
            except (NoConvergence, OutOfDomain) as err:
                raised[type(err)] += 1
                assert np.isnan(rates[idx])
            else:
                assert abs(rates[idx] - cold) <= 1e-12
        assert raised[OutOfDomain] > 0
        assert raised[NoConvergence] == n_no_convergence


class TestTruncatedRate:
    def test_interior_equals_full(self):
        lam = lam_phys(1.0, 0.0, 0.0)
        q = eos.dual_q(M1, lam)
        full = ldp.rate_I(M1, q, lam)
        trunc = ldp.rate_I_truncated(M1, q, lam, eta=0.05)
        assert trunc < 1e-10
        assert full < 1e-10
        assert abs(trunc - full) < 1e-12

    def test_exiting_maximizer_strictly_lower(self):
        # unconstrained maximizer at beta = 0.2 exits the eta = 0.3 box
        q_hot = eos.dual_q(M1, lam_phys(0.2, 0.0, -1.0))
        lam_ref = lam_phys(1.0, 0.0, 0.0)
        full = ldp.rate_I(M1, q_hot, lam_ref)
        trunc = ldp.rate_I_truncated(M1, q_hot, lam_ref, eta=0.3)
        assert trunc < full - 1e-6

    def test_active_bound_kkt(self):
        # lam4 = 0.2 maximizes the free sup, below the eta = 0.3 box: the
        # lam4 >= eta bound holds with a positive multiplier, and the
        # gradient vanishes in the free coordinates
        q_hot = eos.dual_q(M1, lam_phys(0.2, 0.0, -1.0))
        y = q_hot.signed()
        lo = np.array([-1 / 0.3, -1 / 0.3, 0.3])
        hi = np.full(3, 1 / 0.3)
        x0 = np.clip(ldp.entropy_s(M1, q_hot)[1].as_array(), lo + 1e-9, hi - 1e-9)
        f_val, x = ldp._box_maximize(M1, y, lo, hi, x0)
        psi, grad_psi, _ = eos.moments(M1, x)
        grad = y - grad_psi
        assert x[-1] == lo[-1] and np.all(x[:-1] > lo[:-1]) and np.all(x[:-1] < hi[:-1])
        assert np.max(np.abs(grad[:-1])) <= 1e-11
        assert -grad[-1] > 1e-3  # the multiplier of the active lower bound
        assert f_val == x @ y - psi

    def test_monotone_in_box_size(self):
        q_hot = eos.dual_q(M1, lam_phys(0.2, 0.0, -1.0))
        lam_ref = lam_phys(1.0, 0.0, 0.0)
        i_wide = ldp.rate_I_truncated(M1, q_hot, lam_ref, eta=0.25)
        i_narrow = ldp.rate_I_truncated(M1, q_hot, lam_ref, eta=0.5)
        assert i_wide >= i_narrow - 1e-12

    def test_never_exceeds_full(self, rng):
        lam_ref = lam_phys(1.2, 0.1, 0.1)
        for _ in range(5):
            lam_q = lam_phys(
                rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            )
            q = eos.dual_q(M1, lam_q)
            full = ldp.rate_I(M1, q, lam_ref)
            for eta in (0.05, 0.2, 0.6):
                assert ldp.rate_I_truncated(M1, q, lam_ref, eta) <= full + 1e-10

    def test_convex_along_segment(self):
        lam_ref = lam_phys(1.0, 0.0, 0.0)
        qa = eos.dual_q(M1, lam_phys(0.8, 0.1, -0.1))
        qb = eos.dual_q(M1, lam_phys(1.6, -0.1, 0.3))
        qm = ConservedVector.from_array(0.5 * (qa.as_array() + qb.as_array()))
        eta = 0.4
        ia = ldp.rate_I_truncated(M1, qa, lam_ref, eta)
        ib = ldp.rate_I_truncated(M1, qb, lam_ref, eta)
        im = ldp.rate_I_truncated(M1, qm, lam_ref, eta)
        assert im <= 0.5 * (ia + ib) + 1e-9

    def test_eta_validation(self):
        q = eos.dual_q(M1, lam_phys(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ldp.rate_I_truncated(M1, q, lam_phys(1.0, 0.0, 0.0), eta=1.5)


def test_model_problem_bound():
    # guard on the harness error-bound logic: sup_x [x - x^2/delta] = delta/4 <= delta
    x, delta = sympy.symbols("x delta", positive=True)
    expr = x - x**2 / delta
    x_star = sympy.solve(sympy.diff(expr, x), x)[0]
    assert sympy.simplify(x_star - delta / 2) == 0
    sup_val = sympy.simplify(expr.subs(x, x_star))
    assert sympy.simplify(sup_val - delta / 4) == 0
    assert sympy.ask(sympy.Q.nonnegative(delta - sup_val), sympy.Q.positive(delta))
