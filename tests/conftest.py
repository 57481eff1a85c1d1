import numpy as np
import pytest

from fermi_euler import eos


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _direct_closure(model, rho, eint):
    """(P, dP/drho, dP/de_int) at the rest-frame states (rho, e_int) by
    direct inversion, started cold on every call: the multipliers of every
    point by one `eos.invert`, P = psi/lam4, and the exact partials from the
    2x2 rest-frame response d(rho, e)/d(lam0, lam4) = [[H00, H04], [-H04, -H44]]
    and dP = (rho dlam0 - (e_int + P) dlam4) / lam4.  Floats for scalar
    input."""
    rho, eint = np.asarray(rho, dtype=float), np.asarray(eint, dtype=float)
    q = np.zeros(rho.shape + (model.d + 2,))
    q[..., 0], q[..., -1] = rho, eint
    lam = eos.invert(model, q)
    psi, _, hess = eos.moments(model, lam)
    lam4 = lam[..., -1]
    p = psi / lam4
    h00, h04, h44 = hess[..., 0, 0], hess[..., 0, -1], hess[..., -1, -1]
    jac_t = np.stack([np.stack([h00, -h04], axis=-1), np.stack([h04, -h44], axis=-1)], axis=-2)
    grad_lam = np.stack([rho / lam4, -(eint + p) / lam4], axis=-1)
    dp = np.linalg.solve(jac_t, grad_lam[..., None])[..., 0]
    values = (p, dp[..., 0], dp[..., 1])
    return tuple(map(float, values)) if np.ndim(p) == 0 else values


@pytest.fixture
def direct_closure():
    """The stateless direct closure oracle, direct_closure(model, rho, e_int)."""
    return _direct_closure
