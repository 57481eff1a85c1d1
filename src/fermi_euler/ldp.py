"""Legendre entropy and large-deviation rate functions.

With the signed pairing lam . q = lam0*rho + lam_mom.mom - lam4*e, the
entropy of a density vector q' is the convex conjugate of the pressure,

    s(q') = sup_lam [ lam . q' - psi(lam) ],

and the rate function governing density fluctuations in the Gibbs state
with multipliers lam is

    I(q', lam) = s(q') + psi(lam) - lam . q',

nonnegative, vanishing exactly at q' = dual_q(lam), with positive-definite
Hessian in q' at that point.  The box-truncated variant restricts the sup
to |xi_mu| <= 1/eta for the number/momentum components and
eta <= xi_4 <= 1/eta, which leaves I unchanged near the minimum.

The unconstrained sup shares its maximizer with the dual inversion and is
solved by the same damped Newton, one cell at a time (`entropy_s`,
`rate_I`) or for a whole array of densities at once (`rates`); the
truncated sup is a projected Newton on the coordinates not held at a bound,
stopped by the KKT conditions.
"""

from __future__ import annotations

import numpy as np

from . import eos
from .errors import NoConvergence, OutOfDomain
from .eos import ConservedVector, EosModel, MultiplierVector


def entropy_s(model: EosModel, q_prime: ConservedVector) -> tuple[float, MultiplierVector]:
    """Legendre entropy s(q') and its maximizer.

    The first-order condition of the sup is dual_q(lam) = q', so the
    maximizer is the dual inversion of q'.
    """
    lam_star = eos.invert_to_multipliers(model, q_prime)
    s_val = lam_star.pair(q_prime) - eos.pressure_psi(model, lam_star)
    return float(s_val), lam_star


def rate_I(model: EosModel, q_prime: ConservedVector, lam: MultiplierVector) -> float:
    """Rate function I(q', lam) = s(q') + psi(lam) - lam . q'."""
    s_val = entropy_s(model, q_prime)[0]
    return float(s_val + eos.pressure_psi(model, lam) - lam.pair(q_prime))


def rates(model: EosModel, q_prime, lam: MultiplierVector) -> np.ndarray:
    """I(q', lam) for an array of densities q' (..., d+2), ordered
    (rho, mom..., e): one batched inversion, one `eos.moments` call at the
    maximizers and psi(lam) once.  NaN wherever `rate_I` raises: q' outside
    the dualizable region, or its inversion not converged."""
    q = np.asarray(q_prime, dtype=float)
    lam_star, _, converged = eos.invert_cells(model, q)
    psi_star = np.full(q.shape[:-1], np.nan)
    psi_star[converged] = eos.moments(model, lam_star[converged])[0]
    sign = np.ones(model.d + 2)
    sign[-1] = -1.0  # the signed pairing
    s_val = np.sum(lam_star * q * sign, axis=-1) - psi_star
    return s_val + eos.pressure_psi(model, lam) - q @ (lam.as_array() * sign)


def rate_I_truncated(
    model: EosModel,
    q_prime: ConservedVector,
    lam: MultiplierVector,
    eta: float,
) -> float:
    """Box-truncated rate: the sup defining s(q') restricted to the eta box.

    Always <= I; equal to I whenever the unconstrained maximizer is interior
    to the box; convex in q' as a sup of affine functions.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta = {eta} must lie in (0, 1)")
    y = q_prime.signed()
    n = model.d + 2
    lo = np.concatenate([np.full(n - 1, -1.0 / eta), [eta]])
    hi = np.full(n, 1.0 / eta)
    psi_lam = eos.pressure_psi(model, lam)

    # exact branch: unconstrained maximizer strictly inside the box
    try:
        s_free, lam_free = entropy_s(model, q_prime)
        x_free = lam_free.as_array()
        if np.all(x_free > lo + 1e-9) and np.all(x_free < hi - 1e-9):
            return float(s_free + psi_lam - lam.pair(q_prime))
        x0 = np.clip(x_free, lo + 1e-9, hi - 1e-9)
    except (NoConvergence, OutOfDomain):
        x0 = np.clip(lam.as_array(), lo + 1e-9, hi - 1e-9)

    s_eta = _box_maximize(model, y, lo, hi, x0)[0]
    return float(s_eta + psi_lam - lam.pair(q_prime))


def _box_maximize(model, y, lo, hi, x):
    """Maximize f(x) = x.y - psi(x) over the box lo <= x <= hi by projected
    Newton on the coordinates not held at a bound; returns (f, x) at the
    maximizer.

    A coordinate is held when it sits at a bound and the gradient y - grad
    psi pushes it outwards; the KKT conditions hold once the gradient of the
    others (the projected gradient) is within 1e-11 of |y|.  Each trial point
    costs one `eos.moments` call, which gives psi, its gradient and its
    Hessian together.  Raises NoConvergence, with the projected-gradient
    residual, when the line search cannot raise f while the KKT conditions
    still fail."""
    psi, grad_psi, hess = eos.moments(model, x)
    f_val = x @ y - psi
    edge = 1e-12 * (hi - lo)
    tol = 1e-11 * max(1.0, np.abs(y).max())
    for _ in range(100):
        grad = y - grad_psi
        held = ((x <= lo + edge) & (grad < 0)) | ((x >= hi - edge) & (grad > 0))
        free = ~held
        residual = np.max(np.abs(grad[free]), initial=0.0)
        if residual <= tol:
            return f_val, x
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(hess[np.ix_(free, free)], grad[free])
        t = 1.0
        for _halving in range(50):
            trial = np.clip(x + t * step, lo, hi)
            psi, trial_grad, trial_hess = eos.moments(model, trial)
            f_trial = trial @ y - psi
            if f_trial > f_val:
                x, f_val, grad_psi, hess = trial, f_trial, trial_grad, trial_hess
                break
            t *= 0.5
        else:
            break
    raise NoConvergence(
        f"box-truncated sup stalled at projected-gradient residual {residual:.3e}",
        residual=residual,
    )


def hessian_rate(model: EosModel, q_prime: ConservedVector) -> np.ndarray:
    """Hessian of I in q' (independent of lam): the Hessian of s, which is
    D (Hess psi(lam*))^-1 D at the maximizer lam*, with D = diag(1, ..., 1, -1)
    turning the signed pairing into the plain one."""
    _, lam_star = entropy_s(model, q_prime)
    D = np.ones(model.d + 2)
    D[-1] = -1.0
    H = D[:, None] * np.linalg.inv(eos.hessian_psi(model, lam_star)) * D
    return 0.5 * (H + H.T)
