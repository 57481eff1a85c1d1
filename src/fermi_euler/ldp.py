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
solved by the same damped Newton; the truncated sup uses projected Newton
with an active set and a coordinate-search fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eos
from .errors import NoConvergence, OutOfDomain
from .eos import ConservedVector, EosModel, MultiplierVector


@dataclass(frozen=True)
class RateEvaluation:
    """One rate-function evaluation: the entropy piece, the rate, and the
    multiplier achieving the sup."""

    q_prime: ConservedVector
    lam: MultiplierVector
    s_value: float
    rate: float
    maximizer: MultiplierVector


def entropy_s(
    model: EosModel,
    q_prime: ConservedVector,
    initial_guess: MultiplierVector | None = None,
) -> tuple[float, MultiplierVector]:
    """Legendre entropy s(q') and its maximizer.

    The first-order condition of the sup is dual_q(lam) = q', so the
    maximizer is the dual inversion of q'.
    """
    lam_star = eos.invert_to_multipliers(model, q_prime, initial_guess, rtol=1e-10)
    s_val = lam_star.pair(q_prime) - eos.pressure_psi(model, lam_star)
    return float(s_val), lam_star


def rate_I(
    model: EosModel,
    q_prime: ConservedVector,
    lam: MultiplierVector,
    initial_guess: MultiplierVector | None = None,
    psi_lam: float | None = None,
) -> RateEvaluation:
    """Rate function I(q', lam) = s(q') + psi(lam) - lam . q'.

    A scan over q' at fixed lam passes psi_lam = psi(lam), evaluated once,
    and the previous point's maximizer as initial_guess."""
    s_val, lam_star = entropy_s(model, q_prime, initial_guess)
    if psi_lam is None:
        psi_lam = eos.pressure_psi(model, lam)
    rate = s_val + psi_lam - lam.pair(q_prime)
    return RateEvaluation(
        q_prime=q_prime, lam=lam, s_value=s_val, rate=float(rate), maximizer=lam_star
    )


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

    # exact branch: unconstrained maximizer strictly inside the box
    try:
        s_free, lam_free = entropy_s(model, q_prime)
        x_free = lam_free.as_array()
        if np.all(x_free > lo + 1e-9) and np.all(x_free < hi - 1e-9):
            return float(s_free + eos.pressure_psi(model, lam) - lam.pair(q_prime))
        x0 = np.clip(x_free, lo + 1e-9, hi - 1e-9)
    except (NoConvergence, OutOfDomain):
        x0 = np.clip(lam.as_array(), lo + 1e-9, hi - 1e-9)

    s_eta = _box_maximize(model, y, lo, hi, x0)
    return float(s_eta + eos.pressure_psi(model, lam) - lam.pair(q_prime))


def _objective(model: EosModel, y: np.ndarray, x: np.ndarray) -> float:
    return float(x @ y - eos.pressure_psi(model, MultiplierVector.from_array(x)))


def _box_maximize(model, y, lo, hi, x0, max_iter=100) -> float:
    """Maximize x.y - psi(x) over the box by projected Newton; falls back to
    coordinate search if the Newton phase stalls."""
    x = x0.copy()
    f_val = _objective(model, y, x)
    edge = 1e-12 * (hi - lo)
    for _ in range(max_iter):
        lam_x = MultiplierVector.from_array(x)
        grad = y - eos.dual_q(model, lam_x).signed()
        at_lo = x <= lo + edge
        at_hi = x >= hi - edge
        # freeze coordinates pinned against their bound by the gradient
        frozen = (at_lo & (grad < 0)) | (at_hi & (grad > 0))
        free = ~frozen
        g_free = grad[free]
        if g_free.size == 0 or np.max(np.abs(g_free)) < 1e-11 * max(1.0, np.abs(y).max()):
            return f_val
        H = eos.hessian_psi(model, lam_x)[np.ix_(free, free)]
        try:
            step_free = np.linalg.solve(H, g_free)
        except np.linalg.LinAlgError:
            step_free = g_free
        step = np.zeros_like(x)
        step[free] = step_free
        improved = False
        t = 1.0
        for _halving in range(50):
            trial = np.clip(x + t * step, lo, hi)
            f_trial = _objective(model, y, trial)
            if f_trial > f_val:
                x, f_val = trial, f_trial
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return _coordinate_search(model, y, lo, hi, x, f_val)


def _coordinate_search(model, y, lo, hi, x, f_val, sweeps=60) -> float:
    """Golden-section sweeps along each coordinate; robust concave fallback."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(sweeps):
        moved = 0.0
        for i in range(x.size):
            a, b = lo[i], hi[i]
            xa, xb = x.copy(), x.copy()
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            for _g in range(60):
                xa[i], xb[i] = c, d
                if _objective(model, y, xa) < _objective(model, y, xb):
                    a = c
                else:
                    b = d
                c = b - invphi * (b - a)
                d = a + invphi * (b - a)
                if b - a < 1e-12 * max(1.0, abs(hi[i])):
                    break
            new_xi = 0.5 * (a + b)
            moved = max(moved, abs(new_xi - x[i]))
            x[i] = new_xi
        f_val = _objective(model, y, x)
        if moved < 1e-12:
            break
    return f_val


def hessian_rate(model: EosModel, q_prime: ConservedVector) -> np.ndarray:
    """Hessian of I in q' (independent of lam): the Hessian of s, which is
    D (Hess psi(lam*))^-1 D at the maximizer lam*, with D = diag(1, ..., 1, -1)
    turning the signed pairing into the plain one."""
    _, lam_star = entropy_s(model, q_prime)
    D = np.ones(model.d + 2)
    D[-1] = -1.0
    H = D[:, None] * np.linalg.inv(eos.hessian_psi(model, lam_star)) * D
    return 0.5 * (H + H.T)
