"""Free-Fermi-gas thermodynamics.

The grand-canonical pressure functional for spinless free fermions with
dispersion p^2/2 and Lagrange multipliers lam = (lam0, lam_mom, lam4),

    psi(lam) = (2*pi)^-d * Integral dp log(1 + exp(lam0 + lam_mom.p - lam4*|p|^2/2)),

over either all of momentum space (UNBOUNDED) or the Brillouin zone
(-pi, pi]^d (BRILLOUIN, matching the microscopic spectral grid).  The
conserved densities are the gradient of psi with the signed pairing

    lam . q = lam0*rho + lam_mom.mom - lam4*e,

so rho = d(psi)/d(lam0), mom_j = d(psi)/d(lam_j) and e = -d(psi)/d(lam4),
keeping the energy density positive.  On the unbounded domain completing
the square shows that psi depends on (lam0, lam_mom) only through the
rest-frame exponent z = lam0 + |lam_mom|^2/(2*lam4): in every dimension psi,
the densities and the Hessian come from radial rest-frame quadratures in
(z, lam4) and the chain rule.  Inversion of the dual map, the
rest-frame pressure closure P(rho, e_int), the virial residual, and a
tabulated closure for the Euler solver all live here.

Conventions: physical parameters are beta = lam4, alpha_j = lam_j/lam4,
mu = lam0/lam4; spinless (no degeneracy factor); hbar = m = 1.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.interpolate import BSpline, RectBivariateSpline
from scipy.special import expit

from .errors import NoConvergence, NonFinite, NonpositiveBeta, OutOfDomain, QuadratureFailure

UNBOUNDED = "unbounded"
BRILLOUIN = "brillouin"

# log(1+e^g) < 1e-18 once g < _G_FLOOR; used to cut off unbounded quadratures
_G_FLOOR = -42.0

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierVector:
    """The five Lagrange multipliers (three in 1D): lam0 = beta*mu,
    lam_mom = beta*alpha, lam4 = beta > 0."""

    lam0: float
    lam_mom: np.ndarray
    lam4: float

    def __post_init__(self):
        object.__setattr__(self, "lam_mom", np.atleast_1d(np.asarray(self.lam_mom, dtype=float)))
        if not np.all(np.isfinite(self.as_array())):
            raise ValueError("multiplier components must be finite")
        if self.lam4 <= 0.0:
            raise NonpositiveBeta(f"lam4 = {self.lam4} must be > 0")

    @property
    def d(self) -> int:
        return self.lam_mom.size

    @property
    def beta(self) -> float:
        return self.lam4

    @property
    def alpha(self) -> np.ndarray:
        return self.lam_mom / self.lam4

    @property
    def mu(self) -> float:
        return self.lam0 / self.lam4

    @classmethod
    def from_physical(cls, beta: float, alpha, mu: float) -> "MultiplierVector":
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        return cls(lam0=beta * mu, lam_mom=beta * alpha, lam4=beta)

    def as_array(self) -> np.ndarray:
        """Pack as (lam0, lam_mom..., lam4)."""
        return np.concatenate(([self.lam0], self.lam_mom, [self.lam4]))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "MultiplierVector":
        arr = np.asarray(arr, dtype=float)
        return cls(lam0=float(arr[0]), lam_mom=arr[1:-1].copy(), lam4=float(arr[-1]))

    def pair(self, q: "ConservedVector") -> float:
        """Signed pairing lam . q = lam0*rho + lam_mom.mom - lam4*e."""
        return float(self.lam0 * q.rho + self.lam_mom @ q.mom - self.lam4 * q.e)


@dataclass(frozen=True)
class ConservedVector:
    """Particle, momentum and energy densities per unit volume."""

    rho: float
    mom: np.ndarray
    e: float

    def __post_init__(self):
        object.__setattr__(self, "mom", np.atleast_1d(np.asarray(self.mom, dtype=float)))

    @property
    def d(self) -> int:
        return self.mom.size

    @property
    def velocity(self) -> np.ndarray:
        return self.mom / self.rho

    @property
    def e_internal(self) -> float:
        """Rest-frame internal energy e - |mom|^2 / (2 rho)."""
        return float(self.e - 0.5 * (self.mom @ self.mom) / self.rho)

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.rho], self.mom, [self.e]))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ConservedVector":
        arr = np.asarray(arr, dtype=float)
        return cls(rho=float(arr[0]), mom=arr[1:-1].copy(), e=float(arr[-1]))

    def signed(self) -> np.ndarray:
        """(rho, mom, -e): the gradient of psi in plain lam coordinates."""
        return np.concatenate(([self.rho], self.mom, [-self.e]))


@dataclass(frozen=True)
class EosModel:
    """Quadrature recipe for one (dimension, momentum-domain) pair.

    bz_nodes is the per-axis trapezoid node count on the Brillouin zone;
    the nodes are exactly the lattice momenta 2*pi*k/n in (-pi, pi], so an
    EosModel with bz_nodes = L reproduces microscopic lattice sums to
    round-off.  quad_rtol drives the adaptive quadrature on the unbounded
    domain.
    """

    d: int = 1
    domain: str = UNBOUNDED
    bz_nodes: int = 0  # 0 -> per-dimension default
    quad_rtol: float = 1e-11

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2 or 3")
        if self.domain not in (UNBOUNDED, BRILLOUIN):
            raise ValueError(f"unknown momentum domain {self.domain!r}")
        if self.bz_nodes == 0:
            object.__setattr__(self, "bz_nodes", {1: 2048, 2: 128, 3: 48}[self.d])


def brillouin_momenta(n: int) -> np.ndarray:
    """Single-axis momenta 2*pi*k/n mapped to (-pi, pi], in FFT index order
    (Nyquist assigned to +pi for even n)."""
    k = np.arange(n)
    k = np.where(k <= n // 2, k, k - n)
    if n % 2 == 0:
        k[n // 2] = n // 2
    return 2.0 * np.pi * k / n


@lru_cache(maxsize=32)
def _bz_grid(d: int, n: int):
    """Flattened momentum grid over (-pi, pi]^d: (points (n^d, d), |p|^2 (n^d,))."""
    p1 = brillouin_momenta(n)
    grids = np.meshgrid(*([p1] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return pts, np.sum(pts**2, axis=-1)


def _log1pexp(g: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, g)


# ---------------------------------------------------------------------------
# quadrature backends
# ---------------------------------------------------------------------------


def _quad(fun, a: float, b: float, rtol: float, points=None) -> float:
    """Adaptive quadrature with failure detection."""
    if b <= a:
        return 0.0
    pts = None
    if points is not None:
        pts = sorted(p for p in points if a < p < b)
        if not pts:
            pts = None
    with warnings.catch_warnings():
        # roundoff chatter near 1e-16 relative accuracy; we check the error
        # estimate ourselves below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(fun, a, b, epsabs=1e-300, epsrel=rtol, limit=300, points=pts)
    if err > max(10.0 * rtol * abs(val), 1e-12):
        raise QuadratureFailure(
            f"quadrature error estimate {err:.3e} exceeds tolerance for value {val:.6e}"
        )
    return val


def _radial_moment(d: int, lt0: float, lam4: float, kind: str, k: int, rtol: float) -> float:
    """(2*pi)^-d * S_{d-1} * Integral r^{d-1} (r^2/2)^k w(r) dr for the
    rest-frame exponent lt0 - lam4 r^2/2; kind in {"log", "f", "fisher"}.

    Every unbounded moment in d = 1, 2, 3 is one of these: S_0 = 2 folds
    the even 1D integrand onto the half line."""
    area = _SPHERE_AREA[d]

    def wfun(r):
        g = lt0 - 0.5 * lam4 * r * r
        if kind == "log":
            w = _log1pexp(g)
        elif kind == "f":
            w = expit(g)
        else:
            w = expit(g) * expit(-g)
        return r ** (d - 1) * (0.5 * r * r) ** k * w

    rmax = np.sqrt(max(2.0 * (lt0 - _G_FLOOR) / lam4, 1e-12))
    points = []
    if lt0 > 0:
        points = [np.sqrt(2.0 * lt0 / lam4)]
    val = _quad(wfun, 0.0, rmax, rtol, points=points)
    return area * val / (2.0 * np.pi) ** d


def _rest_frame(lam: MultiplierVector):
    """Boosted exponent completed to a square: lt0 = lam0 + |lam_mom|^2/(2 lam4)."""
    return lam.lam0 + 0.5 * float(lam.lam_mom @ lam.lam_mom) / lam.lam4


def _bz_weights(model: EosModel, lam: MultiplierVector):
    pts, psq = _bz_grid(model.d, model.bz_nodes)
    g = lam.lam0 + pts @ lam.lam_mom - 0.5 * lam.lam4 * psq
    return pts, psq, g


# ---------------------------------------------------------------------------
# pressure and dual map
# ---------------------------------------------------------------------------


def pressure_psi(model: EosModel, lam: MultiplierVector) -> float:
    """Dimensionless pressure psi(lam) = beta * P."""
    _check(model, lam)
    if model.domain == BRILLOUIN:
        _, _, g = _bz_weights(model, lam)
        return float(np.mean(_log1pexp(g)))
    # completing the square makes the unbounded integral boost invariant:
    # integrate radially in the rest frame
    return _radial_moment(model.d, _rest_frame(lam), lam.lam4, "log", 0, model.quad_rtol)


def dual_q(model: EosModel, lam: MultiplierVector) -> ConservedVector:
    """Conserved densities dual to lam: the gradient of psi under the signed
    pairing, computed as direct Fermi-function quadratures (on the unbounded
    domain in the rest frame, then boosted: mom = alpha rho,
    e = e_rest + |alpha|^2 rho / 2)."""
    _check(model, lam)
    if model.domain == BRILLOUIN:
        pts, psq, g = _bz_weights(model, lam)
        f = expit(g)
        w = 1.0 / f.size
        rho = float(np.sum(f) * w)
        mom = pts.T @ f * w
        e = float(np.sum(0.5 * psq * f) * w)
        return ConservedVector(rho=rho, mom=mom, e=e)
    lt0 = _rest_frame(lam)
    rho = _radial_moment(model.d, lt0, lam.lam4, "f", 0, model.quad_rtol)
    e_rest = _radial_moment(model.d, lt0, lam.lam4, "f", 1, model.quad_rtol)
    alpha = lam.alpha
    return ConservedVector(rho=rho, mom=alpha * rho, e=e_rest + 0.5 * float(alpha @ alpha) * rho)


def hessian_psi(model: EosModel, lam: MultiplierVector) -> np.ndarray:
    """Second-derivative matrix of psi in the plain coordinates
    (lam0, lam_mom..., lam4); symmetric positive definite."""
    _check(model, lam)
    d = model.d
    n = d + 2
    H = np.empty((n, n))
    if model.domain == BRILLOUIN:
        pts, psq, g = _bz_weights(model, lam)
        fw = expit(g) * expit(-g)
        w = 1.0 / fw.size
        # moment vectors (1, p_j, -p^2/2) paired with themselves
        basis = np.concatenate(
            [np.ones((fw.size, 1)), pts, -0.5 * psq[:, None]], axis=1
        )
        H[:] = (basis * fw[:, None]).T @ basis * w
        return H
    # unbounded: the rest-frame reduction and the chain rule
    lt0 = _rest_frame(lam)
    lam4 = lam.lam4
    m = lam.lam_mom
    rho = _radial_moment(d, lt0, lam4, "f", 0, model.quad_rtol)
    F0 = _radial_moment(d, lt0, lam4, "fisher", 0, model.quad_rtol)
    F1 = _radial_moment(d, lt0, lam4, "fisher", 1, model.quad_rtol)
    F2 = _radial_moment(d, lt0, lam4, "fisher", 2, model.quad_rtol)
    # Psi(lt0, lam4): Psi_a = rho, Psi_aa = F0, Psi_ab = -F1, Psi_bb = F2
    # lt0(lam) = lam0 + |m|^2/(2 lam4): d(lt0)/dm = m/lam4, d(lt0)/dlam4 = -|m|^2/(2 lam4^2)
    a_m = m / lam4
    a_4 = -0.5 * float(m @ m) / lam4**2
    H[0, 0] = F0
    H[0, 1 : d + 1] = F0 * a_m
    H[0, -1] = F0 * a_4 - F1
    H[1 : d + 1, 1 : d + 1] = F0 * np.outer(a_m, a_m) + rho / lam4 * np.eye(d)
    H[1 : d + 1, -1] = (F0 * a_4 - F1) * a_m - rho * m / lam4**2
    H[-1, -1] = (F0 * a_4 - F1) * a_4 - F1 * a_4 + F2 + rho * float(m @ m) / lam4**3
    H[1 : d + 1, 0] = H[0, 1 : d + 1]
    H[-1, 0] = H[0, -1]
    H[-1, 1 : d + 1] = H[1 : d + 1, -1]
    return H


def _check(model: EosModel, lam: MultiplierVector):
    if lam.d != model.d:
        raise ValueError(f"multiplier dimension {lam.d} != model dimension {model.d}")
    if lam.lam4 <= 0.0:
        raise NonpositiveBeta(f"lam4 = {lam.lam4} must be > 0")


# ---------------------------------------------------------------------------
# domain guard and inversion
# ---------------------------------------------------------------------------


def energy_floor(model: EosModel, rho: float) -> float:
    """Zero-temperature internal energy density at particle density rho."""
    if model.d == 1:
        return np.pi**2 * rho**3 / 6.0
    if model.d == 2:
        return np.pi * rho**2
    return 0.3 * (6.0 * np.pi**2) ** (2.0 / 3.0) * rho ** (5.0 / 3.0)


def check_domain(model: EosModel, q: ConservedVector):
    """Raise OutOfDomain unless q is strictly inside the dualizable region."""
    if not np.all(np.isfinite(q.as_array())):
        raise NonFinite(f"non-finite densities {q.as_array()}")
    if q.rho <= 0.0:
        raise OutOfDomain(f"rho = {q.rho} must be > 0")
    if model.domain == BRILLOUIN and q.rho >= 1.0:
        raise OutOfDomain(f"rho = {q.rho} exceeds the filled-band density 1")
    floor = energy_floor(model, q.rho)
    if q.e_internal <= floor:
        raise OutOfDomain(
            f"internal energy {q.e_internal:.6e} at or below the T=0 floor {floor:.6e}"
        )


def default_guess(model: EosModel, q: ConservedVector) -> MultiplierVector:
    """Crossover initial guess: Sommerfeld near the T=0 floor, classical when hot."""
    d = model.d
    rho, eint = q.rho, q.e_internal
    e0 = energy_floor(model, rho)
    if eint < 2.5 * max(e0, 1e-300) and d == 1:
        p_f = np.pi * rho
        mu = 0.5 * p_f**2
        nu = 1.0 / (np.pi * max(p_f, 1e-12))  # 1D density of states at mu
        t = np.sqrt(max(eint - e0, 1e-12 * max(e0, 1e-12)) * 6.0 / (np.pi**2 * nu))
        beta = 1.0 / max(t, 1e-8)
    else:
        t = 2.0 * eint / (d * rho)
        beta = 1.0 / t
        mu = t * (np.log(rho) + 0.5 * d * np.log(2.0 * np.pi / t))
    beta = float(np.clip(beta, 1e-3, 1e6))
    alpha = q.velocity
    return MultiplierVector.from_physical(beta, alpha, float(mu))


def invert_to_multipliers(
    model: EosModel,
    target: ConservedVector,
    initial_guess: MultiplierVector | None = None,
    rtol: float = 1e-9,
    max_iter: int = 100,
) -> MultiplierVector:
    """Solve dual_q(lam) = target by damped Newton on the strictly convex
    objective psi(lam) - lam.target (the Legendre sup shares this maximizer)."""
    check_domain(model, target)
    if initial_guess is None:
        initial_guess = default_guess(model, target)

    y = target.signed()  # gradient of psi at the solution
    scale = np.maximum(np.abs(target.as_array()), 1e-3 * np.max(np.abs(target.as_array())))

    lam_arr = initial_guess.as_array().copy()

    def resid(arr):
        q = dual_q(model, MultiplierVector.from_array(arr))
        return q.signed() - y

    r = resid(lam_arr)
    rel = np.max(np.abs(r) / np.maximum(scale, 1e-300))
    for _ in range(max_iter):
        if rel <= rtol:
            return MultiplierVector.from_array(lam_arr)
        H = hessian_psi(model, MultiplierVector.from_array(lam_arr))
        try:
            step = np.linalg.solve(H, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, -r, rcond=None)[0]
        # damping: halve on non-decrease of the residual or on leaving lam4 > 0
        t = 1.0
        for _halving in range(60):
            trial = lam_arr + t * step
            if trial[-1] > 0.0:
                try:
                    r_new = resid(trial)
                except QuadratureFailure:
                    r_new = None
                if r_new is not None:
                    rel_new = np.max(np.abs(r_new) / np.maximum(scale, 1e-300))
                    if rel_new < rel or t < 2e-16:
                        lam_arr, r, rel = trial, r_new, rel_new
                        break
            t *= 0.5
        else:
            break
    if rel <= rtol:
        return MultiplierVector.from_array(lam_arr)
    raise NoConvergence(
        f"Newton inversion stalled at relative residual {rel:.3e} (rtol {rtol:.1e})",
        residual=rel,
    )


def rest_pressure(
    model: EosModel,
    q: ConservedVector,
    initial_guess: MultiplierVector | None = None,
) -> float:
    """Pressure closure P(rho, e_int): fit rest-frame multipliers to
    (rho, 0, e - |mom|^2/(2 rho)) and return psi/beta there.  Galilean
    invariant by construction."""
    check_domain(model, q)
    rest = ConservedVector(rho=q.rho, mom=np.zeros(model.d), e=q.e_internal)
    if initial_guess is not None:
        guess = MultiplierVector.from_physical(
            initial_guess.beta, np.zeros(model.d), initial_guess.mu
        )
    else:
        guess = None
    lam = invert_to_multipliers(model, rest, guess)
    return pressure_psi(model, lam) / lam.lam4


def rest_multipliers(
    model: EosModel, q: ConservedVector, initial_guess: MultiplierVector | None = None
) -> MultiplierVector:
    """Rest-frame multipliers fitted to (rho, 0, e_int); helper for closures."""
    check_domain(model, q)
    rest = ConservedVector(rho=q.rho, mom=np.zeros(model.d), e=q.e_internal)
    return invert_to_multipliers(model, rest, initial_guess)


def virial_gap(model: EosModel, lam: MultiplierVector) -> float:
    """Residual of the free-gas virial identity
    2*(e_kin - |alpha|^2 rho / 2) - d*P; vanishes for W = 0."""
    q = dual_q(model, lam)
    p = pressure_psi(model, lam) / lam.lam4
    alpha = lam.alpha
    e_gauge = q.e - 0.5 * float(alpha @ alpha) * q.rho
    return float(2.0 * e_gauge - model.d * p)


# ---------------------------------------------------------------------------
# tabulated closure
# ---------------------------------------------------------------------------

_TABLE_FORMAT = "fermi-euler-eos-table"
_TABLE_VERSION = 1


def _cell_taylor(knots: np.ndarray):
    """Left edges of the nonempty intervals of a cubic spline's knot vector
    and the Taylor coefficients of its basis functions there, shape
    (4, n_intervals, n_basis): on interval i, B_j(x) = sum_m T[m, i, j] (x - edge_i)^m."""
    edges = np.unique(knots)[:-1]
    basis = BSpline(knots, np.eye(knots.size - 4), 3)
    return edges, np.stack([basis(edges, nu=m) / math.factorial(m) for m in range(4)])


@dataclass(frozen=True)
class EosTable:
    """Cubic-spline table of the rest pressure over (rho, e_int).

    Immutable after construction; evaluate(), pressure() and partials()
    interpolate, raising OutOfDomain outside the tabulated rectangle.  The
    interpolating spline is held as one bicubic polynomial per knot cell,
    so a single pass gives P and both partials.
    """

    d: int
    domain: str
    rho_grid: np.ndarray
    eint_grid: np.ndarray
    p_grid: np.ndarray        # shape (n_rho, n_eint)
    # (rho edges, e_int edges, coefficients [cell, n, m] of v^n u^m), with
    # u, v the offsets from the cell's lower corner
    _cells: tuple = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        spline = RectBivariateSpline(self.rho_grid, self.eint_grid, self.p_grid, kx=3, ky=3)
        tx, ty, c = spline.tck
        rho_edges, tr = _cell_taylor(tx)
        eint_edges, te = _cell_taylor(ty)
        coef = np.einsum("mip,pq,njq->ijnm", tr, c.reshape(tx.size - 4, ty.size - 4), te)
        object.__setattr__(self, "_cells", (rho_edges, eint_edges, coef.reshape(-1, 4, 4)))

    def _guard(self, rho, eint):
        rho = np.asarray(rho, dtype=float)
        eint = np.asarray(eint, dtype=float)
        finite = np.isfinite(rho) & np.isfinite(eint)
        if not np.all(finite):
            raise NonFinite(f"non-finite (rho, e_int) at index {int(np.argmin(finite))}")
        if np.any(rho < self.rho_grid[0]) or np.any(rho > self.rho_grid[-1]):
            raise OutOfDomain("rho outside tabulated range")
        if np.any(eint < self.eint_grid[0]) or np.any(eint > self.eint_grid[-1]):
            raise OutOfDomain("e_int outside tabulated range")
        return rho, eint

    def evaluate(self, rho, eint):
        """(P, dP/drho, dP/de_int) of the spline, Horner-evaluated on the
        bicubic piece of each point's knot cell."""
        rho, eint = self._guard(rho, eint)
        rho_edges, eint_edges, coef = self._cells
        i = np.clip(np.searchsorted(rho_edges, rho, side="right") - 1, 0, rho_edges.size - 1)
        j = np.clip(np.searchsorted(eint_edges, eint, side="right") - 1, 0, eint_edges.size - 1)
        u = rho - rho_edges[i]
        v = (eint - eint_edges[j])[..., None]
        a = coef[i * eint_edges.size + j]
        # coefficients of u^m after summing over the powers of v, and of dv
        av = ((a[..., 3, :] * v + a[..., 2, :]) * v + a[..., 1, :]) * v + a[..., 0, :]
        dav = (3.0 * a[..., 3, :] * v + 2.0 * a[..., 2, :]) * v + a[..., 1, :]
        p = ((av[..., 3] * u + av[..., 2]) * u + av[..., 1]) * u + av[..., 0]
        dp_drho = (3.0 * av[..., 3] * u + 2.0 * av[..., 2]) * u + av[..., 1]
        dp_deint = ((dav[..., 3] * u + dav[..., 2]) * u + dav[..., 1]) * u + dav[..., 0]
        return p, dp_drho, dp_deint

    def pressure(self, rho, eint):
        out = self.evaluate(rho, eint)[0]
        return float(out) if out.ndim == 0 else out

    def partials(self, rho, eint):
        return self.evaluate(rho, eint)[1:]

    def save(self, path) -> None:
        payload = {
            "format": _TABLE_FORMAT,
            "version": _TABLE_VERSION,
            "header": {
                "d": self.d,
                "domain": self.domain,
                "rho_range": [self.rho_grid[0], self.rho_grid[-1]],
                "eint_range": [self.eint_grid[0], self.eint_grid[-1]],
                "resolution": [len(self.rho_grid), len(self.eint_grid)],
            },
            "rho_grid": self.rho_grid.tolist(),
            "eint_grid": self.eint_grid.tolist(),
            "p_grid": self.p_grid.ravel().tolist(),
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path) -> "EosTable":
        payload = json.loads(Path(path).read_text())
        if payload.get("format") != _TABLE_FORMAT:
            raise ValueError(f"{path}: not an EOS table file")
        if payload.get("version") != _TABLE_VERSION:
            raise ValueError(f"{path}: unsupported table version {payload.get('version')}")
        shape = tuple(payload["header"]["resolution"])
        return cls(
            d=payload["header"]["d"],
            domain=payload["header"]["domain"],
            rho_grid=np.asarray(payload["rho_grid"]),
            eint_grid=np.asarray(payload["eint_grid"]),
            p_grid=np.asarray(payload["p_grid"]).reshape(shape),
        )


def _rest_partials(model: EosModel, lam: MultiplierVector, rho, eint, p):
    """Exact partials (dP/drho, dP/de_int) of the rest pressure p = psi/lam4
    at the rest-frame multipliers lam fitted to (rho, e_int), from the 2x2
    rest-frame response d(rho, e)/d(lam0, lam4) = [[H00, H04], [-H04, -H44]]
    and dP = (rho dlam0 - (e_int + P) dlam4) / lam4."""
    H = hessian_psi(model, lam)
    jac = np.array([[H[0, 0], H[0, -1]], [-H[0, -1], -H[-1, -1]]])
    grad_lam = np.array([rho / lam.lam4, -(eint + p) / lam.lam4])
    return np.linalg.solve(jac.T, grad_lam)


def tabulate(
    model: EosModel,
    rho_range: tuple[float, float],
    eint_range: tuple[float, float],
    resolution: tuple[int, int] = (48, 48),
) -> EosTable:
    """Tabulate P over a (rho, e_int) rectangle.

    The whole rectangle must sit inside the one-phase domain, i.e. the low
    edge of eint_range must clear the T=0 floor at the high edge of rho_range.
    """
    rho_lo, rho_hi = rho_range
    eint_lo, eint_hi = eint_range
    if rho_lo <= 0.0:
        raise OutOfDomain("rho range must be strictly positive")
    if model.domain == BRILLOUIN and rho_hi >= 1.0:
        raise OutOfDomain("rho range reaches the filled band")
    if eint_lo <= energy_floor(model, rho_hi):
        raise OutOfDomain(
            f"eint range dips below the T=0 floor {energy_floor(model, rho_hi):.6e}"
        )
    n_rho, n_eint = resolution
    rho_grid = np.linspace(rho_lo, rho_hi, n_rho)
    eint_grid = np.linspace(eint_lo, eint_hi, n_eint)
    p = np.empty((n_rho, n_eint))
    guess = None
    for i, rho in enumerate(rho_grid):
        row_guess = guess
        for j, eint in enumerate(eint_grid):
            q = ConservedVector(rho=rho, mom=np.zeros(model.d), e=eint)
            lam = invert_to_multipliers(model, q, row_guess)
            row_guess = lam
            if j == 0:
                guess = lam  # warm start for the next rho row
            p[i, j] = pressure_psi(model, lam) / lam.lam4
    return EosTable(
        d=model.d, domain=model.domain, rho_grid=rho_grid, eint_grid=eint_grid, p_grid=p
    )


class PressureClosure:
    """Callable P(rho, e_int) for the Euler solver, with `partials` giving
    (dP/drho, dP/de_int) of the same surface: table-backed by default (the
    spline), direct Newton evaluation when validating (the rest-frame
    inversion and its exact response).

    Both paths evaluate P and its partials together and remember the last
    evaluation, so the partials at the points of a pressure just computed
    cost nothing more; the direct path also keeps a warm-start multiplier
    between calls.  Use one instance per thread."""

    def __init__(self, model: EosModel, table: EosTable | None = None):
        self.model = model
        self.table = table
        self._guess = None
        self._last = None  # ((rho, e_int), (P, dP/drho, dP/de_int)) of the last evaluation

    def __call__(self, rho, eint):
        p = self._evaluate(rho, eint)[0]
        return float(p) if np.ndim(p) == 0 else p.copy()

    def partials(self, rho, eint):
        """(dP/drho, dP/de_int) at (rho, e_int)."""
        _, dp_drho, dp_deint = self._evaluate(rho, eint)
        if np.ndim(dp_drho) == 0:
            return float(dp_drho), float(dp_deint)
        return dp_drho.copy(), dp_deint.copy()

    def _evaluate(self, rho, eint):
        points = (np.array(rho, dtype=float), np.array(eint, dtype=float))
        if self._last is not None and all(map(np.array_equal, points, self._last[0])):
            return self._last[1]
        if self.table is not None:
            values = self.table.evaluate(*points)
        else:
            values = self._direct(*points)
        self._last = (points, values)
        return values

    def _direct(self, rho: np.ndarray, eint: np.ndarray):
        values = np.empty((3,) + rho.shape)
        for idx in np.ndindex(rho.shape):
            q = ConservedVector(rho=rho[idx], mom=np.zeros(self.model.d), e=eint[idx])
            lam = invert_to_multipliers(self.model, q, self._guess)
            self._guess = lam
            p = pressure_psi(self.model, lam) / lam.lam4
            dp = _rest_partials(self.model, lam, rho[idx], eint[idx], p)
            values[(slice(None), *idx)] = (p, *dp)
        return tuple(values)
