"""Free-Fermi-gas thermodynamics.

The grand-canonical pressure functional for spinless free fermions with
dispersion p^2/2 and Lagrange multipliers lam = (lam0, lam_mom, lam4),

    psi(lam) = (2*pi)^-d * Integral dp log(1 + exp(lam0 + lam_mom.p - lam4*|p|^2/2)),

over either all of momentum space (UNBOUNDED) or the Brillouin zone
(-pi, pi]^d (BRILLOUIN, matching the microscopic spectral grid).  The
conserved densities are the gradient of psi with the signed pairing

    lam . q = lam0*rho + lam_mom.mom - lam4*e,

so rho = d(psi)/d(lam0), mom_j = d(psi)/d(lam_j) and e = -d(psi)/d(lam4),
keeping the energy density positive.

One kernel, `moments`, gives psi, the signed densities and the Hessian of
psi for a whole array of multipliers of shape (..., d+2), and one damped
Newton, `invert`, solves the dual map for a whole array of densities
(`invert_cells` reports the cells it rejects instead of raising).  On
the Brillouin zone both are the bz_nodes rectangle rule: one exponent, one
Fermi function and one product with the fixed moment basis (1, p, -|p|^2/2).
On the unbounded domain completing the square shows that psi depends on
(lam0, lam_mom) only through the rest-frame exponent
z = lam0 + |lam_mom|^2/(2*lam4): each moment is a fixed Gauss-Legendre
rule in the rest-frame radius, one function of z per moment, and the chain
rule.  The scalar functions (`pressure_psi`, `dual_q`, `hessian_psi`,
`invert_to_multipliers`) run the same code on one cell.  The rest-frame
pressure closure P(rho, e_int), the virial residual, and the tabulated
closure for the Euler solver also live here: a tensor Chebyshev
interpolant of P on a (rho, e_int) rectangle, built by a DCT-II of P at
Chebyshev points (`chebyshev_coefficients`, shared with the Fermi-operator
expansion in micro), with its derivative series for the partials.  One
`PressureClosure` call gives a state's P, dP/drho and dP/de_int together.

Conventions: physical parameters are beta = lam4, alpha_j = lam_j/lam4,
mu = lam0/lam4; spinless (no degeneracy factor); hbar = m = 1.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebder

from .errors import NoConvergence, NonFinite, NonpositiveBeta, OutOfDomain

UNBOUNDED = "unbounded"
BRILLOUIN = "brillouin"


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
        if not all(map(math.isfinite, (self.lam0, *self.lam_mom, self.lam4))):
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
    round-off.  The unbounded domain uses a fixed three-panel Gauss-Legendre
    rule in the rest-frame radius and has no parameter.
    """

    d: int = 1
    domain: str = UNBOUNDED
    bz_nodes: int = 0  # 0 -> per-dimension default

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


@lru_cache(maxsize=8)
def _bz_basis(d: int, n: int):
    """Moment basis b(p) = (1, p, -|p|^2/2) at the n^d zone nodes, shape
    (n^d, d+2), and the products b_i b_j (i <= j) of its pairs.

    The exponent is g(p) = lam . b(p), the signed densities are the zone
    mean of f b and the Hessian entries the zone mean of f(1-f) b_i b_j."""
    p1 = brillouin_momenta(n)
    grids = np.meshgrid(*([p1] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    basis = np.concatenate([np.ones((pts.shape[0], 1)), pts, -0.5 * np.sum(pts**2, axis=-1)[:, None]],
                           axis=1)
    i, j = np.triu_indices(d + 2)
    return basis, basis[:, i] * basis[:, j], (i, j)


def _log1pexp(g: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """log(1 + e^g) = max(g, 0) + log1p(e^-|g|) into out, with tmp as work."""
    np.abs(g, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(g, 0.0, out=tmp)
    return out


def _fermi(g: np.ndarray, f: np.ndarray, hole: np.ndarray):
    """(f, 1 - f) into f and hole for the Fermi function f = 1/(1 + e^-g),
    with 1 - f as e^-g f so that both keep full relative precision; g is cut
    at -700, where f < 1e-304 already."""
    np.maximum(g, -700.0, out=hole)
    np.negative(hole, out=hole)
    np.exp(hole, out=hole)
    np.add(hole, 1.0, out=f)
    np.reciprocal(f, out=f)
    hole *= f
    return f, hole


def fermi(x) -> np.ndarray:
    """The Fermi factor 1/(1 + e^-x) elementwise, as `_fermi` computes f,
    with x cut to [-700, 700] first: within 1e-304 of 0 or 1 past the cut,
    and no exp over- or underflows.  For callers outside the kernel."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -700.0, 700.0)))


# Work arrays of the kernel's blocks and of `EosTable.evaluate`: one flat
# buffer per thread, grown to the largest request and reused by every later
# call.  Arrays of a block's size sit above glibc's mmap threshold, so
# allocating them afresh would map and zero-fill new pages on every block.
# The buffer starts on a 64-byte cache line: glibc's mmap'd chunks start 16
# bytes past one, where every 64-byte vector load straddles two lines, and
# there the table's recurrence ran 20% slower on an AVX-512 Xeon.
_SCRATCH = threading.local()


def _scratch(count: int, shape: tuple) -> tuple:
    """count C-contiguous float arrays of `shape` in this thread's scratch
    buffer, their contents undefined, valid until the thread's next call.
    The arrays of the last call are handed out again when the next asks for
    the same, so a run of one-cell evaluations slices nothing."""
    work = getattr(_SCRATCH, "work", ())
    if len(work) == count and work[0].shape == shape:
        return work
    size = count * math.prod(shape)
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < size:
        raw = np.empty(size + 8)
        skip = -raw.ctypes.data % 64 // 8
        buf = _SCRATCH.buf = raw[skip:skip + size]
    work = _SCRATCH.work = tuple(buf[:size].reshape((count,) + shape))
    return work


# ---------------------------------------------------------------------------
# the moment kernel
# ---------------------------------------------------------------------------

# Cells are evaluated in blocks of about _BLOCK_ELEMENTS quadrature points,
# so the few (cells x nodes) temporaries of a block stay near 1 MiB in all.
_BLOCK_ELEMENTS = 1 << 15

# Unbounded rule: Gauss-Legendre nodes per panel in u = sqrt(s), and the
# panel end s = max(z, 0) + _TAIL beyond which w(z - s) < e^-45.  The
# poles of w(z - u^2) at u = sqrt(z -+ i pi) sit pi/(2 sqrt z) off the real
# axis at the Fermi edge u = sqrt(z), so the panel ending there has width
# sqrt(z) - sqrt(max(z - _TAIL, z/2)), which shrinks like that offset as z
# grows.  Against the Fermi-Dirac integrals (d = 1, 2, 3, every moment) the
# three 48-node panels reach 2.7e-14 relative for z in [-40, 45], 8.4e-14 up
# to z = 1000 and 4e-13 at z = 1e5; two 64-node panels split only at sqrt(z)
# are off by 3.5e-5 at z = 500 and 1.7e-3 at z = 1000.
_GL_NODES = 48
_TAIL = 45.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _bz_block(model: EosModel, lam: np.ndarray, psi, grad, hess, work):
    """Brillouin-zone rectangle rule for one block of cells, with three
    (cells, nodes) work arrays for its temporaries."""
    basis, pairs, (i, j) = _bz_basis(model.d, model.bz_nodes)
    w = 1.0 / basis.shape[0]
    g, a, b = work
    np.matmul(lam, basis.T, out=g)
    if psi is not None:
        psi[:] = np.sum(_log1pexp(g, a, b), axis=1) * w
    if grad is None and hess is None:
        return
    f, f_hole = _fermi(g, a, b)
    if grad is not None:
        grad[:] = f @ basis * w
    if hess is None:
        return
    f_hole *= f
    upper = f_hole @ pairs * w
    hess[:, i, j] = upper
    hess[:, j, i] = upper


def _unbounded_block(model: EosModel, lam: np.ndarray, psi, grad, hess, work):
    """Rest-frame moments on the whole momentum space for one block of cells,
    with six (cells, nodes) work arrays for its temporaries.

    Completing the square, psi depends on (lam0, lam_mom) only through
    z = lam0 + |lam_mom|^2/(2 lam4), and with s = lam4 |p|^2/2 every moment
    is C(d, k, lam4) * J_a(z), J_a(z) = Integral_0^inf s^a w(z - s) ds,
    a = d/2 - 1 + k, w one of log(1+e^g), f, f(1-f).  J_a is computed by a
    fixed Gauss-Legendre rule in u = sqrt(s) (integrand 2 u^(2a+1) w(z - u^2),
    smooth) on three panels, the middle one ending at the Fermi edge
    u = sqrt(z)."""
    d = model.d
    u, weight, s, g, a, b = work
    lam0, m, lam4 = lam[:, 0], lam[:, 1:-1], lam[:, -1]
    msq = np.sum(m * m, axis=1)
    z = lam0 + 0.5 * msq / lam4
    zp = np.maximum(z, 0.0)
    inner = np.sqrt(np.maximum(z - _TAIL, 0.5 * zp))[:, None]
    edge = np.sqrt(zp)[:, None]
    ends = [0.0, inner, edge, np.sqrt(zp + _TAIL)[:, None]]
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        panel = slice(k * _GL_NODES, (k + 1) * _GL_NODES)
        np.multiply(hi - lo, _GL_X, out=u[:, panel])
        u[:, panel] += lo
        np.multiply(hi - lo, _GL_W, out=weight[:, panel])
    np.multiply(u, u, out=s)
    np.subtract(z[:, None], s, out=g)
    # 2 u^(d-1) du: the a = d/2 - 1 measure; each further s raises k by one
    np.power(u, d - 1, out=a)
    a *= 2.0
    weight *= a
    # C(d, k, lam4) = (2 pi)^-d S_{d-1} 2^(d/2 - 1) lam4^-(d/2 + k)
    c0 = _SPHERE_AREA[d] * 2.0 ** (0.5 * d - 1.0) / (2.0 * np.pi) ** d * lam4 ** (-0.5 * d)
    if psi is not None:
        psi[:] = c0 * np.sum(np.multiply(weight, _log1pexp(g, a, b), out=a), axis=1)
    if grad is None and hess is None:
        return
    f, f_hole = _fermi(g, a, b)
    wf = np.multiply(weight, f, out=u)
    rho = c0 * np.sum(wf, axis=1)
    alpha = m / lam4[:, None]
    if grad is not None:
        # boost: mom = alpha rho, e = e_rest + |alpha|^2 rho / 2
        e_rest = c0 / lam4 * np.sum(np.multiply(wf, s, out=g), axis=1)
        grad[:, 0] = rho
        grad[:, 1:-1] = alpha * rho[:, None]
        grad[:, -1] = -(e_rest + 0.5 * np.sum(alpha * alpha, axis=1) * rho)
    if hess is None:
        return
    wf *= f_hole
    F0 = c0 * np.sum(wf, axis=1)
    wf *= s
    F1 = c0 / lam4 * np.sum(wf, axis=1)
    F2 = c0 / lam4**2 * np.sum(np.multiply(wf, s, out=g), axis=1)
    # Psi(z, lam4): Psi_zz = F0, Psi_z4 = -F1, Psi_44 = F2; chain rule through
    # dz/dm = m/lam4 = alpha, dz/dlam4 = -|m|^2/(2 lam4^2)
    a_4 = -0.5 * msq / lam4**2
    h04 = F0 * a_4 - F1
    hess[:, 0, 0] = F0
    hess[:, 0, 1:-1] = F0[:, None] * alpha
    hess[:, 0, -1] = h04
    hess[:, 1:-1, 1:-1] = F0[:, None, None] * alpha[:, :, None] * alpha[:, None, :] + (
        rho / lam4
    )[:, None, None] * np.eye(d)
    hess[:, 1:-1, -1] = (h04 - rho / lam4)[:, None] * alpha
    hess[:, -1, -1] = h04 * a_4 - F1 * a_4 + F2 + rho * msq / lam4**3
    hess[:, 1:-1, 0] = hess[:, 0, 1:-1]
    hess[:, -1, 0] = h04
    hess[:, -1, 1:-1] = hess[:, 1:-1, -1]


def _evaluate(model: EosModel, lam: np.ndarray, want_psi: bool, want_grad: bool,
              want_hess: bool):
    """psi (N,), signed densities (N, d+2) and Hessians (N, d+2, d+2) at the
    multipliers lam (N, d+2), each None unless asked for (and not computed:
    each is a further pass over the quadrature points); cells run in blocks
    of about _BLOCK_ELEMENTS quadrature points, whose temporaries live in the
    thread's scratch buffer."""
    n_cells, n = lam.shape
    psi = np.empty(n_cells) if want_psi else None
    grad = np.empty((n_cells, n)) if want_grad else None
    hess = np.empty((n_cells, n, n)) if want_hess else None
    if model.domain == BRILLOUIN:
        block, nodes, n_work = _bz_block, model.bz_nodes**model.d, 3
    else:
        block, nodes, n_work = _unbounded_block, 3 * _GL_NODES, 6
    size = max(1, _BLOCK_ELEMENTS // nodes)
    rows = min(size, n_cells)
    work = _scratch(n_work, (rows, nodes))
    for lo in range(0, n_cells, size):
        cut = slice(lo, lo + size)
        cells = lam[cut]
        block(model, cells,
              None if psi is None else psi[cut],
              None if grad is None else grad[cut],
              None if hess is None else hess[cut],
              work if len(cells) == rows else [w[:len(cells)] for w in work])
    return psi, grad, hess


def _cells(model: EosModel, arr, what: str) -> np.ndarray:
    """arr as a float array of shape (N, d+2)."""
    arr = np.asarray(arr, dtype=float)
    if arr.shape[-1:] != (model.d + 2,):
        raise ValueError(f"{what} of shape {arr.shape} do not end in d + 2 = {model.d + 2}")
    return arr.reshape(-1, model.d + 2)


def moments(model: EosModel, lam, psi: bool = True, grad: bool = True, hess: bool = True):
    """(psi, signed densities, Hess psi) at multipliers lam of shape
    (..., d+2), ordered (lam0, lam_mom..., lam4): shapes (...), (..., d+2)
    and (..., d+2, d+2), each None where its flag is False.  The signed
    densities (rho, mom, -e) are the gradient of psi.  Raises NonFinite or
    NonpositiveBeta naming the cell."""
    shape = np.shape(lam)[:-1]
    flat = _cells(model, lam, "multipliers")
    finite = np.all(np.isfinite(flat), axis=1)
    if not np.all(finite):
        j = int(np.argmin(finite))
        raise NonFinite(f"cell {j}: non-finite multipliers {flat[j]}")
    if np.any(flat[:, -1] <= 0.0):
        j = int(np.argmax(flat[:, -1] <= 0.0))
        raise NonpositiveBeta(f"cell {j}: lam4 = {flat[j, -1]} must be > 0")
    n = model.d + 2
    out = _evaluate(model, flat, psi, grad, hess)
    return tuple(None if v is None else v.reshape(shape + (n,) * k) for k, v in enumerate(out))


# ---------------------------------------------------------------------------
# pressure and dual map at one multiplier vector
# ---------------------------------------------------------------------------


def pressure_psi(model: EosModel, lam: MultiplierVector) -> float:
    """Dimensionless pressure psi(lam) = beta * P."""
    _check(model, lam)
    return float(_evaluate(model, lam.as_array()[None], True, False, False)[0][0])


def dual_q(model: EosModel, lam: MultiplierVector) -> ConservedVector:
    """Conserved densities dual to lam: the gradient of psi under the signed
    pairing, computed as direct Fermi-function quadratures (on the unbounded
    domain in the rest frame, then boosted: mom = alpha rho,
    e = e_rest + |alpha|^2 rho / 2)."""
    _check(model, lam)
    signed = _evaluate(model, lam.as_array()[None], False, True, False)[1][0]
    return ConservedVector(rho=signed[0], mom=signed[1:-1], e=-signed[-1])


def hessian_psi(model: EosModel, lam: MultiplierVector) -> np.ndarray:
    """Second-derivative matrix of psi in the plain coordinates
    (lam0, lam_mom..., lam4); symmetric positive definite."""
    _check(model, lam)
    return _evaluate(model, lam.as_array()[None], False, False, True)[2][0]


def _check(model: EosModel, lam: MultiplierVector):
    if lam.d != model.d:
        raise ValueError(f"multiplier dimension {lam.d} != model dimension {model.d}")
    if lam.lam4 <= 0.0:
        raise NonpositiveBeta(f"lam4 = {lam.lam4} must be > 0")


# ---------------------------------------------------------------------------
# domain guard and inversion
# ---------------------------------------------------------------------------


def energy_floor(model: EosModel, rho):
    """Zero-temperature internal energy density at particle density rho."""
    if model.d == 1:
        return np.pi**2 * rho**3 / 6.0
    if model.d == 2:
        return np.pi * rho**2
    return 0.3 * (6.0 * np.pi**2) ** (2.0 / 3.0) * rho ** (5.0 / 3.0)


# The conditions of the dualizable region, in the order `invert` checks them:
# the error type and message of a cell that violates each.
_GUARD_ERRORS = (
    (NonFinite, "non-finite densities {q}"),
    (OutOfDomain, "rho = {rho} must be > 0"),
    (OutOfDomain, "rho = {rho} exceeds the filled-band density 1"),
    (OutOfDomain, "internal energy {eint:.6e} at or below the T=0 floor {floor:.6e}"),
)


def _guard(model: EosModel, q: np.ndarray):
    """Which cells of densities q (N, d+2) violate each condition of the
    dualizable region, (4, N) in the order of _GUARD_ERRORS: finite
    densities, rho > 0, below the filled band on the Brillouin zone and
    internal energy above the T=0 floor; and a function that gives the error
    of condition k at cell j."""
    violated = np.empty((4, len(q)), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = q[:, 0]
        eint = q[:, -1] - 0.5 * (q[:, 1:-1] ** 2).sum(axis=1) / rho
        floor = energy_floor(model, rho)
        np.logical_not(np.isfinite(q).all(axis=1), out=violated[0])
        np.less_equal(rho, 0.0, out=violated[1])
        np.greater_equal(rho, 1.0, out=violated[2])
        violated[2] &= model.domain == BRILLOUIN
        np.less_equal(eint, floor, out=violated[3])

    def error(k: int, j: int) -> Exception:
        kind, message = _GUARD_ERRORS[k]
        return kind(f"cell {j}: "
                    + message.format(q=q[j], rho=rho[j], eint=eint[j], floor=floor[j]))

    return violated, error


def _guess(model: EosModel, q: np.ndarray) -> np.ndarray:
    """Crossover initial multipliers for densities q (N, d+2): Sommerfeld
    near the T=0 floor (d = 1), classical when hot."""
    d = model.d
    rho, mom = q[:, 0], q[:, 1:-1]
    eint = q[:, -1] - 0.5 * np.sum(mom * mom, axis=1) / rho
    e0 = energy_floor(model, rho)
    cold = (eint < 2.5 * np.maximum(e0, 1e-300)) & (d == 1)
    p_f = np.pi * rho
    nu = 1.0 / (np.pi * np.maximum(p_f, 1e-12))  # 1D density of states at mu
    t_cold = np.sqrt(
        np.maximum(eint - e0, 1e-12 * np.maximum(e0, 1e-12)) * 6.0 / (np.pi**2 * nu)
    )
    t = 2.0 * eint / (d * rho)
    beta = np.where(cold, 1.0 / np.maximum(t_cold, 1e-8), 1.0 / t)
    mu = np.where(cold, 0.5 * p_f**2, t * (np.log(rho) + 0.5 * d * np.log(2.0 * np.pi / t)))
    beta = np.clip(beta, 1e-3, 1e6)
    return np.concatenate([(beta * mu)[:, None], beta[:, None] * (mom / rho[:, None]),
                           beta[:, None]], axis=1)


# Every inversion stops at this largest relative residual, within this many
# Newton steps.
_RTOL = 1e-10
_MAX_ITER = 100


# The index of every cell of a Newton pass: a slice, which gathers nothing.
_EVERY = slice(None)


def _where(mask: np.ndarray):
    """The indices of mask's true entries: _EVERY when all are."""
    return _EVERY if np.count_nonzero(mask) == len(mask) else np.flatnonzero(mask)


def _pick(index, within):
    """index[within] for indices that may be _EVERY."""
    if within is _EVERY:
        return index
    return within if index is _EVERY else index[within]


def _newton(model: EosModel, q: np.ndarray, lam: np.ndarray):
    """Damped Newton for dual_q(lam) = q over cells (N, d+2), in place on lam;
    returns lam and each cell's final largest relative residual.

    Each cell follows the scalar iteration on the strictly convex objective
    psi(lam) - lam.q: a full Newton step, halved while the largest relative
    residual does not decrease or lam4 leaves (0, inf).  A cell stops once
    its residual is within _RTOL; every evaluation gives the densities and
    the Hessian together.  The cells of a step still untaken have all been
    halved alike, so one factor t serves them all; and a set of cells that
    holds every cell of its pass (every live cell, every trial with lam4 > 0,
    every trial taken) is the whole-array slice, so a pass with nothing to
    drop gathers nothing."""
    y = q.copy()
    y[:, -1] *= -1.0  # gradient of psi at the solution
    size = np.abs(q)
    scale = np.maximum(np.maximum(size, 1e-3 * size.max(axis=1, keepdims=True)), 1e-300)
    _, grad, hess = _evaluate(model, lam, False, True, True)
    r = grad - y
    rel = (np.abs(r) / scale).max(axis=1)
    live = ~(rel <= _RTOL)
    for _ in range(_MAX_ITER):
        if not np.count_nonzero(live):
            break
        todo = _where(live)
        step = _solve(hess[todo], -r[todo])
        t = 1.0
        for _halving in range(60):
            # the cells of todo keep the multipliers this step started from
            trial = lam[todo] + t * step
            ok = _where(trial[:, -1] > 0.0)
            at = _pick(todo, ok)
            _, grad, trial_hess = _evaluate(model, trial[ok], False, True, True)
            r_new = grad - y[at]
            rel_new = (np.abs(r_new) / scale[at]).max(axis=1)
            better = _EVERY if t < 2e-16 else _where(rel_new < rel[at])
            took = _pick(ok, better)
            at = _pick(todo, took)
            lam[at], r[at], rel[at], hess[at] = (
                trial[took], r_new[better], rel_new[better], trial_hess[better]
            )
            if took is _EVERY:
                break
            keep = np.ones(len(step), dtype=bool)
            keep[took] = False
            todo, step, t = _pick(todo, np.flatnonzero(keep)), step[keep], 0.5 * t
        else:
            live[todo] = False  # stalled
        live &= ~(rel <= _RTOL)
    return lam, rel


def _solve(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Newton steps from stacked Hessians; least squares when one is singular."""
    try:
        return np.linalg.solve(hess, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return (np.linalg.pinv(hess) @ rhs[..., None])[..., 0]


def invert_cells(model: EosModel, q):
    """Per-cell outcome of one inversion of densities q (..., d+2), ordered
    (rho, mom..., e), from the crossover guess: (lam, inside, converged).
    `inside` (...) marks the cells in the dualizable region (finite, rho > 0,
    below the filled band on the Brillouin zone, internal energy above the
    T=0 floor), `converged` (...) those whose Newton reached the tolerance
    of `invert`; lam (..., d+2) is NaN wherever a cell is not converged."""
    shape = np.shape(q)
    flat = _cells(model, q, "densities")
    inside = ~_guard(model, flat)[0].any(axis=0)
    lam = np.full(flat.shape, np.nan)
    lam[inside], rel = _newton(model, flat[inside], _guess(model, flat[inside]))
    converged = inside.copy()
    converged[inside] = rel <= _RTOL
    lam[~converged] = np.nan
    return lam.reshape(shape), inside.reshape(shape[:-1]), converged.reshape(shape[:-1])


def _invert(model: EosModel, q: np.ndarray, guess, shape: tuple) -> np.ndarray:
    """`invert` on densities q (N, d+2), given to it in this shape: the
    multipliers (N, d+2)."""
    violated, error = _guard(model, q)
    if violated.any():
        k = int(violated.any(axis=1).argmax())
        raise error(k, int(violated[k].argmax()))
    lam = _guess(model, q) if guess is None else _cells(model, guess, "multipliers").copy()
    if lam.shape != q.shape:
        raise ValueError(f"guess of shape {np.shape(guess)} does not match densities {shape}")
    lam, rel = _newton(model, q, lam)
    if not (rel <= _RTOL).all():
        j = int((~(rel <= _RTOL)).argmax())
        raise NoConvergence(
            f"cell {j}: Newton inversion stalled at relative residual {rel[j]:.3e} "
            f"(rtol {_RTOL:.1e})",
            residual=rel[j],
        )
    return lam


def invert(model: EosModel, q, guess=None):
    """Multipliers lam (..., d+2) with dual_q(lam) = q for densities q of
    shape (..., d+2), ordered (rho, mom..., e), by one damped Newton over
    all cells (see `_newton`) to relative residual 1e-10 in at most 100
    steps; starts from `guess` (same shape) or the crossover guess.  Raises
    NonFinite, OutOfDomain or NoConvergence naming the first offending cell."""
    shape = np.shape(q)
    return _invert(model, _cells(model, q, "densities"), guess, shape).reshape(shape)


def invert_to_multipliers(
    model: EosModel,
    target: ConservedVector,
    initial_guess: MultiplierVector | None = None,
) -> MultiplierVector:
    """Solve dual_q(lam) = target by damped Newton on the strictly convex
    objective psi(lam) - lam.target (the Legendre sup shares this maximizer);
    `invert` for one cell."""
    q = target.as_array()[None]
    guess = None if initial_guess is None else initial_guess.as_array()[None]
    return MultiplierVector.from_array(_invert(model, q, guess, q.shape)[0])


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

# Chebyshev points per axis of a closure table whose config names none.
TABLE_RESOLUTION = (48, 48)

# A table keeps, along each axis, the degrees up to the last one with a
# coefficient above _TABLE_FLOOR times the largest.  Past it they are
# round-off, 2e-17 to 7e-17 of the largest on the benchmark's rectangle
# [0.15, 0.21] x [0.035, 0.065] (40 x 40 points), cut to degree 14 x 16.
_TABLE_FLOOR = 1e-15


def chebyshev_points(n: int) -> np.ndarray:
    """The n first-kind Chebyshev points cos(pi (j + 1/2) / n), descending."""
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def chebyshev_coefficients(y, axis: int = -1) -> np.ndarray:
    """Coefficients c_0..c_{n-1} in T_m of the interpolant of samples y at
    the n points `chebyshev_points(n)` along `axis`: a DCT-II of the
    samples, by one FFT of their even extension.  (numpy's `chebinterpolate`
    builds T_m(x_j) by the recurrence and leaves ~1e-15 of round-off in
    every coefficient, more than the tails a degree is cut by.)"""
    y = np.moveaxis(np.asarray(y, dtype=float), axis, -1)
    n = y.shape[-1]
    spec = np.fft.fft(np.concatenate((y, y[..., ::-1]), axis=-1))[..., :n]
    coef = (np.exp(-0.5j * np.pi * np.arange(n) / n) * spec).real / n
    coef[..., 0] *= 0.5
    return np.moveaxis(coef, -1, axis)


@dataclass(frozen=True)
class EosTable:
    """Tensor Chebyshev interpolant of the rest pressure over a (rho, e_int)
    rectangle.

    coef[k, i, j] multiplies T_i(x) T_j(y) in P (k = 0), dP/drho (k = 1)
    and dP/de_int (k = 2), with x and y the affine maps of rho_range and
    eint_range onto [-1, 1]; the partials are P's `chebder` series, so one
    pass gives all three.  evaluate() raises OutOfDomain outside the stored
    ranges and NonFinite on non-finite input, naming the index.
    """

    d: int
    domain: str
    rho_range: tuple
    eint_range: tuple
    coef: np.ndarray = field(repr=False, compare=False)  # (3, degree_rho + 1, degree_eint + 1)

    def _guard(self, rho, eint):
        rho = np.asarray(rho, dtype=float)
        eint = np.asarray(eint, dtype=float)
        finite = np.isfinite(rho) & np.isfinite(eint)
        if not np.all(finite):
            raise NonFinite(f"non-finite (rho, e_int) at index {int(np.argmin(finite))}")
        for name, vals, (lo, hi) in (("rho", rho, self.rho_range), ("e_int", eint, self.eint_range)):
            outside = np.ravel((vals < lo) | (vals > hi))
            if np.any(outside):
                i = int(np.argmax(outside))
                raise OutOfDomain(
                    f"{name} = {float(np.ravel(vals)[i])!r} at index {i} outside the "
                    f"tabulated range [{lo!r}, {hi!r}]"
                )
        return np.broadcast_arrays(rho, eint)

    def evaluate(self, rho, eint):
        """(P, dP/drho, dP/de_int) at (rho, e_int): one Chebyshev recurrence
        over both scaled arguments, then one product with the stacked
        coefficients."""
        rho, eint = self._guard(rho, eint)
        n_rho, n_eint = self.coef.shape[1:]
        # t[m] = (T_m(x), T_m(y)) at every point, then the product below, in
        # the thread's scratch buffer
        n_t, n_pts = max(n_rho, n_eint), rho.size
        work = _scratch(1, (2 * n_t + 3 * n_rho, n_pts))[0]
        t = work[:2 * n_t].reshape(n_t, 2, n_pts)
        t[0] = 1.0
        for arg, vals, (lo, hi) in zip(t[1], (rho, eint), (self.rho_range, self.eint_range)):
            np.multiply(vals.ravel() - 0.5 * (lo + hi), 2.0 / (hi - lo), out=arg)
        x = 2.0 * t[1]
        for m in range(2, t.shape[0]):
            np.multiply(x, t[m - 1], out=t[m])
            t[m] -= t[m - 2]
        # sum_j coef[k, i, j] T_j(y), then its products with T_i(x) summed over i
        out = work[2 * n_t:]
        np.matmul(self.coef.reshape(-1, n_eint), t[:n_eint, 1], out=out)
        out = out.reshape(3, n_rho, n_pts)
        out *= t[:n_rho, 0]
        return tuple(out.sum(axis=1).reshape((3,) + rho.shape))


def _lagrange_weights(nodes: np.ndarray, x: float) -> np.ndarray:
    """The weights at x of the polynomial through values at the k nodes."""
    return np.array([math.prod((x - b) / (a - b) for b in nodes if b != a) for a in nodes])


def _extrapolate(weights: np.ndarray, lam: np.ndarray) -> MultiplierVector:
    """The polynomial through the multipliers lam (k, d+2) at k nodes, by its
    Lagrange weights at the next node, or lam[-1] where that has lam4 <= 0.
    From four neighbours a node's Newton takes 2.05 kernel evaluations, from
    one 3.97 (40 x 40 table)."""
    guess = np.dot(weights, lam)
    return MultiplierVector.from_array(guess if guess[-1] > 0.0 else lam[-1])


def tabulate(
    model: EosModel,
    rho_range: tuple[float, float],
    eint_range: tuple[float, float],
    resolution: tuple[int, int] = TABLE_RESOLUTION,
) -> EosTable:
    """Tabulate P over a (rho, e_int) rectangle at resolution Chebyshev
    points per axis.

    Each point is inverted by `invert_to_multipliers`, warm-started by
    extrapolation from up to four neighbours; one batched Newton step on
    all of them then takes the inversions to round-off, and P = psi/lam4.  The coefficients come from
    a DCT-II along each axis, cut past the last degree above _TABLE_FLOOR
    of the largest.  The whole rectangle must sit inside the one-phase
    domain: the low edge of eint_range must clear the T=0 floor at the high
    edge of rho_range, and on the Brillouin zone the high edge must stay
    below the infinite-temperature energy rho * mean_k |p_k|^2/2 at the low
    edge of rho_range.
    """
    rho_lo, rho_hi = rho_range
    eint_lo, eint_hi = eint_range
    if not (rho_lo < rho_hi and eint_lo < eint_hi and min(resolution) >= 2):
        raise ValueError(f"empty rectangle {rho_range} x {eint_range} or resolution {resolution}")
    if rho_lo <= 0.0:
        raise OutOfDomain("rho range must be strictly positive")
    if model.domain == BRILLOUIN and rho_hi >= 1.0:
        raise OutOfDomain("rho range reaches the filled band")
    if eint_lo <= energy_floor(model, rho_hi):
        raise OutOfDomain(
            f"eint range dips below the T=0 floor {energy_floor(model, rho_hi):.6e}"
        )
    if model.domain == BRILLOUIN:
        hot = rho_lo * 0.5 * model.d * np.mean(brillouin_momenta(model.bz_nodes) ** 2)
        if eint_hi >= hot:
            raise OutOfDomain(f"eint range reaches the infinite-temperature energy {hot:.6e} "
                              f"at rho = {rho_lo}")
    n_rho, n_eint = resolution
    rho = 0.5 * (rho_lo + rho_hi) + 0.5 * (rho_hi - rho_lo) * chebyshev_points(n_rho)
    eint = 0.5 * (eint_lo + eint_hi) + 0.5 * (eint_hi - eint_lo) * chebyshev_points(n_eint)
    # warm start: the multipliers extrapolated from this column's last rows
    # (along the first row, from its last points), whose weights depend only
    # on the node's index along that axis
    w_rho, w_eint = ([_lagrange_weights(x[max(k - 4, 0):k], x[k]) for k in range(1, len(x))]
                     for x in (rho, eint))
    mom = np.zeros(model.d)
    lam = np.empty((n_rho, n_eint, model.d + 2))
    for i in range(n_rho):
        for j in range(n_eint):
            if i:
                guess = _extrapolate(w_rho[i - 1], lam[max(i - 4, 0):i, j])
            elif j:
                guess = _extrapolate(w_eint[j - 1], lam[0, max(j - 4, 0):j])
            else:
                guess = None
            q = ConservedVector(rho=rho[i], mom=mom, e=eint[j])
            lam[i, j] = invert_to_multipliers(model, q, guess).as_array()
    target = np.zeros_like(lam)
    target[..., 0] = rho[:, None]
    target[..., -1] = -eint
    _, grad, hess = moments(model, lam, psi=False)
    lam -= _solve(hess, grad - target)
    p = moments(model, lam, grad=False, hess=False)[0] / lam[..., -1]
    c = chebyshev_coefficients(chebyshev_coefficients(p, axis=0), axis=1)
    size = np.abs(c)
    above = [np.flatnonzero(size.max(axis=other) > _TABLE_FLOOR * size.max()) for other in (1, 0)]
    # at least degree 1 per axis, where the recurrence in `evaluate` starts
    c = c[: max(above[0][-1], 1) + 1, : max(above[1][-1], 1) + 1]
    coef = np.zeros((3,) + c.shape)
    coef[0] = c
    coef[1, :-1] = chebder(c, scl=2.0 / (rho_hi - rho_lo), axis=0)
    coef[2, :, :-1] = chebder(c, scl=2.0 / (eint_hi - eint_lo), axis=1)
    return EosTable(d=model.d, domain=model.domain, rho_range=(float(rho_lo), float(rho_hi)),
                    eint_range=(float(eint_lo), float(eint_hi)), coef=coef)


class PressureClosure:
    """The Euler solver's closure: closure(rho, e_int) is the triple
    (P, dP/drho, dP/de_int), floats for scalar input.  Table-backed by
    default (the Chebyshev interpolant and its derivative series, one
    `EosTable.evaluate`), direct Newton evaluation when validating (the
    rest-frame inversion and its exact response).

    The table path holds no state.  The direct path inverts all points in
    one batch and keeps their multipliers to start the next call: use one
    direct instance per thread."""

    def __init__(self, model: EosModel, table: EosTable | None = None):
        self.model = model
        self.table = table
        self._guess = None

    def __call__(self, rho, eint):
        if self.table is not None:
            values = self.table.evaluate(rho, eint)
        else:
            values = self._direct(np.asarray(rho, dtype=float), np.asarray(eint, dtype=float))
        return tuple(map(float, values)) if np.ndim(values[0]) == 0 else values

    def _direct(self, rho: np.ndarray, eint: np.ndarray):
        """Rest-frame multipliers of every point by one `invert`, started
        from the previous call's multipliers when the points are as many;
        P = psi/lam4 and the exact partials from the 2x2 rest-frame response
        d(rho, e)/d(lam0, lam4) = [[H00, H04], [-H04, -H44]] and
        dP = (rho dlam0 - (e_int + P) dlam4) / lam4."""
        q = np.zeros(rho.shape + (self.model.d + 2,))
        q[..., 0], q[..., -1] = rho, eint
        guess = self._guess if self._guess is not None and self._guess.shape == q.shape else None
        lam = invert(self.model, q, guess)
        self._guess = lam
        psi, _, hess = moments(self.model, lam)
        lam4 = lam[..., -1]
        p = psi / lam4
        h00, h04, h44 = hess[..., 0, 0], hess[..., 0, -1], hess[..., -1, -1]
        jac_t = np.stack([np.stack([h00, -h04], axis=-1), np.stack([h04, -h44], axis=-1)], axis=-2)
        grad_lam = np.stack([rho / lam4, -(eint + p) / lam4], axis=-1)
        dp = np.linalg.solve(jac_t, grad_lam[..., None])[..., 0]
        return p, dp[..., 0], dp[..., 1]
