"""Exact microscopic side: quasi-free fermions on a 1D periodic lattice.

A quasi-free state on L sites is fully described by its correlation matrix
C(x, y) = <a+_y a_x>.  The free dynamics is diagonal in momentum, so the
module computes only in the momentum representation: a state holds

    Chat = W C W+,   W[k, x] = exp(-2 pi i k x / L) / sqrt(L),

with momenta p_k = 2*pi*k/L mapped to (-pi, pi] (Nyquist mode at +pi) and
dispersion eps_k = p_k^2/2.  Position-space C is derived on demand, for the
snapshot writer and the dense test oracles only.

Observables are Hermitian momentum-space symbols,

    <O_x> = (1/L) sum_{k,q} S(k, q) Chat[k, q] exp(i (p_k - p_q) x),

with S = 1 for particle density, (p_k+p_q)/2 for momentum density,
p_k p_q / 2 for kinetic-energy density, and the current symbols listed in
`currents`.  Each field is the sum of S * Chat over the wrapped diagonals
q - k = j (mod L), then one 1D FFT over j.  With spectral derivatives the
free continuity equations hold to round-off, which is what makes every
identity check in the test suite sharp.

Local Gibbs states carry slowly varying multiplier fields: the one-particle
exponent is K = L0 + (L1 P + P L1)/2 - D+ L4 D / 2 with L^mu = diag(lam^mu),
built directly as Khat from the Fourier coefficients of the three fields,
and Chat = (1 + exp(-Khat))^-1.  Time evolution is the exact conjugation by
exp(-i t h1), h1 = -Laplacian/2, an elementwise phase
e^{-i t eps_k} e^{+i t eps_q} on Chat (sign pinned by the drift check in the
tests: a state of positive momentum drifts toward larger x).

Also here: the smooth high-momentum cutoff filter, the partition-of-unity
coarse-graining window, the quasi-free relative entropy (in closed form
against a local Gibbs reference) and its production rate along the
evolution, and the cutoff/moment assumption checks.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import eigh
from scipy.linalg.blas import zherk
from scipy.special import expit

from .eos import brillouin_momenta
from .errors import (
    BadWindow,
    CutoffTooLarge,
    MomentDiverges,
    NonFinite,
    NonpositiveBeta,
    SingularReference,
)

logger = logging.getLogger(__name__)

SPECTRUM_TOL = 1e-10
HERM_TOL = 1e-12
EIG_CLIP = 1e-12


# ---------------------------------------------------------------------------
# lattice and transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """Periodic 1D lattice of L sites with spectral momenta in (-pi, pi]."""

    L: int

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("need at least two sites")

    @property
    def epsilon(self) -> float:
        return 1.0 / self.L

    @cached_property
    def sites(self) -> np.ndarray:
        return np.arange(self.L)

    @cached_property
    def momenta(self) -> np.ndarray:
        """FFT-index-ordered momenta 2*pi*k/L in (-pi, pi], Nyquist at +pi."""
        return brillouin_momenta(self.L)

    @property
    def nyquist_index(self) -> int | None:
        return self.L // 2 if self.L % 2 == 0 else None

    @cached_property
    def dispersion(self) -> np.ndarray:
        return 0.5 * self.momenta**2

    @cached_property
    def partner_momenta(self) -> np.ndarray:
        """Read-only view Q[k, j] = p_{(k + j) mod L}: the momentum q that k
        meets on the wrapped diagonal q - k = j (no L x L copy)."""
        p2 = np.concatenate((self.momenta, self.momenta))
        step = p2.strides[0]
        return as_strided(p2, shape=(self.L, self.L), strides=(step, step), writeable=False)


def to_momentum(c: np.ndarray) -> np.ndarray:
    """Chat = W C W+ for the unitary DFT (O(L^2 log L))."""
    return np.fft.ifft(np.fft.fft(c, axis=0), axis=1)


def to_position(chat: np.ndarray) -> np.ndarray:
    """C = W+ Chat W."""
    return np.fft.ifft(np.fft.fft(chat, axis=1), axis=0)


def _circulant(c: np.ndarray) -> np.ndarray:
    """Read-only view M[k, q] = c[(k - q) mod L] (no L x L copy)."""
    L = c.size
    ext = np.concatenate((c[::-1], c[:0:-1]))  # ext[i] = c[(L - 1 - i) mod L]
    step = ext.strides[0]
    return as_strided(ext[L - 1:], shape=(L, L), strides=(-step, step), writeable=False)


def _skew(chat: np.ndarray) -> np.ndarray:
    """S[k, j] = chat[k, (k + j) mod L]: row k rotated left by k, so column j
    holds the wrapped diagonal q - k = j."""
    L = chat.shape[0]
    out = np.empty_like(chat)
    for k in range(L):
        out[k, : L - k] = chat[k, k:]
        out[k, L - k:] = chat[k, :k]
    return out


def _site_field(diagonal_sums: np.ndarray) -> np.ndarray:
    """Per-site field (1/L) sum_j E[j] e^{-2 pi i j x / L} from the sums E[j]
    of symbol * Chat over the wrapped diagonals q - k = j."""
    return _real_field(np.fft.fft(diagonal_sums) / diagonal_sums.size)


def _real_field(values: np.ndarray) -> np.ndarray:
    """Hermitian symbols on Hermitian states give real fields; enforce it."""
    finite = np.isfinite(values)
    if not np.all(finite):
        raise NonFinite(f"field is not finite at site {int(np.argmin(finite))}")
    imag = float(np.max(np.abs(values.imag)))
    if imag > 1e-10:
        raise ValueError(f"field imaginary part {imag:.3e} exceeds 1e-10")
    return values.real


def _require_finite(mat: np.ndarray, name: str) -> None:
    finite = np.isfinite(mat)
    if not np.all(finite):
        i, j = np.argwhere(~finite)[0]
        raise NonFinite(f"{name} is not finite at entry ({i}, {j})")


def _gram(w: np.ndarray) -> np.ndarray:
    """w w+ from one Hermitian rank-k update (half the flops of a GEMM),
    mirrored from its lower triangle, so exactly Hermitian."""
    low = zherk(1.0, w, lower=1)
    full = low + low.conj().T
    full.flat[:: w.shape[0] + 1] = low.diagonal().real
    return full


def _xlogx(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = v > 0.0
    out[pos] = v[pos] * np.log(v[pos])
    return out


def _mode_entropy(kappa: np.ndarray) -> float:
    """sum_j -n log n - (1 - n) log(1 - n) at n = 1/(1 + e^{-kappa_j});
    each term is even in kappa, evaluated without cancellation."""
    a = np.abs(kappa)
    return float(np.sum(np.log1p(np.exp(-a)) + a * expit(-a)))


def spectral_derivative(field_values: np.ndarray, lattice: Lattice, order: int = 1) -> np.ndarray:
    """Spectral derivative of a real per-site field (principal-branch momenta)."""
    sym = (1j * lattice.momenta) ** order
    return np.fft.ifft(sym * np.fft.fft(field_values)).real


# ---------------------------------------------------------------------------
# states and multiplier fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianState:
    """Quasi-free state held by its momentum-space correlation matrix
    Chat = W C W+, with C(x, y) = <a+_y a_x>.

    `s_vn` is the von Neumann entropy when it is known exactly: from the
    exponent's spectrum for a Gibbs state, carried unchanged through the
    unitary maps `evolve` and `boost`; None otherwise.
    """

    lattice: Lattice
    chat: np.ndarray
    s_vn: float | None = field(default=None, compare=False)

    def __post_init__(self):
        c = np.asarray(self.chat, dtype=complex)
        if c.shape != (self.lattice.L, self.lattice.L):
            raise ValueError("correlation matrix shape mismatch")
        _require_finite(c, "Chat")
        herm_gap = np.max(np.abs(c - c.conj().T))
        if herm_gap > HERM_TOL:
            raise ValueError(f"correlation matrix not Hermitian ({herm_gap:.2e})")
        object.__setattr__(self, "chat", 0.5 * (c + c.conj().T))

    @classmethod
    def from_position(cls, lattice: Lattice, c: np.ndarray) -> "GaussianState":
        """State of a position-space correlation matrix C(x, y)."""
        c = np.asarray(c, dtype=complex)
        _require_finite(c, "C")
        return cls(lattice, to_momentum(c))

    @classmethod
    def _exact(cls, lattice: Lattice, chat: np.ndarray, s_vn: float | None = None):
        """State of a Chat that is finite, and Hermitian up to round-off, by
        construction (a Gibbs build, or a unitary or filter image of a
        checked state): skips the O(L^2) checks of the public constructor."""
        state = object.__new__(cls)
        object.__setattr__(state, "lattice", lattice)
        object.__setattr__(state, "chat", chat)
        object.__setattr__(state, "s_vn", s_vn)
        return state

    @property
    def L(self) -> int:
        return self.lattice.L

    @cached_property
    def C(self) -> np.ndarray:
        """Position-space C = W+ Chat W, for snapshots and dense oracles."""
        return to_position(self.chat)

    @property
    def total_number(self) -> float:
        return float(np.trace(self.chat).real)

    def occupations(self) -> np.ndarray:
        """Momentum-mode occupations N_k (FFT index order)."""
        return np.einsum("kk->k", self.chat).real

    def vn_entropy(self) -> float:
        """-tr[C log C + (1 - C) log(1 - C)], from `s_vn` when known."""
        if self.s_vn is not None:
            return self.s_vn
        vals = np.clip(eigh(self.chat, eigvals_only=True), 0.0, 1.0)
        return float(-np.sum(_xlogx(vals) + _xlogx(1.0 - vals)))

    def validate(self, tol: float = SPECTRUM_TOL) -> None:
        vals = eigh(self.chat, eigvals_only=True)
        if vals.min() < -tol or vals.max() > 1.0 + tol:
            raise ValueError(
                f"spectrum [{vals.min():.3e}, {vals.max():.3e}] outside [0, 1]"
            )


@dataclass(frozen=True)
class MultiplierField:
    """Per-site multiplier fields (lam0, lam1, lam4), lam4 > 0 everywhere."""

    lattice: Lattice
    lam0: np.ndarray
    lam1: np.ndarray
    lam4: np.ndarray

    def __post_init__(self):
        for name in ("lam0", "lam1", "lam4"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.lattice.L,):
                raise ValueError(f"{name} must have one value per site")
            finite = np.isfinite(arr)
            if not np.all(finite):
                raise NonFinite(f"{name} is not finite at site {int(np.argmin(finite))}")
            object.__setattr__(self, name, arr)
        if np.any(self.lam4 <= 0.0):
            raise NonpositiveBeta("lam4 must be positive at every site")

    @classmethod
    def constant(cls, lattice: Lattice, beta: float, alpha: float, mu: float):
        ones = np.ones(lattice.L)
        return cls(lattice, lam0=beta * mu * ones, lam1=beta * alpha * ones, lam4=beta * ones)

    @classmethod
    def from_profiles(cls, lattice: Lattice, lam0_fn, lam1_fn, lam4_fn):
        """Sample macroscopic profiles lam(X) at X = epsilon * x."""
        X = lattice.sites * lattice.epsilon
        return cls(
            lattice,
            lam0=np.asarray(lam0_fn(X), dtype=float) * np.ones(lattice.L),
            lam1=np.asarray(lam1_fn(X), dtype=float) * np.ones(lattice.L),
            lam4=np.asarray(lam4_fn(X), dtype=float) * np.ones(lattice.L),
        )


@dataclass(frozen=True)
class DensityFields:
    """Per-site conserved densities: particle n, momentum p, kinetic energy h."""

    n: np.ndarray
    p: np.ndarray
    h: np.ndarray

    def totals(self) -> tuple[float, float, float]:
        return float(self.n.sum()), float(self.p.sum()), float(self.h.sum())

    def stack(self) -> np.ndarray:
        return np.stack([self.n, self.p, self.h])


@dataclass(frozen=True)
class CurrentTensor:
    """Per-site currents w0 (particle), w1 (momentum), w4 (energy)."""

    w0: np.ndarray
    w1: np.ndarray
    w4: np.ndarray

    def stack(self) -> np.ndarray:
        return np.stack([self.w0, self.w1, self.w4])


# ---------------------------------------------------------------------------
# local Gibbs construction and evolution
# ---------------------------------------------------------------------------


def gibbs_exponent(lam_field: MultiplierField) -> np.ndarray:
    """Momentum-space one-particle exponent Khat = W K W+ of
    K = L0 + (L1 P + P L1)/2 - D+ L4 D / 2, where D+ L4 D = P L4 P since
    D = i P for the spectral derivative:

        Khat[k, q] = lam0hat[k-q] + lam1hat[k-q] (p_k + p_q) / 2
                     - p_k p_q lam4hat[k-q] / 2,

    with lamhat[m] = (1/L) sum_x lam(x) e^{-2 pi i m x / L} and k - q taken
    mod L.  For constant multipliers Khat is diagonal with symbol
    lam0 + lam1 p - lam4 p^2 / 2.
    """
    p = lam_field.lattice.momenta
    lam0, lam1, lam4 = (
        _circulant(np.fft.fft(f) / f.size)
        for f in (lam_field.lam0, lam_field.lam1, lam_field.lam4)
    )
    khat = lam4 * (-0.5 * p)
    khat += 0.5 * lam1
    khat *= p[:, None]
    khat += lam1 * (0.5 * p)
    khat += lam0
    return khat


def gibbs_gaussian(lattice: Lattice, lam_field: MultiplierField) -> GaussianState:
    """Quasi-free local Gibbs state Chat = (1 + exp(-Khat))^-1, with its
    entropy from the spectrum of Khat."""
    if lam_field.lattice.L != lattice.L:
        raise ValueError("multiplier field lives on a different lattice")
    kappa, vecs = eigh(gibbs_exponent(lam_field), overwrite_a=True, check_finite=False)
    chat = _gram(vecs * np.sqrt(expit(kappa)))
    return GaussianState._exact(lattice, chat, _mode_entropy(kappa))


def evolve(state: GaussianState, t: float) -> GaussianState:
    """Free evolution C(t) = e^{-i t h1} C e^{+i t h1}: in the momentum
    eigenbasis of h1 = -Laplacian/2 the phase e^{-i t eps_k} e^{+i t eps_q}
    on Chat, exact (no time-stepping error).

    The sign makes positive-momentum states drift toward larger x, which is
    the convention the drift test pins down.
    """
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    phase = np.exp(-1j * t * state.lattice.dispersion)
    chat = phase[:, None] * state.chat
    chat *= phase.conj()
    return GaussianState._exact(state.lattice, chat, state.s_vn)


# ---------------------------------------------------------------------------
# densities and currents
# ---------------------------------------------------------------------------


def _density_fields(lattice: Lattice, chat: np.ndarray) -> DensityFields:
    """(n, p, h) of a Hermitian Chat: symbols 1, (p_k + p_q)/2, p_k p_q / 2
    summed over the wrapped diagonals q = k + j."""
    p = lattice.momenta
    diag = _skew(chat)
    p_q = lattice.partner_momenta * diag
    return DensityFields(
        n=_site_field(diag.sum(axis=0)),
        p=_site_field(0.5 * (p @ diag + p_q.sum(axis=0))),
        h=_site_field(0.5 * (p @ p_q)),
    )


def densities(state: GaussianState) -> DensityFields:
    """Conserved densities; with spectral operators the continuity equations
    against `currents` hold to round-off."""
    return _density_fields(state.lattice, state.chat)


def densities_rate(state: GaussianState) -> DensityFields:
    """Exact micro-time derivative of `densities` under `evolve`: the fields
    of the generator d/dt Chat = -i (eps_k - eps_q) Chat."""
    eps = state.lattice.dispersion
    return _density_fields(state.lattice, -1j * (eps[:, None] - eps[None, :]) * state.chat)


def currents(state: GaussianState, cutoff: "MomentumCutoff | None" = None) -> CurrentTensor:
    """Kinetic current tensor (w0, w1, w4).

    w0 is the momentum density; w1 carries the gradient-of-density correction
    -(1/4) d^2 n/dx^2 on top of the quadratic-symbol part so that the lattice
    continuity identity d/dt p + grad w1 = 0 is exact (in the continuum this
    term is the higher-derivative remainder of the current calculation);
    w4 = (1/4) p_k p_q (p_k + p_q) needs no correction.  When a cutoff filter
    is given, the currents are evaluated on the smeared state.
    """
    if cutoff is not None:
        state = cutoff.smear(state)
    lat = state.lattice
    p = lat.momenta
    diag = _skew(state.chat)
    p_q = lat.partner_momenta * diag
    n = _site_field(diag.sum(axis=0))
    w0 = _site_field(0.5 * (p @ diag + p_q.sum(axis=0)))
    w1 = _site_field(p @ p_q) - 0.25 * spectral_derivative(n, lat, order=2)
    w4 = _site_field(0.25 * (p**2 @ p_q + p @ (lat.partner_momenta * p_q)))
    return CurrentTensor(w0=w0, w1=w1, w4=w4)


def boost(state: GaussianState, n_modes: int) -> GaussianState:
    """Multiply C by phases e^{i s (x - y)} with s = 2 pi n_modes / L, the
    lattice version of the velocity-boost automorphism: in momentum, the
    cyclic shift Chat[k, q] -> Chat[k - n_modes, q - n_modes]."""
    chat = np.roll(state.chat, (n_modes, n_modes), axis=(0, 1))
    return GaussianState._exact(state.lattice, chat, state.s_vn)


# ---------------------------------------------------------------------------
# high-momentum cutoff filter
# ---------------------------------------------------------------------------


def _smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1, flat ends."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class MomentumCutoff:
    """Smooth convolution filter phi_M: transfer function ~1 below momentum M,
    decaying above, kernel localized within e^{M^2} sites."""

    lattice: Lattice
    M: float
    kernel: np.ndarray          # phi_M on site offsets, sums to exactly 1
    transfer: np.ndarray        # phi_hat at grid momenta (FFT order)
    renorm: float               # applied to make sum(kernel) = 1
    operator_scale: float       # applied to transfer so the filter is a contraction

    def smear(self, state: GaussianState) -> GaussianState:
        """C_M = Phi C Phi+ with the contraction-normalized transfer: the
        smeared matrix is again a valid correlation matrix."""
        t = self.transfer / self.operator_scale
        return GaussianState._exact(state.lattice, t[:, None] * state.chat * t)


def momentum_cutoff(lattice: Lattice, M: float) -> MomentumCutoff:
    """Build phi_M = (g_lam * g_lam) h_M with lam = e^{M^2}: transfer within
    e^{-M^2} of 1 for |p| <= M and below e^{-M^2} beyond 2M, unit mass."""
    if M < 1.0:
        raise CutoffTooLarge("cutoff scale M must be >= 1")
    lam = float(np.exp(M * M))
    L = lattice.L
    if lam > L / 2:
        raise CutoffTooLarge(
            f"kernel scale e^(M^2) = {lam:.1f} not representable on {L} sites"
        )
    x = np.where(lattice.sites <= L // 2, lattice.sites, lattice.sites - L).astype(float)
    # C-infinity bump supported in |s| <= 2, discretely l2-normalized
    s = x / lam
    with np.errstate(divide="ignore", over="ignore"):
        g = np.where(np.abs(s) < 2.0, np.exp(-1.0 / np.maximum(1.0 - (s / 2.0) ** 2, 1e-300)), 0.0)
    g /= np.sqrt(np.sum(g * g))
    conv = np.fft.ifft(np.fft.fft(g) ** 2).real
    p = lattice.momenta
    hhat = _smooth_step((2.0 * M - np.abs(p)) / M)
    h = np.fft.ifft(hhat).real
    phi = conv * h
    total = phi.sum()
    phi = phi / total
    transfer = np.fft.fft(phi).real
    op_scale = max(1.0, float(np.max(np.abs(transfer))))
    return MomentumCutoff(
        lattice=lattice,
        M=M,
        kernel=phi,
        transfer=transfer,
        renorm=float(1.0 / total),
        operator_scale=op_scale,
    )


# ---------------------------------------------------------------------------
# partition-of-unity coarse graining
# ---------------------------------------------------------------------------


def window_chi_sq(t: np.ndarray, eta: float) -> np.ndarray:
    """Squared window chi^2(t): 1 on |t| <= 1/2 - eta, 0 beyond 1/2 + eta,
    with sum_j chi^2(t + j) = 1 exactly (odd smooth transition)."""
    t = np.asarray(t, dtype=float)
    u = (0.5 - np.abs(t)) / eta
    gpos = _smooth_step(np.clip(u, 0.0, 1.0))
    gneg = _smooth_step(np.clip(-u, 0.0, 1.0))
    return 0.5 * (1.0 + gpos - gneg)


def coarse_kernel(lattice: Lattice, ell: int) -> np.ndarray:
    """Averaging kernel chi^2(delta/ell)/ell on site offsets; eta = ell^(-1/2)."""
    L = lattice.L
    if not 8 <= ell <= L // 4:
        raise BadWindow(f"window size {ell} outside [8, L/4] for L = {L}")
    if L % ell != 0:
        raise BadWindow(f"window size {ell} must divide L = {L} for the stride partition")
    delta = np.where(lattice.sites <= L // 2, lattice.sites, lattice.sites - L).astype(float)
    return window_chi_sq(delta / ell, eta=ell ** (-0.5)) / ell


def coarse_grain(fields, ell: int, lattice: Lattice):
    """Sliding window average over chi^2((y-x)/ell)/ell, per component.

    Constant fields are fixed points; summing the field at a stride-ell grid
    and multiplying by ell reproduces the total exactly (partition of unity).
    Accepts DensityFields, CurrentTensor, or a plain per-site array.
    """
    kernel = coarse_kernel(lattice, ell)
    khat = np.fft.fft(kernel)

    def smooth(u):
        return np.fft.ifft(np.fft.fft(u) * khat).real

    if isinstance(fields, DensityFields):
        return DensityFields(n=smooth(fields.n), p=smooth(fields.p), h=smooth(fields.h))
    if isinstance(fields, CurrentTensor):
        return CurrentTensor(w0=smooth(fields.w0), w1=smooth(fields.w1), w4=smooth(fields.w4))
    return smooth(np.asarray(fields, dtype=float))


# ---------------------------------------------------------------------------
# quasi-free relative entropy and entropy production
# ---------------------------------------------------------------------------


def rel_entropy_gaussian(
    gamma: GaussianState, omega: GaussianState | MultiplierField
) -> tuple[float, float]:
    """Relative entropy S(gamma | omega) between quasi-free states, returned
    as (total, per-site density).

    When omega is a MultiplierField, the reference is its local Gibbs state
    exp(a+ K a)/Z, evaluated in closed form without building it:

        S = -S_vN(gamma) - tr(Chat_gamma Khat) + sum_j log(1 + e^{kappa_j}),

    with kappa the spectrum of Khat and S_vN(gamma) from `vn_entropy` (exact
    for an evolved Gibbs state).  When omega is a state, both spectra are
    used:

        S = tr[Cg (log Cg - log Cw)] + tr[(1-Cg)(log(1-Cg) - log(1-Cw))],

    with the reference spectrum clamped to [1e-12, 1 - 1e-12] before the logs.
    Identical states give exactly 0.
    """
    if gamma.L != omega.lattice.L:
        raise ValueError("states live on different lattices")
    if isinstance(omega, MultiplierField):
        khat = gibbs_exponent(omega)
        cross = float(np.vdot(khat, gamma.chat).real)
        kappa = eigh(khat, eigvals_only=True, overwrite_a=True, check_finite=False)
        total = float(np.sum(np.logaddexp(0.0, kappa))) - cross - gamma.vn_entropy()
        return total, total / gamma.L
    if gamma is omega or gamma.chat is omega.chat:
        return 0.0, 0.0
    vg, wg = eigh(gamma.chat)
    vw, ww = eigh(omega.chat)
    if np.min(vw) < -1e-8 or np.max(vw) > 1.0 + 1e-8:
        raise SingularReference("reference correlation spectrum outside [0, 1]")
    vg = np.clip(vg, 0.0, 1.0)
    clipped = np.clip(vw, EIG_CLIP, 1.0 - EIG_CLIP)
    clip_mass = float(np.sum(np.abs(vw - clipped)))
    if clip_mass > 0.0:
        logger.debug("clamped %.3e of reference spectrum to [%g, 1-%g] before logs",
                     clip_mass, EIG_CLIP, EIG_CLIP)
    vw = clipped

    # tr f(Cg) terms in the gamma eigenbasis
    s_gamma = float(np.sum(_xlogx(vg) + _xlogx(1.0 - vg)))
    # cross terms tr[Cg log Cw] + tr[(1-Cg) log(1-Cw)] via the overlap matrix
    overlap = np.abs(wg.conj().T @ ww) ** 2
    cross = float(vg @ overlap @ np.log(vw) + (1.0 - vg) @ overlap @ np.log(1.0 - vw))
    total = s_gamma - cross
    return total, total / gamma.L


def entropy_production(
    gamma: GaussianState,
    lam_field_of_t: Callable[[float], MultiplierField],
    t: float,
    dt_macro: float = 1e-5,
) -> float:
    """d/dt S(gamma_t | omega_t) for omega_t the local Gibbs state built from
    lam_field_of_t (micro-time argument), evaluated at micro time t:

        dS/dt = tr(C_gamma (-i[h1, K_t] - dK_t/dt)) + tr(dK_t/dt C_omega).

    In the momentum basis h1 is diagonal, so the commutator is the
    elementwise (eps_k - eps_q) Khat_t and every trace is an elementwise sum.
    dK/dt uses centered differences with macroscopic step dt_macro (the one
    inexact ingredient; everything else is evaluated in closed form).  The
    commutator sign matches the drift-pinned evolution convention.
    """
    lat = gamma.lattice
    k_now = gibbs_exponent(lam_field_of_t(t))
    dt_micro = dt_macro / lat.epsilon
    k_plus = gibbs_exponent(lam_field_of_t(t + dt_micro))
    k_minus = gibbs_exponent(lam_field_of_t(t - dt_micro))
    dk_dt = (k_plus - k_minus) / (2.0 * dt_micro)

    eps = lat.dispersion
    comm = (eps[:, None] - eps[None, :]) * k_now
    # tr(A B) = sum_kq conj(A_kq) B_kq for Hermitian A
    term_gamma = np.vdot(-1j * comm - dk_dt, gamma.chat)
    vals, vecs = eigh(k_now, overwrite_a=True, check_finite=False)
    c_omega = _gram(vecs * np.sqrt(expit(vals)))
    term_norm = np.vdot(dk_dt, c_omega)
    return float(np.real(term_gamma + term_norm))


# ---------------------------------------------------------------------------
# cutoff / moment assumption checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Expectation-level checks of the high-momentum cutoff machinery."""

    c: float
    M: float
    maxwell_moment: float
    current_bound_constant: float
    per_component: dict


def maxwell_moment(state: GaussianState, c: float) -> float:
    """Gaussian-weighted momentum moment (1/L) sum_p e^{c p^2} N_p; raises
    MomentDiverges when the summand grows toward the zone edge (for Gibbs
    data this is exactly the regime c >= min(lam4)/2)."""
    if c <= 0.0:
        raise ValueError("c must be positive")
    p = state.lattice.momenta
    occ = state.occupations()
    summand = np.exp(c * p * p) * occ
    absp = np.abs(p)
    outer = summand[absp >= 0.8 * np.pi]
    inner = summand[(absp >= 0.5 * np.pi) & (absp < 0.7 * np.pi)]
    if outer.size and inner.size and outer.mean() > max(inner.mean(), 1e-300):
        raise MomentDiverges(
            f"e^(c p^2) N_p grows toward the zone edge at c = {c}"
        )
    return float(summand.mean())


def assumption_checks(
    state: GaussianState,
    c: float,
    M: float,
    lam_field: MultiplierField | None = None,
) -> AssumptionReport:
    """Maxwellian moment plus the expectation-level current bound
    |sum_x w_M| <= const * M * (sum h + sum n); reports the smallest
    admissible constant."""
    if lam_field is not None and c >= 0.5 * float(np.min(lam_field.lam4)):
        raise MomentDiverges(
            f"c = {c} at or above min(lam4)/2 = {0.5 * float(np.min(lam_field.lam4))}"
        )
    moment = maxwell_moment(state, c)
    cut = momentum_cutoff(state.lattice, M)
    w_m = currents(state, cutoff=cut)
    dens = densities(state)
    n_tot, _, h_tot = dens.totals()
    denom = M * max(h_tot + n_tot, 1e-300)
    per = {
        "w0": abs(float(w_m.w0.sum())) / denom,
        "w1": abs(float(w_m.w1.sum())) / denom,
        "w4": abs(float(w_m.w4.sum())) / denom,
    }
    return AssumptionReport(
        c=c,
        M=M,
        maxwell_moment=moment,
        current_bound_constant=max(per.values()),
        per_component=per,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_SNAPSHOT_MAGIC = b"FEGSNAP1"
_CONVENTION = b"C(x,y)=<a+_y a_x>; p in (-pi,pi]"


def save_state(state: GaussianState, path, t: float = 0.0) -> None:
    """Binary snapshot: magic, L, time, convention tag, packed upper triangle."""
    iu = np.triu_indices(state.L)
    packed = np.ascontiguousarray(state.C[iu], dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_MAGIC)
        fh.write(struct.pack("<Qd", state.L, t))
        fh.write(struct.pack("<H", len(_CONVENTION)))
        fh.write(_CONVENTION)
        packed.tofile(fh)


def load_state(path) -> tuple[GaussianState, float]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_SNAPSHOT_MAGIC))
        if magic != _SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a state snapshot")
        L, t = struct.unpack("<Qd", fh.read(16))
        (taglen,) = struct.unpack("<H", fh.read(2))
        tag = fh.read(taglen)
        if tag != _CONVENTION:
            raise ValueError(f"{path}: unknown convention tag {tag!r}")
        packed = np.fromfile(fh, dtype=np.complex128, count=L * (L + 1) // 2)
    c = np.zeros((L, L), dtype=complex)
    iu = np.triu_indices(L)
    c[iu] = packed
    c = c + np.triu(c, 1).conj().T
    return GaussianState.from_position(Lattice(int(L)), c), float(t)


def fields_to_csv(path, lattice: Lattice, dens: DensityFields, cur: CurrentTensor) -> None:
    """CSV with columns (x, n, p, h, w0, w1, w4)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "n", "p", "h", "w0", "w1", "w4"])
        for x in range(lattice.L):
            writer.writerow(
                [
                    x,
                    repr(dens.n[x]),
                    repr(dens.p[x]),
                    repr(dens.h[x]),
                    repr(cur.w0[x]),
                    repr(cur.w1[x]),
                    repr(cur.w4[x]),
                ]
            )
