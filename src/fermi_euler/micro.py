"""Exact microscopic side: quasi-free fermions on a 1D periodic lattice.

A quasi-free state on L sites is fully described by its correlation matrix
C(x, y) = <a+_y a_x>.  Everything here is built around the spectral (Fourier)
representation: momenta p_k = 2*pi*k/L mapped to (-pi, pi] with the Nyquist
mode assigned to +pi, single-particle dispersion p^2/2, and observables given
by Hermitian momentum-space symbols

    <O_x> = (1/L) sum_{k,q} S(k, q) Chat[k, q] exp(i (p_k - p_q) x),

with S = 1 for particle density, (p_k+p_q)/2 for momentum density,
p_k p_q / 2 for kinetic-energy density, and the current symbols listed in
`currents`.  With spectral derivatives the free continuity equations hold to
round-off, which is what makes every identity check in the test suite sharp.

Local Gibbs states carry slowly varying multiplier fields: the one-particle
exponent is K = L0 + (L1 P + P L1)/2 - D+ L4 D / 2 with L^mu = diag(lam^mu)
and C = (1 + exp(-K))^-1.  Time evolution is the exact conjugation by
exp(-i t h1) with h1 = -Laplacian/2 (sign pinned by the drift check in the
tests: a state of positive momentum drifts toward larger x).

Also here: the smooth high-momentum cutoff filter, the partition-of-unity
coarse-graining window, the quasi-free relative entropy and its production
rate along the evolution, and the cutoff/moment assumption checks.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import eigh

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
    def momentum_op(self) -> np.ndarray:
        """Dense Hermitian momentum operator W+ diag(p) W."""
        w = self._dft
        return (w.conj().T * self.momenta) @ w

    @cached_property
    def _dft(self) -> np.ndarray:
        """Unitary DFT matrix W[k, x] = exp(-2 pi i k x / L) / sqrt(L)."""
        k = np.arange(self.L)
        return np.exp(-2j * np.pi * np.outer(k, k) / self.L) / np.sqrt(self.L)


def to_momentum(c: np.ndarray) -> np.ndarray:
    """Chat = W C W+ for the unitary DFT (O(L^2 log L))."""
    return np.fft.ifft(np.fft.fft(c, axis=0), axis=1)


def to_position(chat: np.ndarray) -> np.ndarray:
    """C = W+ Chat W."""
    return np.fft.ifft(np.fft.fft(chat, axis=1), axis=0)


def _field_from_symbol(weighted: np.ndarray) -> np.ndarray:
    """Per-site field (1/L) sum_{kq} B[k,q] e^{i(p_k - p_q) x} for
    B = symbol * Chat (already weighted)."""
    return np.einsum("xx->x", np.fft.ifft(np.fft.fft(weighted, axis=1), axis=0))


def _real_field(values: np.ndarray) -> np.ndarray:
    """Hermitian symbols on Hermitian states give real fields; enforce it."""
    imag = float(np.max(np.abs(values.imag)))
    if imag > 1e-10:
        raise ValueError(f"field imaginary part {imag:.3e} exceeds 1e-10")
    return values.real


def spectral_derivative(field_values: np.ndarray, lattice: Lattice, order: int = 1) -> np.ndarray:
    """Spectral derivative of a real per-site field (principal-branch momenta)."""
    sym = (1j * lattice.momenta) ** order
    return np.fft.ifft(sym * np.fft.fft(field_values)).real


# ---------------------------------------------------------------------------
# states and multiplier fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianState:
    """Quasi-free state: Hermitian correlation matrix C(x, y) = <a+_y a_x>."""

    lattice: Lattice
    C: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.C, dtype=complex)
        if c.shape != (self.lattice.L, self.lattice.L):
            raise ValueError("correlation matrix shape mismatch")
        herm_gap = np.max(np.abs(c - c.conj().T))
        if herm_gap > HERM_TOL:
            raise ValueError(f"correlation matrix not Hermitian ({herm_gap:.2e})")
        object.__setattr__(self, "C", 0.5 * (c + c.conj().T))

    @property
    def L(self) -> int:
        return self.lattice.L

    @cached_property
    def chat(self) -> np.ndarray:
        return to_momentum(self.C)

    @property
    def total_number(self) -> float:
        return float(np.trace(self.C).real)

    def occupations(self) -> np.ndarray:
        """Momentum-mode occupations N_k (FFT index order)."""
        return np.einsum("kk->k", self.chat).real

    def validate(self, tol: float = SPECTRUM_TOL) -> None:
        vals = eigh(self.C, eigvals_only=True)
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
    """One-particle exponent K = L0 + (L1 P + P L1)/2 - D+ L4 D / 2.

    D+ L4 D = P L4 P since D = i P for the spectral derivative, so for
    constant multipliers K is diagonal in momentum with symbol
    lam0 + lam1 p - lam4 p^2 / 2.
    """
    lat = lam_field.lattice
    p_op = lat.momentum_op
    k = np.diag(lam_field.lam0).astype(complex)
    k += 0.5 * (lam_field.lam1[:, None] * p_op + p_op * lam_field.lam1[None, :])
    k -= 0.5 * (p_op @ (lam_field.lam4[:, None] * p_op))
    return 0.5 * (k + k.conj().T)


def gibbs_gaussian(lattice: Lattice, lam_field: MultiplierField) -> GaussianState:
    """Quasi-free local Gibbs state C = (1 + exp(-K))^-1."""
    if lam_field.lattice.L != lattice.L:
        raise ValueError("multiplier field lives on a different lattice")
    k = gibbs_exponent(lam_field)
    vals, vecs = eigh(k)
    occ = 1.0 / (1.0 + np.exp(-vals))
    c = (vecs * occ) @ vecs.conj().T
    return GaussianState(lattice=lattice, C=c)


def evolve(state: GaussianState, t: float) -> GaussianState:
    """Free evolution C(t) = e^{-i t h1} C e^{+i t h1}, exact in the momentum
    eigenbasis of h1 = -Laplacian/2 (no time-stepping error).

    The sign makes positive-momentum states drift toward larger x, which is
    the convention the drift test pins down.
    """
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    eps = state.lattice.dispersion
    phases = np.exp(-1j * t * (eps[:, None] - eps[None, :]))
    return GaussianState(state.lattice, to_position(phases * state.chat))


# ---------------------------------------------------------------------------
# densities and currents
# ---------------------------------------------------------------------------


def densities(state: GaussianState) -> DensityFields:
    """Conserved densities; with spectral operators the continuity equations
    against `currents` hold to round-off."""
    p = state.lattice.momenta
    chat = state.chat
    n = np.einsum("xx->x", state.C).real
    sym_p = 0.5 * (p[:, None] + p[None, :])
    p_field = _real_field(_field_from_symbol(sym_p * chat))
    sym_h = 0.5 * np.outer(p, p)
    h_field = _real_field(_field_from_symbol(sym_h * chat))
    return DensityFields(n=n, p=p_field, h=h_field)


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
    chat = state.chat
    sym_w0 = 0.5 * (p[:, None] + p[None, :])
    w0 = _real_field(_field_from_symbol(sym_w0 * chat))
    n = np.einsum("xx->x", state.C).real
    sym_w1 = np.outer(p, p)
    w1 = _real_field(_field_from_symbol(sym_w1 * chat)) - 0.25 * spectral_derivative(n, lat, order=2)
    sym_w4 = 0.25 * np.outer(p, p) * (p[:, None] + p[None, :])
    w4 = _real_field(_field_from_symbol(sym_w4 * chat))
    return CurrentTensor(w0=w0, w1=w1, w4=w4)


def boost(state: GaussianState, n_modes: int) -> GaussianState:
    """Multiply C by phases e^{i s (x - y)} with s = 2 pi n_modes / L: the
    lattice version of the velocity-boost automorphism."""
    s = 2.0 * np.pi * n_modes / state.L
    phase = np.exp(1j * s * state.lattice.sites)
    return GaussianState(state.lattice, phase[:, None] * state.C * phase.conj()[None, :])


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
        chat = t[:, None] * state.chat * t[None, :]
        return GaussianState(state.lattice, to_position(chat))


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


def rel_entropy_gaussian(gamma: GaussianState, omega: GaussianState) -> tuple[float, float]:
    """Relative entropy between quasi-free states from their correlation
    matrices,

        S = tr[Cg (log Cg - log Cw)] + tr[(1-Cg)(log(1-Cg) - log(1-Cw))],

    returned as (total, per-site density).  Identical states give exactly 0.
    """
    if gamma.L != omega.L:
        raise ValueError("states live on different lattices")
    if gamma is omega or gamma.C is omega.C:
        return 0.0, 0.0
    vg, wg = eigh(gamma.C)
    vw, ww = eigh(omega.C)
    if np.min(vw) < -1e-8 or np.max(vw) > 1.0 + 1e-8:
        raise SingularReference("reference correlation spectrum outside [0, 1]")
    vg = np.clip(vg, 0.0, 1.0)
    clipped = np.clip(vw, EIG_CLIP, 1.0 - EIG_CLIP)
    clip_mass = float(np.sum(np.abs(vw - clipped)))
    if clip_mass > 0.0:
        logger.debug("clamped %.3e of reference spectrum to [%g, 1-%g] before logs",
                     clip_mass, EIG_CLIP, EIG_CLIP)
    vw = clipped

    def xlogx(v):
        out = np.zeros_like(v)
        pos = v > 0.0
        out[pos] = v[pos] * np.log(v[pos])
        return out

    # tr f(Cg) terms in the gamma eigenbasis
    s_gamma = float(np.sum(xlogx(vg) + xlogx(1.0 - vg)))
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

    dK/dt uses centered differences with macroscopic step dt_macro (the one
    inexact ingredient; everything else is evaluated in closed form).  The
    commutator sign matches the drift-pinned evolution convention.
    """
    lat = gamma.lattice
    eps = lat.epsilon
    k_now = gibbs_exponent(lam_field_of_t(t))
    dt_micro = dt_macro / eps
    k_plus = gibbs_exponent(lam_field_of_t(t + dt_micro))
    k_minus = gibbs_exponent(lam_field_of_t(t - dt_micro))
    dk_dt = (k_plus - k_minus) / (2.0 * dt_micro)

    h1 = (lat._dft.conj().T * lat.dispersion) @ lat._dft
    comm = h1 @ k_now - k_now @ h1
    vals, vecs = eigh(k_now)
    c_omega = (vecs * (1.0 / (1.0 + np.exp(-vals)))) @ vecs.conj().T
    term_gamma = np.trace((-1j * comm - dk_dt) @ gamma.C)
    term_norm = np.trace(dk_dt @ c_omega)
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
    return GaussianState(Lattice(int(L)), c), float(t)


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
