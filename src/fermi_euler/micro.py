"""Exact microscopic side: quasi-free fermions on a 1D periodic lattice.

A quasi-free state on L sites is fully described by its correlation matrix
C(x, y) = <a+_y a_x>.  The free dynamics is diagonal in momentum, so the
module computes only in the momentum representation, on

    Chat = W C W+,   W[k, x] = exp(-2 pi i k x / L) / sqrt(L),

with momenta p_k = 2*pi*k/L mapped to (-pi, pi] (Nyquist mode at +pi) and
dispersion eps_k = p_k^2/2.  Position-space C is derived on demand, for the
snapshot writer and the dense test oracles only.

Observables are Hermitian momentum-space symbols,

    <O_x> = (1/L) sum_{k,q} S(k, q) Chat[k, q] exp(i (p_k - p_q) x),

with S = 1 for particle density, (p_k+p_q)/2 for momentum density and
p_k p_q / 2 for kinetic-energy density.  Each field is the sum of S * Chat
over the wrapped diagonals q - k = j (mod L), then one 1D FFT over j.  The
same sums of the generator -i (eps_k - eps_q) Chat give the exact rates,
and divided by the spectral gradient's symbol, the currents (`currents`):
the lattice continuity equations hold to round-off in every mode but an
even L's Nyquist mode, which makes every identity check in the tests sharp.

Local Gibbs states carry slowly varying multiplier fields: the one-particle
exponent is K = L0 + (L1 P + P L1)/2 - D+ L4 D / 2 with L^mu = diag(lam^mu),
built directly as Khat from the Fourier coefficients of the three fields,
and Chat = (1 + exp(-Khat))^-1.  Khat has one wrapped diagonal per Fourier
mode of the fields above round-off (2 w_K + 1 in all), so `gibbs_gaussian`
builds Chat and its entropy from Chebyshev series of the Fermi function and
of the mode entropy, run as a three-term recurrence on wrapped diagonals
(a Fermi-operator expansion, O(L n^2 w_K^2) for degree n, on the
Hermitian half of each term), and falls back to a dense eigendecomposition
of Khat where that is cheaper.  A state holds Chat as its wrapped diagonals
D[o, k] = Chat[k, (k + o) mod L]: for the recurrence, its band of
2 n w_K + 1 (folded onto all L when wider) cut to the offsets whose entries
are above round-off, the dropped ones bounded in the 2-norm by CHEB_TOL
(about 20 to 45 of them for the smooth fields here, whatever L); all L for
any other state.  Dense Chat is derived on demand.  Time
evolution is the exact conjugation by exp(-i t h1), h1 = -Laplacian/2, the
phase e^{-i t (eps_k - eps_{k+o})} on each diagonal (sign pinned by the
drift check in the tests: a state of positive momentum drifts toward
larger x).

Also here: the smooth high-momentum cutoff filter, the partition-of-unity
coarse-graining window, the quasi-free relative entropy (in closed form
against a local Gibbs reference) and its production rate against a moving
reference, given the rate of its multipliers, from the conservation laws:
Khat is linear in the fields, so the rate pairs the multipliers with the
exact density rates and their rate with the gap to the reference's
densities.  Last, the state snapshots (`save_state`, `load_state`).
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import eigh
from scipy.linalg.blas import zherk
from scipy.special import expit

from .eos import brillouin_momenta, chebyshev_coefficients, chebyshev_points
from .errors import (
    BadWindow,
    CutoffTooLarge,
    NonFinite,
    NonpositiveBeta,
    SingularReference,
)

logger = logging.getLogger(__name__)

SPECTRUM_TOL = 1e-10
HERM_TOL = 1e-12
EIG_CLIP = 1e-12
# the local Gibbs build's round-off floor, tolerance and crossover: see
# `gibbs_gaussian`
MODE_FLOOR = 4.0
CHEB_TOL = 1e-14
CHEB_CROSSOVER = 0.05
# the coefficients' round-off, ~3e-18 each, summed over the >= n past a
# degree n much above this would reach CHEB_TOL
CHEB_MAX_DEGREE = 2048


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

    @cached_property
    def dispersion(self) -> np.ndarray:
        return 0.5 * self.momenta**2


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


def _shifted(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """S[i, k] = values[(k + offsets[i]) mod L]: what row k meets on each
    wrapped diagonal q - k = offsets[i]."""
    L = values.size
    v2 = np.concatenate((values, values))
    partner = as_strided(v2, shape=(L, L), strides=(v2.strides[0],) * 2, writeable=False)
    return partner[offsets % L]


def _all_offsets(L: int) -> np.ndarray:
    """The L wrapped-diagonal offsets of a full state, -(L-1)//2 .. L//2."""
    return np.arange(-((L - 1) // 2), L // 2 + 1)


def _diagonal_slices(L: int, r: int):
    """Flat positions in an L x L matrix of its wrapped diagonal q - k = r
    (0 <= r < L): rows k < L - r, then the rows that wrap."""
    return slice(r, r + (L - r) * (L + 1), L + 1), slice(L * (L - r), L * L, L + 1)


def _to_diagonals(chat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """D[i, k] = chat[k, (k + offsets[i]) mod L], one strided copy per
    diagonal (no L x L temporary)."""
    L = chat.shape[0]
    flat = np.ascontiguousarray(chat).reshape(-1)
    out = np.empty((offsets.size, L), dtype=complex)
    for i, r in enumerate(offsets % L):
        head, wrap = _diagonal_slices(L, int(r))
        out[i, : L - r] = flat[head]
        out[i, L - r:] = flat[wrap]
    return out


def _to_dense(diagonals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The L x L matrix whose wrapped diagonals are `diagonals`, zero
    elsewhere: the inverse of `_to_diagonals`."""
    L = diagonals.shape[1]
    out = np.zeros((L, L), dtype=complex)
    flat = out.reshape(-1)
    for i, r in enumerate(offsets % L):
        head, wrap = _diagonal_slices(L, int(r))
        flat[head] = diagonals[i, : L - r]
        flat[wrap] = diagonals[i, L - r:]
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


def _mode_entropy_terms(kappa: np.ndarray) -> np.ndarray:
    """-n log n - (1 - n) log(1 - n) at n = 1/(1 + e^{-kappa}), which is
    softplus(kappa) - kappa expit(kappa); even in kappa, evaluated without
    cancellation."""
    a = np.abs(kappa)
    return np.log1p(np.exp(-a)) + a * expit(-a)


def _mode_entropy(kappa: np.ndarray) -> float:
    return float(np.sum(_mode_entropy_terms(kappa)))


def spectral_derivative(field_values: np.ndarray, lattice: Lattice, order: int = 1) -> np.ndarray:
    """Spectral derivative of a real per-site field (principal-branch momenta)."""
    sym = (1j * lattice.momenta) ** order
    return np.fft.ifft(sym * np.fft.fft(field_values)).real


# ---------------------------------------------------------------------------
# states and multiplier fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, eq=False)
class GaussianState:
    """Quasi-free state held by the wrapped diagonals of its momentum-space
    correlation matrix Chat = W C W+, with C(x, y) = <a+_y a_x>:

        diagonals[i, k] = Chat[k, (k + offsets[i]) mod L],

    the offsets ascending, contiguous, holding 0 and distinct mod L; every
    diagonal not stored is zero.  A local Gibbs state from the recurrence
    stores its band cut to the diagonals above round-off, any other state
    all L diagonals.  Dense Chat and C are derived on demand (`chat`, `C`).

    `GaussianState(lattice, chat)` takes a dense Chat, checked finite and
    Hermitian.  `s_vn` is the von Neumann entropy when it is known exactly:
    from the exponent's spectrum for a Gibbs state, carried unchanged
    through the unitary maps `evolve` and `boost`; None otherwise.
    `cut_bound` bounds ||Chat - stored||_2 from the diagonals the band cut
    dropped (`_band_cut`), <= CHEB_TOL; 0 for a state that drops none.
    `evolve`, `boost` and the contraction `MomentumCutoff.smear` carry it.
    """

    lattice: Lattice
    diagonals: np.ndarray
    offsets: np.ndarray
    s_vn: float | None = None
    cut_bound: float = 0.0

    def __init__(self, lattice: Lattice, chat: np.ndarray, s_vn: float | None = None):
        c = np.asarray(chat, dtype=complex)
        if c.shape != (lattice.L, lattice.L):
            raise ValueError("correlation matrix shape mismatch")
        _require_finite(c, "Chat")
        herm_gap = np.max(np.abs(c - c.conj().T))
        if herm_gap > HERM_TOL:
            raise ValueError(f"correlation matrix not Hermitian ({herm_gap:.2e})")
        offsets = _all_offsets(lattice.L)
        self._set(lattice, _to_diagonals(0.5 * (c + c.conj().T), offsets), offsets, s_vn)

    @classmethod
    def from_position(cls, lattice: Lattice, c: np.ndarray) -> "GaussianState":
        """State of a position-space correlation matrix C(x, y)."""
        c = np.asarray(c, dtype=complex)
        _require_finite(c, "C")
        return cls(lattice, to_momentum(c))

    @classmethod
    def _exact(cls, lattice: Lattice, diagonals: np.ndarray, offsets: np.ndarray,
               s_vn: float | None = None, cut_bound: float = 0.0):
        """State of wrapped diagonals that are finite, and Hermitian up to
        round-off, by construction (a Gibbs build, or a unitary or filter
        image of a checked state): skips the checks of the public
        constructor."""
        state = object.__new__(cls)
        state._set(lattice, diagonals, offsets, s_vn, cut_bound)
        return state

    def _set(self, lattice, diagonals, offsets, s_vn, cut_bound=0.0):
        for name, value in (("lattice", lattice), ("diagonals", diagonals),
                            ("offsets", offsets), ("s_vn", s_vn), ("cut_bound", cut_bound)):
            object.__setattr__(self, name, value)

    @property
    def L(self) -> int:
        return self.lattice.L

    @property
    def chat(self) -> np.ndarray:
        """Dense Chat, for spectra, snapshots and dense oracles."""
        return _to_dense(self.diagonals, self.offsets)

    @cached_property
    def C(self) -> np.ndarray:
        """Position-space C = W+ Chat W, for snapshots and dense oracles."""
        return to_position(self.chat)

    def occupations(self) -> np.ndarray:
        """Momentum-mode occupations N_k (FFT index order): offset 0."""
        return self.diagonals[-self.offsets[0]].real

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
    modes = _field_modes(lam_field.lam0, lam_field.lam1, lam_field.lam4)
    return _exponent_entries(*(_circulant(m) for m in modes), p[:, None], p)


def _field_modes(lam0, lam1, lam4) -> list:
    """Fourier amplitudes lamhat[m] = (1/L) sum_x lam(x) e^{-2 pi i m x / L}."""
    return [np.fft.fft(f) / f.size for f in (lam0, lam1, lam4)]


def _exponent_entries(l0, l1, l4, p_k, p_q) -> np.ndarray:
    """lam0hat + lam1hat (p_k + p_q)/2 - p_k p_q lam4hat/2 elementwise, with
    each lamhat taken at k - q: the one formula for Khat's entries, in
    whatever layout the broadcast arguments give (dense or wrapped
    diagonals)."""
    out = l4 * (-0.5 * p_q)
    out += 0.5 * l1
    out *= p_k
    out += l1 * (0.5 * p_q)
    out += l0
    return out


def _exponent_diagonals(lattice: Lattice, modes: list, w: int) -> np.ndarray:
    """Wrapped diagonals D[w + j, k] = Khat[k, (k + j) mod L], |j| <= w, from
    the amplitudes lamhat[-j] of the three fields (k - q = -j)."""
    L = lattice.L
    j = np.arange(-w, w + 1)
    l0, l1, l4 = (m[-j][:, None] for m in modes)
    p = lattice.momenta
    return _exponent_entries(l0, l1, l4, p, p[(np.arange(L) + j[:, None]) % L])


def _exponent_width(modes: list, lam_max: float) -> int:
    """w_K: the largest |m| at which some field's amplitude exceeds
    MODE_FLOOR * eps * lam_max, the FFT round-off floor (lam_max = max|lam|
    over the three fields)."""
    L = modes[0].size
    floor = MODE_FLOOR * np.finfo(float).eps * lam_max
    above = np.max(np.abs(np.stack(modes)), axis=0) > floor
    order = np.minimum(np.arange(L), L - np.arange(L))  # |m| of FFT index m
    return int(np.max(order[above], initial=0))


def _chebyshev_series(a: float, b: float, max_degree: float):
    """Chebyshev coefficients, on [a, b], of expit and of the mode entropy
    softplus(x) - x expit(x), cut at the smallest degree n at which both
    dropped-coefficient sums are below CHEB_TOL, with that sum; None when n
    would pass max_degree.  The coefficients come from interpolants at
    2 n points or more, whose own coefficients past n are in the sums."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    size = 64
    while True:
        x = mid + half * chebyshev_points(size)
        coef = [chebyshev_coefficients(f(x)) for f in (expit, _mode_entropy_terms)]
        # dropped[n] = sum_{m > n} |c_m|, the larger of the two series
        dropped = np.max([np.cumsum(np.abs(c[::-1]))[::-1] for c in coef], axis=0)
        dropped = np.append(dropped[1:], 0.0)
        n = int(np.argmax(dropped < CHEB_TOL))
        if 2 * n <= size:
            if n > max_degree:
                return None
            return coef[0][: n + 1], coef[1][: n + 1], float(dropped[n])
        if size >= 2 * max_degree:
            return None
        size *= 2


def _chebyshev_multiplies(n: int, w: int, L: int) -> int:
    """Complex multiplies of the n-step recurrence, to leading order: step m
    multiplies the band's half at offsets >= 0, m w + 1 diagonals, by each
    of K's 2 w + 1, and adds it to Chat."""
    return (2 * w + 1) * L * (w * n * (n + 1) // 2 + n)


def _chebyshev_plan(lam_field: MultiplierField, max_multiplies: float):
    """The recurrence's inputs for lam_field: Khat's wrapped diagonals, the
    two cut series and the interval [a, b] from Gershgorin row sums that
    holds Khat's spectrum.  None when Khat's modes alias (2 w_K >= L), when
    the degree passes CHEB_MAX_DEGREE, or when the recurrence would take
    max_multiplies or more."""
    lattice = lam_field.lattice
    L = lattice.L
    fields = (lam_field.lam0, lam_field.lam1, lam_field.lam4)
    modes = _field_modes(*fields)
    w = _exponent_width(modes, max(float(np.max(np.abs(f))) for f in fields))
    if 2 * w >= L:
        return None
    diag = _exponent_diagonals(lattice, modes, w)
    radius = np.sum(np.abs(diag), axis=0) - np.abs(diag[w])
    a, b = float(np.min(diag[w].real - radius)), float(np.max(diag[w].real + radius))
    max_degree = min(CHEB_MAX_DEGREE,
                     np.sqrt(2.0 * max_multiplies / ((2 * w + 1) * L * max(w, 1))))
    series = _chebyshev_series(a, b, max_degree)
    if series is None or _chebyshev_multiplies(len(series[0]) - 1, w, L) >= max_multiplies:
        return None
    return diag, series[0], series[1], a, b


def _gibbs_chebyshev(lattice: Lattice, diag: np.ndarray, coef_f, coef_h, a: float, b: float):
    """(wrapped diagonals, offsets, S_vN, cut bound) of Chat = expit(Khat),
    with S_vN = tr h(Khat), from the Chebyshev series on [a, b] and Khat's
    2 w + 1 wrapped diagonals `diag`.

    T_{m+1} = 2 Kt T_m - T_{m-1} with Kt = (2 Khat - a - b)/(b - a) is run on
    wrapped diagonals: row k of the product's diagonal i + o gets
    Kt[k, k+i] T_m[k+i, k+i+o], an elementwise product with a shifted
    diagonal, and the band grows by w a step, with nothing dropped.  Every
    T_m is Hermitian, so only its offsets >= 0 are computed, and the w
    below 0 that the next step reads are mirrored from them.  Offsets are
    not reduced mod L: the band is that of the periodic lift of Khat to the
    infinite chain, which folds back onto all L wrapped diagonals at the end
    when it is wider than L, so that case needs nothing special.  The band
    is then cut to the diagonals above round-off (`_band_cut`) and made
    exactly Hermitian (`_hermitian_band`)."""
    L = lattice.L
    w = (diag.shape[0] - 1) // 2
    n = len(coef_f) - 1
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    k_t = diag / half
    k_t[w] -= mid / half
    k2 = 2.0 * k_t
    width = n * w
    # the band's offsets 0 .. width, row o
    band = np.zeros((width + 1, L), dtype=complex)
    band[0] = coef_f[0]
    s_vn = coef_h[0] * L
    # T_{m-1} and T_m at offsets -w .. width + w, row w + o, each row with a
    # periodic halo of w columns on both sides (column w + k holds k), so the
    # partner T_m[k + i, .] of a product is the slice at columns w + i on.
    # T_{m+1} is written over T_{m-1}, whose row o it alone reads, at offsets
    # >= 0 only; its rows -w .. -1 are mirrored from 1 .. w, as T is Hermitian
    t_prev = np.zeros((width + 2 * w + 1, L + 2 * w), dtype=complex)
    t_cur = np.zeros_like(t_prev)
    t_prev[w] = 1.0
    t_cur[: 2 * w + 1, w: w + L] = k_t
    _wrap_halo(t_cur[: 2 * w + 1], w)
    chunk = np.empty((max(1, 2**12 // L), L), dtype=complex)  # 64 KiB
    for m in range(1, n + 1):
        h = m * w  # T_m's widest offset
        for r0, r1, buf in _row_chunks(0, h + 1, chunk):
            band[r0: r1] += np.multiply(coef_f[m], t_cur[w + r0: w + r1, w: w + L], out=buf)
        # offsets 0 mod L: 0, and the conjugate pairs +-L, +-2L, ...
        traces = t_cur[w: w + h + 1: L, w: w + L].sum(axis=1).real
        s_vn += coef_h[m] * (2.0 * traces.sum() - traces[0])
        if m == n:
            break
        for r0, r1, buf in _row_chunks(0, h + w + 1, chunk):
            rows = t_prev[w + r0: w + r1, w: w + L]
            np.negative(rows, out=rows)
            for i in range(-w, w + 1):
                rows += np.multiply(k2[w + i], t_cur[w + r0 - i: w + r1 - i, w + i: w + i + L],
                                    out=buf)
        _wrap_halo(t_prev[w: 2 * w + h + 1], w)
        for o in range(1, w + 1):  # T[k, k - o] = conj(T[k - o, k])
            np.conjugate(t_prev[w + o, w - o: w - o + L], out=t_prev[w - o, w: w + L])
        _wrap_halo(t_prev[:w], w)
        t_prev, t_cur = t_cur, t_prev
    del t_prev, t_cur  # before the output band is allocated
    if 2 * width + 1 > L:
        # the lifted band, mirrored whole, folds onto all L diagonals
        lifted = np.empty((2 * width + 1, L), dtype=complex)
        lifted[width:] = band
        for o in range(1, width + 1):
            lifted[width - o] = np.roll(band[o], o).conj()
        folded = np.zeros((L, L), dtype=complex)
        np.add.at(folded, (np.arange(-width, width + 1) + (L - 1) // 2) % L, lifted)
        band = folded[(L - 1) // 2:]  # offsets 0 .. L // 2
    keep, bound = _band_cut(band, L)
    offsets = np.arange(-min(keep, (L - 1) // 2), keep + 1)
    out = np.empty((offsets.size, L), dtype=complex)
    out[-offsets[0]:] = band[: keep + 1]
    return _hermitian_band(out, offsets), offsets, float(s_vn), bound


def _band_cut(band: np.ndarray, L: int) -> tuple[int, float]:
    """The widest offset to keep of a Hermitian band given by its diagonals
    at offsets 0, 1, ... (row o), and the bound on ||dChat||_2 of dropping
    the rest.  The outermost pairs +-o are dropped while the sum of their
    largest |entry|, each of the two counted (an even L's Nyquist diagonal,
    its own partner, once), stays <= CHEB_TOL: that sum bounds the largest
    row sum of |dChat|, and so its 2-norm."""
    keep, bound = band.shape[0] - 1, 0.0
    while keep > 0:
        step = (1.0 if 2 * keep == L else 2.0) * float(np.max(np.abs(band[keep])))
        if bound + step > CHEB_TOL:
            break
        bound += step
        keep -= 1
    return keep, bound


def _wrap_halo(rows: np.ndarray, w: int) -> None:
    """Fill the w halo columns on each side of rows whose columns w .. w + L - 1
    hold k = 0 .. L - 1, periodically."""
    L = rows.shape[1] - 2 * w
    rows[:, :w] = rows[:, L: L + w]
    rows[:, L + w:] = rows[:, w: 2 * w]


def _row_chunks(start: int, stop: int, chunk: np.ndarray):
    """(r0, r1, the first r1 - r0 rows of chunk) over start .. stop - 1 in
    runs of chunk's rows."""
    for r0 in range(start, stop, chunk.shape[0]):
        r1 = min(r0 + chunk.shape[0], stop)
        yield r0, r1, chunk[: r1 - r0]


def _hermitian_band(band: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Make stored diagonals exactly Hermitian, in place: Chat[k, k - o] =
    conj(Chat[k - o, k]), so the diagonal at -o is the conjugate of the one
    at +o rolled by o, the main diagonal is real, and an even L's Nyquist
    diagonal (o = L/2, its own partner) takes its second half from its
    first.  Offsets as `GaussianState` holds them, with -o stored for every
    stored o > 0 but the Nyquist one."""
    L = band.shape[1]
    zero = -offsets[0]
    band[zero] = band[zero].real
    for o in range(1, offsets[-1] + 1):
        if 2 * o == L:
            band[zero + o, o:] = band[zero + o, :o].conj()
        else:
            band[zero - o] = np.roll(band[zero + o], o).conj()
    return band


def gibbs_chebyshev(lam_field: MultiplierField) -> GaussianState:
    """The local Gibbs state of `gibbs_gaussian` by the Chebyshev recurrence
    whatever it costs (`gibbs_gaussian` takes it only where it is the
    cheaper build).  Raises ValueError when the field's Fourier modes alias
    on the lattice (2 w_K >= L) or the degree passes CHEB_MAX_DEGREE."""
    plan = _chebyshev_plan(lam_field, np.inf)
    if plan is None:
        raise ValueError(
            "no Chebyshev build: the exponent's modes alias on the lattice, "
            f"or its degree passes {CHEB_MAX_DEGREE}"
        )
    return GaussianState._exact(lam_field.lattice, *_gibbs_chebyshev(lam_field.lattice, *plan))


def gibbs_gaussian(lattice: Lattice, lam_field: MultiplierField) -> GaussianState:
    """Quasi-free local Gibbs state Chat = (1 + exp(-Khat))^-1, with its
    entropy S_vN = tr h(Khat), h(x) = softplus(x) - x expit(x).

    Khat has 2 w_K + 1 wrapped diagonals, w_K the largest Fourier mode of
    the fields above MODE_FLOOR * eps * max|lam| (`_exponent_width`).  The
    dropped modes are FFT round-off: each moves an entry of Khat by at most
    (1 + pi + pi^2/2) MODE_FLOOR eps max|lam| ~ 8e-15 max|lam|, the size of
    the round-off the dense Khat carries in every entry, and ||dKhat||_2 by
    at most the sum of those entries over the dropped modes of one row.
    Gershgorin row sums on the diagonals give an interval [a, b] holding
    Khat's spectrum, and the Chebyshev series of expit and h on it are cut
    at the smallest degree n whose dropped coefficients sum to less than
    CHEB_TOL: as |T_m| <= 1 on [a, b], that bounds the error of Chat in the
    2-norm and of S_vN per mode.  The recurrence (`_gibbs_chebyshev`) then
    takes `_chebyshev_multiplies(n, w_K, L)`, about (2 w_K + 1) w_K n^2 L / 2
    complex multiplies, against the dense `eigh` and Gram product's O(L^3); the
    build takes the recurrence when its count is below CHEB_CROSSOVER * L^3,
    and `eigh` otherwise.  The recurrence's band is then cut: the diagonals
    it drops move Chat by at most `cut_bound` <= CHEB_TOL in the 2-norm.

    The two builds take equal time, on one core, at a count of 0.11 to
    0.18 L^3 at L = 1024, 0.12 to 0.23 L^3 at 512 and 0.15 to 0.32 L^3 at
    256, over `lambda-cos` (w_K = 1), fields with a second to eighth
    harmonic (w_K = 2 to 8) and a `q-cos` profile (w_K = 11).
    CHEB_CROSSOVER = 0.05 lies below all of them: it is the full-band
    count's 0.1 in the half-band count, so every field and lattice takes the
    build it took when each step computed the whole band.  So `lambda-cos`
    at L >= 512 takes the recurrence (n = 48, 1.0 s -> 0.04 s at L = 1024)
    and `q-cos` takes `eigh`; `lambda-cos` at L = 256 takes `eigh`, though
    the recurrence would take 0.011 s against 0.025 s.
    """
    if lam_field.lattice.L != lattice.L:
        raise ValueError("multiplier field lives on a different lattice")
    plan = _chebyshev_plan(lam_field, CHEB_CROSSOVER * float(lattice.L) ** 3)
    if plan is not None:
        return GaussianState._exact(lattice, *_gibbs_chebyshev(lattice, *plan))
    kappa, vecs = eigh(gibbs_exponent(lam_field), overwrite_a=True, check_finite=False)
    offsets = _all_offsets(lattice.L)
    diagonals = _to_diagonals(_gram(vecs * np.sqrt(expit(kappa))), offsets)
    return GaussianState._exact(lattice, diagonals, offsets, _mode_entropy(kappa))


def evolve(state: GaussianState, t: float) -> GaussianState:
    """Free evolution C(t) = e^{-i t h1} C e^{+i t h1}: in the momentum
    eigenbasis of h1 = -Laplacian/2 the phase e^{-i t eps_k} e^{+i t eps_q}
    on Chat, q = k + o on each stored diagonal, exact (no time-stepping
    error).

    The sign makes positive-momentum states drift toward larger x, which is
    the convention the drift test pins down.
    """
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    phase = np.exp(-1j * t * state.lattice.dispersion)
    diagonals = state.diagonals * phase
    diagonals *= _shifted(phase.conj(), state.offsets)
    return GaussianState._exact(state.lattice, diagonals, state.offsets, state.s_vn,
                                state.cut_bound)


# ---------------------------------------------------------------------------
# densities and currents
# ---------------------------------------------------------------------------


def _diagonal_sums(state: GaussianState, rate: bool = False) -> np.ndarray:
    """Sums E[j], j = 0..L-1, of the density symbols 1, (p_k + p_q)/2 and
    p_k p_q / 2 times Chat over each wrapped diagonal q = k + j, from the
    stored diagonals (the others sum to 0); with `rate`, of d/dt Chat under
    `evolve`: a copy multiplied by the generator's -i (eps_k - eps_q)."""
    L, diag, offsets = state.L, state.diagonals, state.offsets
    if rate:
        eps = state.lattice.dispersion
        diag = diag * (eps - _shifted(eps, offsets))
        diag *= -1j
    p = state.lattice.momenta
    p_q = _shifted(p, offsets) * diag
    sums = np.zeros((3, L), dtype=complex)
    sums[:, offsets % L] = [diag.sum(axis=1), 0.5 * (diag @ p + p_q.sum(axis=1)),
                            0.5 * (p_q @ p)]
    return sums


def densities(state: GaussianState) -> DensityFields:
    """Conserved densities (n, p, h): symbols 1, (p_k + p_q)/2, p_k p_q / 2."""
    return DensityFields(*(_site_field(s) for s in _diagonal_sums(state)))


def densities_rate(state: GaussianState) -> DensityFields:
    """Exact micro-time derivative of `densities` under `evolve`: the fields
    of the generator d/dt Chat = -i (eps_k - eps_q) Chat."""
    return DensityFields(*(_site_field(s) for s in _diagonal_sums(state, rate=True)))


def currents(state: GaussianState, cutoff: "MomentumCutoff | None" = None) -> CurrentTensor:
    """Currents (w0, w1, w4) of (n, p, h) by lattice continuity, mode by mode:
    d_t q + d_x w = 0 with `densities_rate` and `spectral_derivative`, which
    multiplies the mode -j of the wrapped diagonal q = k + j by i p_[-j].  So
    a density of symbol S has the current symbol S(k, q) (eps_k - eps_q) /
    p_[k-q], one denominator per diagonal: its diagonal sums are the rate's
    times i / p_[-j].  That is the continuum S (p_k + p_q)/2 except across
    the zone edge (umklapp pairs), and S(k, k) p_k, the group velocity, on
    the main diagonal.  An even L's Nyquist diagonal has p_[L/2] = +pi from
    both sides, so no Hermitian symbol is exact there, and
    `spectral_derivative` drops a real Nyquist mode: the current's Nyquist
    mode is 0, continuity is exact in every other mode, and the rate's
    Nyquist mode is the residual there.  With a cutoff, of the smeared state."""
    if cutoff is not None:
        state = cutoff.smear(state)
    lat = state.lattice
    p = lat.momenta
    j = np.arange(lat.L)
    live = (j > 0) & (2 * j != lat.L)
    ratio = np.zeros(lat.L, dtype=complex)
    ratio[live] = 1j / p[-j[live]]
    sums = ratio * _diagonal_sums(state, rate=True)
    v = p * state.occupations()
    for s, main in zip(sums, (v.sum(), p @ v, 0.5 * (p * p) @ v)):
        s[0] = main
    return CurrentTensor(*(_site_field(s) for s in sums))


def boost(state: GaussianState, n_modes: int) -> GaussianState:
    """Multiply C by phases e^{i s (x - y)} with s = 2 pi n_modes / L, the
    lattice version of the velocity-boost automorphism: in momentum, the
    cyclic shift Chat[k, q] -> Chat[k - n_modes, q - n_modes], a roll of
    each stored diagonal along k."""
    diagonals = np.roll(state.diagonals, n_modes, axis=1)
    return GaussianState._exact(state.lattice, diagonals, state.offsets, state.s_vn,
                                state.cut_bound)


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
        diagonals = state.diagonals * t
        diagonals *= _shifted(t, state.offsets)
        return GaussianState._exact(state.lattice, diagonals, state.offsets,
                                    cut_bound=state.cut_bound)


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
    gamma: GaussianState, omega: GaussianState | MultiplierField,
    reference: GaussianState | None = None,
) -> tuple[float, float]:
    """Relative entropy S(gamma | omega) between quasi-free states, returned
    as (total, per-site density).

    When omega is a MultiplierField, the reference is its local Gibbs state
    exp(a+ K a)/Z, evaluated in closed form:

        S = -S_vN(gamma) - tr(Chat_gamma Khat) + log Z,

    with S_vN(gamma) from `vn_entropy` (exact for an evolved Gibbs state)
    and tr(Chat_gamma Khat) the signed pairing sum_x (lam0 n + lam1 p -
    lam4 h) of omega's multipliers with gamma's `densities` (Khat is linear
    in the fields).  log Z = sum_j log(1 + e^{kappa_j}) over the spectrum
    kappa of Khat, without building the reference; or, when the caller has
    built it (`reference`, the `gibbs_gaussian` of omega), log Z =
    S_vN(reference) + tr(Chat_reference Khat), with no decomposition.  When
    omega is a state, both spectra are used:

        S = tr[Cg (log Cg - log Cw)] + tr[(1-Cg)(log(1-Cg) - log(1-Cw))],

    with the reference spectrum clamped to [1e-12, 1 - 1e-12] before the logs.
    Identical states give exactly 0.
    """
    if gamma.L != omega.lattice.L:
        raise ValueError("states live on different lattices")
    if isinstance(omega, MultiplierField):
        lam = (omega.lam0, omega.lam1, omega.lam4)
        if reference is None:
            kappa = eigh(gibbs_exponent(omega), eigvals_only=True, overwrite_a=True,
                         check_finite=False)
            log_z = float(np.sum(np.logaddexp(0.0, kappa)))
        else:
            log_z = reference.vn_entropy() + _pairing(lam, densities(reference).stack())
        total = log_z - _pairing(lam, densities(gamma).stack()) - gamma.vn_entropy()
        return total, total / gamma.L
    if gamma is omega or gamma.diagonals is omega.diagonals:
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


def _pairing(lam, dens) -> float:
    """sum_x (lam0 n + lam1 p - lam4 h): tr(Chat Khat) for Khat the
    `gibbs_exponent` of lam and (n, p, h) the `densities` of Chat."""
    (lam0, lam1, lam4), (n, p, h) = lam, dens
    return float(np.sum(lam0 * n + lam1 * p - lam4 * h))


def entropy_production(gamma: GaussianState, lam_field: MultiplierField, lam_rate,
                       reference: GaussianState | None = None) -> float:
    """d/dt S(gamma_t | omega_t) for omega_t the local Gibbs state of a
    moving multiplier field, at the instant where lam_field is that field
    and lam_rate = (dlam0/dt, dlam1/dt, dlam4/dt) its per-site rate in micro
    time, from the conservation laws.  Khat is linear in the fields, so
    tr(Chat Khat) = sum_x lam . q with lam . q = lam0 n + lam1 p - lam4 h,
    and d log Z/dt = sum_x dlam/dt . <q>_omega.  S_vN(gamma_t) is constant
    under `evolve`, so

        dS/dt = -sum_x lam . d<q>_gamma/dt - sum_x dlam/dt . (<q>_gamma - <q>_omega),

    with d<q>_gamma/dt the exact `densities_rate` and omega the
    `gibbs_gaussian` of lam_field, built here unless the caller has built
    it (`reference`).
    """
    lat = gamma.lattice
    rate = np.asarray(lam_rate, dtype=float)
    if rate.shape != (3, lat.L):
        raise ValueError(f"lam_rate of shape {rate.shape}: need three arrays of {lat.L} sites")
    _require_finite(rate, "lam_rate")
    omega = gibbs_gaussian(lat, lam_field) if reference is None else reference
    lam = (lam_field.lam0, lam_field.lam1, lam_field.lam4)
    gap = densities(gamma).stack() - densities(omega).stack()
    return -_pairing(lam, densities_rate(gamma).stack()) - _pairing(rate, gap)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_SNAPSHOT_MAGIC = b"FEGSNAP1"
_CONVENTION = b"C(x,y)=<a+_y a_x>; p in (-pi,pi]"
_BAND_MAGIC = b"FEGSNAP2"
_BAND_CONVENTION = b"D[o,k]=Chat[k,(k+o)%L]; Chat=W C W+, W[k,x]=e^(-2pi i k x/L)/sqrt(L); " + _CONVENTION
_BAND_HEAD = struct.Struct("<Qdd")  # diagonal count, s_vn (NaN when unknown), cut bound


def save_state(state: GaussianState, path, t: float = 0.0) -> None:
    """Binary snapshot FEGSNAP2, little-endian: magic, L (u64), time (f64),
    convention tag (u16 length, bytes), then the stored band: its diagonal
    count (u64), `s_vn` (f64, NaN when unknown) and `cut_bound` (f64), the
    offsets (i64 each) and their wrapped diagonals row by row (complex128).
    A band of d diagonals takes 16 d L bytes, not the L(L+1)/2 dense
    entries of FEGSNAP1."""
    s_vn = np.nan if state.s_vn is None else state.s_vn
    with open(path, "wb") as fh:
        fh.write(_BAND_MAGIC)
        fh.write(struct.pack("<Qd", state.L, t))
        fh.write(struct.pack("<H", len(_BAND_CONVENTION)))
        fh.write(_BAND_CONVENTION)
        fh.write(_BAND_HEAD.pack(state.offsets.size, s_vn, state.cut_bound))
        np.ascontiguousarray(state.offsets, dtype="<i8").tofile(fh)
        np.ascontiguousarray(state.diagonals, dtype="<c16").tofile(fh)


def load_state(path) -> tuple[GaussianState, float]:
    """(state, time) of a FEGSNAP2 snapshot, or of a FEGSNAP1 one (the
    packed upper triangle of position-space C, rebuilt by `from_position`)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_SNAPSHOT_MAGIC))
        if magic not in (_SNAPSHOT_MAGIC, _BAND_MAGIC):
            raise ValueError(f"{path}: not a state snapshot")
        L, t = struct.unpack("<Qd", fh.read(16))
        (taglen,) = struct.unpack("<H", fh.read(2))
        tag = fh.read(taglen)
        if tag != (_CONVENTION if magic == _SNAPSHOT_MAGIC else _BAND_CONVENTION):
            raise ValueError(f"{path}: unknown convention tag {tag!r}")
        body = fh.read()
    if magic == _BAND_MAGIC:
        return _band_state(path, Lattice(int(L)), body), float(t)
    count = L * (L + 1) // 2
    if len(body) != 16 * count:
        raise ValueError(
            f"{path}: expected {count} packed entries for L = {L}, found {len(body) / 16:g}"
        )
    packed = np.frombuffer(body, dtype=np.complex128)
    c = np.zeros((L, L), dtype=complex)
    iu = np.triu_indices(L)
    c[iu] = packed
    c = c + np.triu(c, 1).conj().T
    return GaussianState.from_position(Lattice(int(L)), c), float(t)


def _band_state(path, lattice: Lattice, body: bytes) -> GaussianState:
    """The state of a FEGSNAP2 body, checked as the public constructor
    checks a dense Chat: offsets as `GaussianState` holds them, finite and
    Hermitian diagonals."""
    L = lattice.L
    head = _BAND_HEAD.size
    count, s_vn, cut_bound = _BAND_HEAD.unpack_from(body) if len(body) >= head else (0, 0.0, 0.0)
    size = head + count * (8 + 16 * L)
    if count == 0 or len(body) != size:
        raise ValueError(f"{path}: a band of {count} diagonals for L = {L} takes {size} bytes, "
                         f"found {len(body)}")
    offsets = np.frombuffer(body, "<i8", count, head).astype(int)
    diagonals = np.frombuffer(body, "<c16", count * L, head + 8 * count)
    diagonals = diagonals.reshape(count, L).astype(complex)
    c = int(offsets[-1])
    symmetric = 2 * c < L and np.array_equal(offsets, np.arange(-c, c + 1))
    if not (symmetric or np.array_equal(offsets, _all_offsets(L))):
        raise ValueError(f"{path}: offsets {offsets[0]} .. {offsets[-1]} are not a stored band")
    _require_finite(diagonals, "diagonals")
    herm_gap = np.max(np.abs(diagonals - _hermitian_band(diagonals.copy(), offsets)))
    if herm_gap > HERM_TOL:
        raise ValueError(f"correlation matrix not Hermitian ({herm_gap:.2e})")
    return GaussianState._exact(lattice, diagonals, offsets,
                                None if np.isnan(s_vn) else float(s_vn), float(cut_bound))


def fields_to_csv(path, lattice: Lattice, dens: DensityFields, cur: CurrentTensor) -> None:
    """CSV with columns (x, n, p, h, w0, w1, w4)."""
    import csv

    columns = (dens.n, dens.p, dens.h, cur.w0, cur.w1, cur.w4)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "n", "p", "h", "w0", "w1", "w4"])
        for x in range(lattice.L):
            writer.writerow([x, *(repr(c[x]) for c in columns)])
