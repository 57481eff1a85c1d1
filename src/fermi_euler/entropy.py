"""Dense-matrix entropy toolkit.

Small-dimension (<= 64) exact linear algebra backing the package's entropy
claims: quantum relative entropy between density matrices, the variational
entropy inequality

    gamma(h) <= delta^-1 log Tr exp(delta h + log omega) + delta^-1 S(gamma|omega),

the Golden-Thompson inequality Tr e^{A+B} <= Tr e^A e^B, Peierls' inequality
Tr e^A >= sum_j exp(<phi_j, A phi_j>) for orthonormal families, and an
explicit second-quantized Fock construction of Gaussian states used as the
brute-force oracle for the quasi-free formulas in the micro module.

All matrix functions go through Hermitian eigendecompositions; state
eigenvalues are clamped to [1e-14, 1] before logs, with the clamped mass
emitted on the module logger.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.linalg import eigh, expm

from .errors import NotAState, NotOrthonormal, SingularReference, TooLarge

logger = logging.getLogger(__name__)

EIG_CLAMP = 1e-14
HERM_TOL = 1e-12


class DensityMatrix:
    """Hermitian positive semidefinite unit-trace matrix of dimension <= 64."""

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotAState("density matrix must be square")
        if mat.shape[0] > 64:
            raise NotAState(f"dimension {mat.shape[0]} exceeds the dense cap 64")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
            raise NotAState("matrix not Hermitian to 1e-12")
        vals, vecs = eigh(mat)
        if vals.min() < -1e-12:
            raise NotAState(f"negative eigenvalue {vals.min():.3e}")
        if abs(vals.sum() - 1.0) > 1e-12:
            raise NotAState(f"trace {vals.sum()!r} != 1 beyond 1e-12")
        self.mat = mat
        self.eigvals = vals
        self.eigvecs = vecs

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_unnormalized(cls, mat: np.ndarray) -> "DensityMatrix":
        mat = np.asarray(mat, dtype=complex)
        mat = 0.5 * (mat + mat.conj().T)
        return cls(mat / np.trace(mat).real)

    @classmethod
    def random(cls, dim: int, rng: np.random.Generator) -> "DensityMatrix":
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return cls.from_unnormalized(g @ g.conj().T)


def _clamped_log(vals: np.ndarray, label: str) -> np.ndarray:
    clamped = np.clip(vals, EIG_CLAMP, 1.0)
    mass = float(np.sum(np.abs(vals - clamped)))
    if mass > 0.0:
        logger.debug("clamped %.3e of spectral mass in %s before log", mass, label)
    return np.log(clamped)


def rel_entropy_dm(gamma: DensityMatrix, omega: DensityMatrix) -> float:
    """Relative entropy Tr gamma (log gamma - log omega); +inf when the
    kernel of omega is not contained in the kernel of gamma."""
    if gamma.dim != omega.dim:
        raise NotAState("dimension mismatch")
    kernel = omega.eigvals < EIG_CLAMP
    if np.any(kernel):
        vecs = omega.eigvecs[:, kernel]
        overlap = np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, gamma.mat, vecs))
        if np.any(overlap > 1e-12):
            return np.inf
    lg = gamma.eigvals
    # Tr gamma log gamma on the support of gamma
    pos = lg > EIG_CLAMP
    term1 = float(np.sum(lg[pos] * np.log(lg[pos])))
    log_omega = (omega.eigvecs * _clamped_log(omega.eigvals, "omega")) @ omega.eigvecs.conj().T
    term2 = float(np.real(np.trace(gamma.mat @ log_omega)))
    return term1 - term2


def entropy_inequality_gap(
    gamma: DensityMatrix, omega: DensityMatrix, h: np.ndarray, delta: float
) -> float:
    """Gap of the variational entropy inequality; >= 0, zero exactly at
    gamma = exp(delta h + log omega) / Tr(...)."""
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > HERM_TOL:
        raise NotAState("h must be Hermitian")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if omega.eigvals.min() < EIG_CLAMP:
        raise SingularReference(
            f"omega eigenvalue {omega.eigvals.min():.3e} below 1e-14"
        )
    log_omega = (omega.eigvecs * np.log(omega.eigvals)) @ omega.eigvecs.conj().T
    vals = eigh(delta * h + log_omega, eigvals_only=True)
    # log Tr e^M evaluated stably through the max eigenvalue
    vmax = vals.max()
    log_tr = vmax + np.log(np.sum(np.exp(vals - vmax)))
    expectation = float(np.real(np.trace(gamma.mat @ h)))
    return log_tr / delta + rel_entropy_dm(gamma, omega) / delta - expectation


def golden_thompson_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Tr e^A e^B - Tr e^{A+B} for Hermitian A, B; nonnegative, zero when
    [A, B] = 0."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for m in (a, b):
        if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
            raise NotAState("inputs must be Hermitian")
    lhs = np.real(np.trace(expm(a) @ expm(b)))
    rhs = np.real(np.trace(expm(a + b)))
    return float(lhs - rhs)


def peierls_gap(a: np.ndarray, frame: np.ndarray) -> float:
    """Tr e^A - sum_j exp(<phi_j, A phi_j>) for an orthonormal family given
    as columns of frame; >= 0, zero when the frame diagonalizes A, and only
    larger when vectors are omitted (every dropped term is positive)."""
    a = np.asarray(a, dtype=complex)
    if np.max(np.abs(a - a.conj().T)) > HERM_TOL:
        raise NotAState("A must be Hermitian")
    frame = np.asarray(frame, dtype=complex)
    if frame.ndim != 2:
        raise NotOrthonormal("frame must be a matrix of column vectors")
    gram = frame.conj().T @ frame
    if np.max(np.abs(gram - np.eye(frame.shape[1]))) > HERM_TOL:
        raise NotOrthonormal("columns not orthonormal to 1e-12")
    tr = float(np.sum(np.exp(eigh(a, eigvals_only=True))))
    diag = np.real(np.einsum("ji,jk,ki->i", frame.conj(), a, frame))
    return tr - float(np.sum(np.exp(diag)))


# ---------------------------------------------------------------------------
# explicit Fock-space construction
# ---------------------------------------------------------------------------


def jordan_wigner_annihilators(n_sites: int) -> list[np.ndarray]:
    """Annihilation operators on the 2^n Fock space, basis ordered by bit
    pattern (site 0 = most significant bit), with the (-1)^(# occupied below)
    string sign."""
    if n_sites > 6:
        raise TooLarge(f"{n_sites} sites exceeds the Fock oracle cap of 6")
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    s_minus = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1| with unoccupied first
    eye = np.eye(2)
    ops = []
    for j in range(n_sites):
        factors = [sz] * j + [s_minus] + [eye] * (n_sites - j - 1)
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        ops.append(full)
    return ops


def fock_oracle_gaussian(n_sites: int, kmat: np.ndarray) -> DensityMatrix:
    """Many-body density matrix proportional to exp(a+ K a), built by explicit
    second quantization; its one-particle correlations are (1 + e^-K)^-1."""
    kmat = np.asarray(kmat, dtype=complex)
    if kmat.shape != (n_sites, n_sites):
        raise ValueError("K must be n_sites x n_sites")
    if np.max(np.abs(kmat - kmat.conj().T)) > HERM_TOL:
        raise NotAState("K must be Hermitian")
    ann = jordan_wigner_annihilators(n_sites)
    dim = 2**n_sites
    quad = np.zeros((dim, dim), dtype=complex)
    for i in range(n_sites):
        for j in range(n_sites):
            if kmat[i, j] != 0.0:
                quad += kmat[i, j] * (ann[i].conj().T @ ann[j])
    vals, vecs = eigh(quad)
    # exp(quad)/Tr, normalized in the eigenbasis for stability
    w = np.exp(vals - vals.max())
    w /= w.sum()
    return DensityMatrix((vecs * w) @ vecs.conj().T)


def partial_trace(state: DensityMatrix, n_sites: int, keep: list[int]) -> DensityMatrix:
    """Reduce a Fock-space state to the modes in keep (bit-pattern basis)."""
    keep = sorted(keep)
    drop = [j for j in range(n_sites) if j not in keep]
    t = state.mat.reshape((2,) * (2 * n_sites))
    for j in reversed(drop):
        t = np.trace(t, axis1=j, axis2=j + t.ndim // 2)
    dim = 2 ** len(keep)
    return DensityMatrix(t.reshape(dim, dim))
