"""Entropy inequalities and the Fock-space Gaussian oracle."""

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from fermi_euler import entropy
from fermi_euler.entropy import (
    DensityMatrix,
    entropy_inequality_gap,
    fock_oracle_gaussian,
    golden_thompson_gap,
    jordan_wigner_annihilators,
    partial_trace,
    peierls_gap,
    rel_entropy_dm,
)
from fermi_euler.errors import NotAState, NotOrthonormal, SingularReference, TooLarge


def correlation_matrix(state: DensityMatrix, n_sites: int) -> np.ndarray:
    """One-particle correlations C[x, y] = <a+_y a_x> of a Fock-space state."""
    ann = jordan_wigner_annihilators(n_sites)
    c = np.empty((n_sites, n_sites), dtype=complex)
    for x in range(n_sites):
        for y in range(n_sites):
            c[x, y] = np.trace(state.mat @ ann[y].conj().T @ ann[x])
    return c


def random_hermitian(dim, rng, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


class TestDensityMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.diag([1.2, -0.2]))


class TestRelEntropy:
    def test_self_entropy_zero(self, rng):
        w = DensityMatrix.random(4, rng)
        assert abs(rel_entropy_dm(w, w)) < 1e-10

    def test_pure_vs_maximally_mixed(self, rng):
        d = 5
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        gamma = DensityMatrix(np.outer(v, v.conj()))
        omega = DensityMatrix(np.eye(d) / d)
        assert rel_entropy_dm(gamma, omega) == pytest.approx(np.log(d), abs=1e-10)

    def test_kernel_mismatch_is_infinite(self):
        omega = DensityMatrix(np.diag([1.0, 0.0]))
        gamma = DensityMatrix(np.diag([0.5, 0.5]))
        assert rel_entropy_dm(gamma, omega) == np.inf

    def test_nonnegative_and_faithful(self, rng):
        for _ in range(20):
            gamma = DensityMatrix.random(4, rng)
            omega = DensityMatrix.random(4, rng)
            s = rel_entropy_dm(gamma, omega)
            assert s >= -1e-10
            if s < 1e-10:
                assert np.max(np.abs(gamma.mat - omega.mat)) < 1e-5

    def test_monotone_under_partial_trace(self, rng):
        # restricting both states to a subset of modes never increases S
        n = 3
        for _ in range(20):
            gamma = DensityMatrix.random(2**n, rng)
            omega = DensityMatrix.random(2**n, rng)
            full = rel_entropy_dm(gamma, omega)
            red = rel_entropy_dm(
                partial_trace(gamma, n, [0, 2]), partial_trace(omega, n, [0, 2])
            )
            assert red <= full + 1e-9


class TestEntropyInequality:
    def test_h_zero_reduces_to_relative_entropy(self, rng):
        gamma = DensityMatrix.random(4, rng)
        omega = DensityMatrix.random(4, rng)
        gap = entropy_inequality_gap(gamma, omega, np.zeros((4, 4)), delta=1.3)
        assert gap == pytest.approx(rel_entropy_dm(gamma, omega) / 1.3, abs=1e-10)
        assert gap >= -1e-10

    def test_equality_case(self, rng):
        omega = DensityMatrix.random(4, rng)
        h = random_hermitian(4, rng)
        log_omega = (omega.eigvecs * np.log(omega.eigvals)) @ omega.eigvecs.conj().T
        gamma = DensityMatrix.from_unnormalized(expm(h + log_omega))
        assert abs(entropy_inequality_gap(gamma, omega, h, delta=1.0)) < 1e-9

    def test_random_triples_nonnegative(self, rng):
        for _ in range(100):
            gamma = DensityMatrix.random(4, rng)
            omega = DensityMatrix.random(4, rng)
            h = random_hermitian(4, rng)
            delta = rng.uniform(0.2, 2.0)
            assert entropy_inequality_gap(gamma, omega, h, delta) >= -1e-10

    def test_singular_reference_raises(self, rng):
        gamma = DensityMatrix.random(2, rng)
        omega = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SingularReference):
            entropy_inequality_gap(gamma, omega, np.zeros((2, 2)), delta=1.0)


class TestGoldenThompson:
    def test_commuting_equality(self, rng):
        a = np.diag(rng.normal(size=4))
        b = np.diag(rng.normal(size=4))
        assert abs(golden_thompson_gap(a, b)) < 1e-10

    def test_b_zero_exact(self, rng):
        a = random_hermitian(4, rng)
        assert abs(golden_thompson_gap(a, np.zeros((4, 4)))) < 1e-12

    def test_noncommuting_strictly_positive(self, rng):
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        assert golden_thompson_gap(a, b) > 0.0

    def test_random_nonnegative(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            a = random_hermitian(dim, rng, scale=rng.uniform(0.1, 2.0))
            b = random_hermitian(dim, rng, scale=rng.uniform(0.1, 2.0))
            assert golden_thompson_gap(a, b) >= -1e-10


class TestPeierls:
    def test_eigenframe_equality(self, rng):
        a = random_hermitian(4, rng)
        _, vecs = eigh(a)
        assert abs(peierls_gap(a, vecs)) < 1e-10

    def test_rotated_frame_strictly_positive(self, rng):
        a = random_hermitian(4, rng)
        _, vecs = eigh(a)
        rot = expm(1j * random_hermitian(4, rng, scale=0.3))
        assert peierls_gap(a, rot @ vecs) > 0.0

    def test_partial_frame_monotone(self, rng):
        # dropping positive terms only increases the gap
        a = random_hermitian(5, rng)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        full = peierls_gap(a, q)
        partial = peierls_gap(a, q[:, :3])
        assert partial >= full - 1e-12

    def test_random_nonnegative(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            a = random_hermitian(dim, rng, scale=rng.uniform(0.1, 2.0))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            assert peierls_gap(a, q) >= -1e-10

    def test_bad_frame_rejected(self, rng):
        a = random_hermitian(3, rng)
        with pytest.raises(NotOrthonormal):
            peierls_gap(a, np.ones((3, 2)))


class TestFockOracle:
    def test_anticommutation(self):
        ann = jordan_wigner_annihilators(3)
        for i in range(3):
            for j in range(3):
                acomm = ann[i] @ ann[j].conj().T + ann[j].conj().T @ ann[i]
                expected = np.eye(8) if i == j else np.zeros((8, 8))
                assert np.max(np.abs(acomm - expected)) < 1e-14
                azero = ann[i] @ ann[j] + ann[j] @ ann[i]
                assert np.max(np.abs(azero)) < 1e-14

    def test_diagonal_k_occupations(self):
        kdiag = np.array([0.7, -0.3, 1.1])
        state = fock_oracle_gaussian(3, np.diag(kdiag))
        c = correlation_matrix(state, 3)
        expected = 1.0 / (1.0 + np.exp(-kdiag))
        assert np.max(np.abs(np.diag(c).real - expected)) < 1e-12

    def test_k_zero_maximally_mixed(self):
        state = fock_oracle_gaussian(3, np.zeros((3, 3)))
        assert np.max(np.abs(state.mat - np.eye(8) / 8)) < 1e-12

    def test_random_k_correlations(self, rng):
        n = 4
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        k = 0.5 * (g + g.conj().T)
        state = fock_oracle_gaussian(n, k)
        c = correlation_matrix(state, n)
        vals, vecs = eigh(k)
        expected = (vecs * (1.0 / (1.0 + np.exp(-vals)))) @ vecs.conj().T
        assert np.max(np.abs(c - expected)) < 1e-10

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            fock_oracle_gaussian(7, np.zeros((7, 7)))


def test_clamp_reporting(caplog):
    import logging

    # gamma annihilates omega's near-kernel, so the clamped-log path runs
    gamma = DensityMatrix(np.diag([0.6, 0.4, 0.0]))
    omega = DensityMatrix.from_unnormalized(np.diag([1.0, 1.0, 1e-15]))
    with caplog.at_level(logging.DEBUG, logger="fermi_euler.entropy"):
        value = rel_entropy_dm(gamma, omega)
    assert np.isfinite(value)
    assert any("clamped" in rec.message for rec in caplog.records)
