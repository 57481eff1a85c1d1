"""Quasi-free lattice states: construction, dynamics, currents, windows."""

import struct
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh, expm
from scipy.linalg.blas import zherk
from scipy.special import expit

from fermi_euler import entropy, eos, micro
from fermi_euler.harness import experiments
from fermi_euler.harness.config import DEFAULT_PROFILE
from fermi_euler.errors import (
    BadWindow,
    CutoffTooLarge,
    NonFinite,
    NonpositiveBeta,
)
from fermi_euler.micro import (
    CurrentTensor,
    GaussianState,
    Lattice,
    MultiplierField,
    boost,
    coarse_grain,
    currents,
    densities,
    densities_rate,
    entropy_production,
    evolve,
    fields_to_csv,
    gibbs_chebyshev,
    gibbs_exponent,
    gibbs_gaussian,
    load_state,
    momentum_cutoff,
    rel_entropy_gaussian,
    save_state,
    spectral_derivative,
    to_momentum,
    to_position,
    window_chi_sq,
)
from test_entropy import correlation_matrix

SPECTRUM_TOL = 1e-10


def validate(state: GaussianState, tol: float = SPECTRUM_TOL) -> None:
    """Raise unless the spectrum of the state's correlations lies in [0, 1]."""
    vals = eigh(state.chat, eigvals_only=True)
    if vals.min() < -tol or vals.max() > 1.0 + tol:
        raise ValueError(
            f"spectrum [{vals.min():.3e}, {vals.max():.3e}] outside [0, 1]"
        )


def smooth_field(lattice, seed=0, beta0=2.5, amp=0.1):
    """Random smooth local-Gibbs multiplier field (low Fourier modes only)."""
    rng = np.random.default_rng(seed)
    X = lattice.sites * lattice.epsilon
    c = rng.normal(size=6) * amp

    return MultiplierField(
        lattice,
        lam0=0.3 + c[0] * np.cos(2 * np.pi * X) + c[1] * np.sin(4 * np.pi * X),
        lam1=c[2] * np.sin(2 * np.pi * X) + c[3] * np.cos(4 * np.pi * X),
        lam4=beta0 + c[4] * np.cos(2 * np.pi * X) + c[5] * np.sin(4 * np.pi * X),
    )


def rms(arr):
    return float(np.sqrt(np.mean(np.asarray(arr) ** 2)))


def dft_matrix(L):
    """Unitary DFT matrix W[k, x] = exp(-2 pi i k x / L) / sqrt(L)."""
    k = np.arange(L)
    return np.exp(-2j * np.pi * np.outer(k, k) / L) / np.sqrt(L)


def dense_momentum_op(L):
    """Position-space momentum operator W+ diag(p) W."""
    w = dft_matrix(L)
    return (w.conj().T * Lattice(L).momenta) @ w


def dense_exponent(lam0, lam1, lam4):
    """Position-space K = L0 + (L1 P + P L1)/2 - P L4 P / 2 by dense products."""
    p_op = dense_momentum_op(lam0.size)
    k = np.diag(lam0).astype(complex)
    k += 0.5 * (lam1[:, None] * p_op + p_op * lam1[None, :])
    k -= 0.5 * (p_op @ (lam4[:, None] * p_op))
    return 0.5 * (k + k.conj().T)


def fft_diagonal_field(symbol, chat):
    """Old readout: the diagonal of the position-space image of symbol * Chat."""
    return np.einsum("xx->x", np.fft.ifft(np.fft.fft(symbol * chat, axis=1), axis=0)).real


def density_symbols(lattice):
    """Dense symbol matrices S(k, q) of (n, p, h): 1, (p_k + p_q)/2, p_k p_q / 2."""
    p = lattice.momenta
    pk, pq = p[:, None], p[None, :]
    return np.ones((lattice.L, lattice.L)), 0.5 * (pk + pq), 0.5 * pk * pq


def generator(lattice, chat):
    """d/dt Chat = -i (eps_k - eps_q) Chat, built dense."""
    eps = lattice.dispersion
    return -1j * (eps[:, None] - eps[None, :]) * chat


def flux_symbol(lattice):
    """(eps_k - eps_q) / p_[k-q] off the diagonal, p_k on it, and 0 on the
    Nyquist diagonal k - q = L/2 of an even L: times S(k, q), the exact
    current symbol of the density of symbol S."""
    L = lattice.L
    p, eps = lattice.momenta, lattice.dispersion
    shift = (np.arange(L)[:, None] - np.arange(L)[None, :]) % L
    out = np.diag(p)
    off = (shift != 0) & (2 * shift != L)
    out[off] = (eps[:, None] - eps[None, :])[off] / p[shift[off]]
    return out


def continuity_residual(st):
    """d_t q + d_x w per component, from `densities_rate` and `currents`."""
    lat = st.lattice
    div = [spectral_derivative(w, lat) for w in currents(st).stack()]
    return densities_rate(st).stack() + np.stack(div)


def random_hermitian_state(lattice, rng):
    L = lattice.L
    g = rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L))
    return GaussianState(lattice, 0.01 * (g + g.conj().T))


class TestTransforms:
    def test_against_dense_dft(self, rng):
        w = dft_matrix(8)
        c = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        c = c @ c.conj().T
        assert np.max(np.abs(to_momentum(c) - w @ c @ w.conj().T)) < 1e-13
        assert np.max(np.abs(to_position(to_momentum(c)) - c)) < 1e-13

    def test_nyquist_at_plus_pi(self):
        lat = Lattice(16)
        assert lat.momenta[8] == pytest.approx(np.pi)
        assert np.all(lat.momenta > -np.pi)


class TestGibbs:
    def test_constant_field_fermi_occupations(self):
        lat = Lattice(256)
        beta, alpha, mu = 2.0, 0.4, 0.1
        st = gibbs_gaussian(lat, MultiplierField.constant(lat, beta, alpha, mu))
        p = lat.momenta
        f = 1.0 / (1.0 + np.exp(-(beta * mu + beta * alpha * p - 0.5 * beta * p**2)))
        assert np.max(np.abs(st.occupations() - f)) < 1e-10
        validate(st)

    def test_empty_gas(self):
        lat = Lattice(64)
        st = gibbs_gaussian(lat, MultiplierField.constant(lat, 1.0, 0.0, -40.0))
        assert np.max(np.abs(st.C)) < 1e-15

    def test_mean_density_matches_eos_dual(self):
        lat = Lattice(256)
        beta, alpha, mu = 2.0, 0.3, 0.1
        st = gibbs_gaussian(lat, MultiplierField.constant(lat, beta, alpha, mu))
        model = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=256)
        q = eos.dual_q(model, eos.MultiplierVector.from_physical(beta, alpha, mu))
        assert abs(densities(st).n.mean() - q.rho) < 1e-9

    def test_nonpositive_beta_rejected(self):
        lat = Lattice(32)
        with pytest.raises(NonpositiveBeta):
            MultiplierField.constant(lat, -1.0, 0.0, 0.0)

    def test_non_finite_multiplier_names_site(self):
        lat = Lattice(32)
        lam4 = np.full(32, 2.0)
        lam4[9] = np.nan
        with pytest.raises(NonFinite, match="lam4 is not finite at site 9"):
            MultiplierField(lat, lam0=np.zeros(32), lam1=np.zeros(32), lam4=lam4)

    def test_matches_fock_oracle(self, rng):
        lat = Lattice(5)
        lf = MultiplierField(
            lat,
            lam0=0.3 * rng.normal(size=5),
            lam1=0.2 * rng.normal(size=5),
            lam4=1.0 + 0.3 * rng.random(5),
        )
        st = gibbs_gaussian(lat, lf)
        oracle = entropy.fock_oracle_gaussian(5, to_position(gibbs_exponent(lf)))
        c_fock = correlation_matrix(oracle, 5)
        assert np.max(np.abs(c_fock - st.C)) < 1e-12


    @pytest.mark.parametrize("L", [64, 63])
    def test_exponent_against_dense_conjugation(self, L):
        lat = Lattice(L)
        lf = smooth_field(lat, seed=7, amp=0.3)
        w = dft_matrix(L)
        oracle = w @ dense_exponent(lf.lam0, lf.lam1, lf.lam4) @ w.conj().T
        assert np.max(np.abs(gibbs_exponent(lf) - oracle)) < 1e-12

    def test_exponent_of_constant_field_is_diagonal_symbol(self):
        lat = Lattice(32)
        beta, alpha, mu = 2.0, 0.4, 0.1
        khat = gibbs_exponent(MultiplierField.constant(lat, beta, alpha, mu))
        p = lat.momenta
        symbol = beta * mu + beta * alpha * p - 0.5 * beta * p**2
        assert np.max(np.abs(khat - np.diag(symbol))) < 1e-14

    def test_entropy_from_exponent_spectrum(self):
        lat = Lattice(64)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=8))
        vals = np.clip(np.linalg.eigvalsh(st.C), 1e-300, 1.0 - 1e-16)
        dense = -np.sum(vals * np.log(vals) + (1 - vals) * np.log1p(-vals))
        assert st.s_vn == pytest.approx(dense, abs=1e-11)
        assert evolve(st, 2.0).s_vn == st.s_vn

    def test_nan_state_names_entry(self):
        lat = Lattice(16)
        chat = gibbs_gaussian(lat, smooth_field(lat, seed=1)).chat.copy()
        chat[3, 11] = np.nan
        with pytest.raises(NonFinite, match=r"Chat is not finite at entry \(3, 11\)"):
            GaussianState(lat, chat)
        c = np.eye(16, dtype=complex) * 0.5
        c[5, 2] = np.inf
        with pytest.raises(NonFinite, match=r"C is not finite at entry \(5, 2\)"):
            GaussianState.from_position(lat, c)

    def test_nan_field_names_site(self):
        lat = Lattice(16)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=1))
        diagonals = st.diagonals.copy()
        diagonals[-st.offsets[0], 4] = np.nan  # Chat[4, 4]
        # a state that got past the constructor's checks
        poisoned = GaussianState._exact(lat, diagonals, st.offsets)
        with pytest.raises(NonFinite, match="field is not finite at site 0"):
            densities(poisoned)
        values = np.ones(16, dtype=complex)
        values[6] = np.nan
        with pytest.raises(NonFinite, match="field is not finite at site 6"):
            micro._real_field(values)

def profile_field(lattice, profile):
    """Multiplier field of a config profile at the lattice sites."""
    model = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=4096)
    X = lattice.sites * lattice.epsilon
    return MultiplierField(lattice, *experiments.lam_sites_from_profile(profile, X, model))


def lambda_cos_field(lattice):
    return profile_field(lattice, DEFAULT_PROFILE)


Q_COS = {"kind": "q-cos", "params": {"rho": 0.177, "rho_amp": 0.01, "mom_amp": 0.01,
                                     "mom_phase": 0.5, "e": 0.048, "e_amp": 0.0025,
                                     "e_phase": 1.0}}


def gram(w):
    """w w+ mirrored whole from one Hermitian rank-k update's lower triangle,
    the main diagonal made real."""
    low = zherk(1.0, w, lower=1)
    full = low + low.conj().T
    full.flat[:: w.shape[0] + 1] = low.diagonal().real
    return full


def dense_gibbs(lf):
    """The dense build as a full matrix: eigh of Khat, Chat = V f(kappa) V+
    with the package's Fermi factor f, mirrored whole by `gram`."""
    kappa, vecs = eigh(gibbs_exponent(lf), overwrite_a=True, check_finite=False)
    return gram(vecs * np.sqrt(eos.fermi(kappa))), micro._mode_entropy(kappa)


class TestChebyshevGibbs:
    @pytest.mark.parametrize("L", [63, 64, 512, 1024])
    @pytest.mark.parametrize("make", [lambda_cos_field, smooth_field], ids=["lambda-cos", "smooth"])
    def test_matches_dense_eigh(self, L, make):
        lat = Lattice(L)
        lf = make(lat)
        st = gibbs_chebyshev(lf)
        chat, s_vn = dense_gibbs(lf)
        assert np.max(np.abs(st.chat - chat)) <= 1e-12
        assert st.s_vn == pytest.approx(s_vn, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("L", [63, 64, 65, 256])
    @pytest.mark.parametrize("make", [lambda_cos_field, smooth_field], ids=["lambda-cos", "smooth"])
    def test_cut_band_matches_dense_eigh(self, L, make, monkeypatch):
        # the cut band: contiguous offsets around 0, and a bound <= CHEB_TOL
        # on its 2-norm distance to the band the recurrence built
        lf = make(Lattice(L))
        st = gibbs_chebyshev(lf)
        c = st.offsets[-1]
        assert np.array_equal(st.offsets, np.arange(-c, c + 1))
        assert 2 * c + 1 < L
        assert 0.0 < st.cut_bound <= micro.CHEB_TOL
        with monkeypatch.context() as m:
            m.setattr(micro, "_band_cut", lambda band, L: (band.shape[0] - 1, 0.0))
            uncut = gibbs_chebyshev(lf)
        assert uncut.diagonals.shape[0] > st.diagonals.shape[0]
        assert np.linalg.norm(st.chat - uncut.chat, 2) <= st.cut_bound
        assert st.s_vn == uncut.s_vn
        # against the dense build, within the dense build's own round-off
        # (eigh and the Gram product leave 2.2e-14 in Chat at L = 256)
        chat, s_vn = dense_gibbs(lf)
        assert np.max(np.abs(st.chat - chat)) <= 5e-14
        assert np.max(np.abs(st.chat - chat)) <= np.max(np.abs(uncut.chat - chat)) + 1e-14
        assert st.s_vn == pytest.approx(s_vn, rel=1e-13, abs=0.0)

    def test_band_cut_drops_outer_pairs_within_the_tolerance(self):
        # row o holds offset o; largest entries 1, 1e-3, 4e-15, 1e-15, 5e-16
        # (the last an even L's Nyquist diagonal, counted once): 5e-16 + 2e-15
        # fits in CHEB_TOL, 8e-15 more does not
        L = 8
        band = np.zeros((5, L), dtype=complex)
        for o, top in enumerate([1.0, 1e-3, 4e-15, 1e-15, 5e-16]):
            band[o, o] = top * (0.6 + 0.8j)
        assert micro._band_cut(band, L) == (2, pytest.approx(2.5e-15, rel=1e-12))
        assert micro._band_cut(band, 10) == (2, pytest.approx(3e-15, rel=1e-12))
        assert micro._band_cut(band[:2], L) == (1, 0.0)
        assert micro._band_cut(np.zeros((3, L), dtype=complex), L) == (0, 0.0)

    def test_lambda_cos_is_tridiagonal_and_takes_the_recurrence(self):
        lat = Lattice(512)
        lf = lambda_cos_field(lat)
        fields = (lf.lam0, lf.lam1, lf.lam4)
        modes = micro._field_modes(*fields)
        assert micro._exponent_width(modes, max(np.max(np.abs(f)) for f in fields)) == 1
        assert micro._chebyshev_plan(lf, micro.CHEB_CROSSOVER * 512.0**3) is not None
        st = gibbs_gaussian(lat, lf)
        assert np.array_equal(st.chat, gibbs_chebyshev(lf).chat)

    def test_diagonals_are_the_dense_exponent(self):
        lat = Lattice(64)
        lf = smooth_field(lat, seed=7, amp=0.3)
        khat = gibbs_exponent(lf)
        diag = micro._exponent_diagonals(lat, micro._field_modes(lf.lam0, lf.lam1, lf.lam4), 2)
        k = np.arange(64)
        for j in range(-2, 3):
            assert np.array_equal(diag[2 + j], khat[k, (k + j) % 64])

    def test_constant_field_stays_diagonal(self):
        lat = Lattice(512)
        beta, alpha, mu = 2.0, 0.4, 0.1
        lf = MultiplierField.constant(lat, beta, alpha, mu)
        assert micro._chebyshev_plan(lf, micro.CHEB_CROSSOVER * 512.0**3)[0].shape == (1, 512)
        st = gibbs_gaussian(lat, lf)
        p = lat.momenta
        occ = expit(beta * mu + beta * alpha * p - 0.5 * beta * p**2)
        assert np.count_nonzero(st.chat - np.diag(st.chat.diagonal())) == 0
        assert np.max(np.abs(st.occupations() - occ)) < 1e-14

    @pytest.mark.parametrize("L", [64, 512])
    def test_exactly_hermitian(self, L):
        lat = Lattice(L)
        st = gibbs_chebyshev(smooth_field(lat, seed=4))
        assert np.array_equal(st.chat, st.chat.conj().T)

    def test_degree_tail_bound(self):
        from numpy.polynomial import chebyshev

        a, b = -13.4, 0.33
        coef_f, coef_h, dropped = micro._chebyshev_series(a, b, micro.CHEB_MAX_DEGREE)
        assert dropped < micro.CHEB_TOL
        # the cut series against the functions: within the dropped sum
        x = np.linspace(a, b, 4001)
        t = (2.0 * x - a - b) / (b - a)
        assert np.max(np.abs(chebyshev.chebval(t, coef_f) - expit(x))) <= micro.CHEB_TOL
        h = np.logaddexp(0.0, x) - x * expit(x)
        assert np.max(np.abs(chebyshev.chebval(t, coef_h) - h)) <= micro.CHEB_TOL
        # the FFT coefficients are numpy's interpolant's
        f = lambda s: expit(0.5 * (b - a) * s + 0.5 * (a + b))  # noqa: E731
        assert np.max(np.abs(eos.chebyshev_coefficients(f(eos.chebyshev_points(41)))
                             - chebyshev.chebinterpolate(f, 40))) < 1e-14

    def test_wide_exponent_takes_eigh(self):
        lat = Lattice(1024)
        lf = profile_field(lat, Q_COS)
        fields = (lf.lam0, lf.lam1, lf.lam4)
        modes = micro._field_modes(*fields)
        assert micro._exponent_width(modes, max(np.max(np.abs(f)) for f in fields)) > 8
        assert micro._chebyshev_plan(lf, micro.CHEB_CROSSOVER * 1024.0**3) is None
        st = gibbs_gaussian(lat, lf)
        chat, s_vn = dense_gibbs(lf)
        assert np.array_equal(st.chat, chat)
        assert st.s_vn == s_vn

    @pytest.mark.parametrize("L", [8, 9, 64, 512])
    def test_dense_build_reads_its_diagonals_from_the_gram_triangle(self, L):
        # the diagonals read from the lower triangle are bitwise those of the
        # mirrored full matrix, and S_vN is the same, on a wide field
        lat = Lattice(L)
        lf = profile_field(lat, Q_COS)
        assert micro._chebyshev_plan(lf, micro.CHEB_CROSSOVER * float(L) ** 3) is None
        st = gibbs_gaussian(lat, lf)
        chat, s_vn = dense_gibbs(lf)
        assert np.array_equal(st.offsets, micro._all_offsets(L))
        assert np.array_equal(st.diagonals, micro._to_diagonals(chat, st.offsets))
        assert st.s_vn == s_vn

    def test_dense_build_holds_two_dense_arrays(self):
        # Khat overwritten by eigh, the eigenvectors scaled in place and freed
        # before the diagonals are read: at most two L x L complex arrays live
        # at once, against five when each step made a copy
        lat = Lattice(512)
        lf = profile_field(lat, Q_COS)
        tracemalloc.start()
        try:
            gibbs_gaussian(lat, lf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 16 * 512**2

    def test_dense_arrays_are_fortran_ordered(self):
        lat = Lattice(16)
        lf = smooth_field(lat, seed=3)
        khat = gibbs_exponent(lf)
        assert khat.flags.f_contiguous and not khat.flags.c_contiguous
        st = gibbs_gaussian(lat, lf)
        for fortran in (False, True):
            dense = micro._to_dense(st.diagonals, st.offsets, fortran=fortran)
            assert dense.flags.f_contiguous == fortran
            assert np.array_equal(dense, st.chat)

    def test_aliasing_modes_rejected(self):
        lat = Lattice(8)
        lam4 = 2.0 + 0.1 * (-1.0) ** lat.sites  # the Nyquist mode: w_K = L/2
        lf = MultiplierField(lat, lam0=np.zeros(8), lam1=np.zeros(8), lam4=lam4)
        with pytest.raises(ValueError, match="alias"):
            gibbs_chebyshev(lf)
        chat, _ = dense_gibbs(lf)
        assert np.array_equal(gibbs_gaussian(lat, lf).chat, chat)


def hot_field(lattice):
    """A one-harmonic field hot enough (lam4 ~ 0.4) that the recurrence's
    degree is low: a band of 37 diagonals, narrower than 63 sites."""
    X = lattice.sites * lattice.epsilon
    return MultiplierField(lattice, 0.1 + 0.05 * np.cos(2 * np.pi * X),
                           0.05 * np.sin(2 * np.pi * X),
                           0.4 + 0.04 * np.cos(2 * np.pi * X + 0.3))


class TestBandedState:
    """States from the recurrence hold their band of wrapped diagonals: every
    map and readout against the dense Chat oracles, at the tolerances of the
    dense-path tests."""

    @staticmethod
    def gibbs(L, kind):
        """The state and its field: a band narrower than L, or one folded
        onto all L diagonals, each then cut."""
        lat = Lattice(L)
        lf = hot_field(lat) if kind == "band" else lambda_cos_field(lat)
        diag, coef_f = micro._chebyshev_plan(lf, np.inf)[:2]
        assert ((diag.shape[0] - 1) * (len(coef_f) - 1) + 1 > L) == (kind == "folded")
        st = gibbs_chebyshev(lf)
        assert st.diagonals.shape[0] < L
        return st, lf

    @pytest.mark.parametrize("L", [63, 64, 65])
    @pytest.mark.parametrize("kind", ["band", "folded"])
    def test_fields_rates_currents_against_dense(self, L, kind):
        st = evolve(self.gibbs(L, kind)[0], 0.3 * L)
        lat = st.lattice
        chat = st.chat
        rate = generator(lat, chat)
        flux = flux_symbol(lat)
        cut = momentum_cutoff(lat, 1.5)
        t = cut.transfer / cut.operator_scale
        smeared = t[:, None] * chat * t
        for sym, n, dn, w, w_cut in zip(density_symbols(lat), densities(st).stack(),
                                        densities_rate(st).stack(), currents(st).stack(),
                                        currents(st, cut).stack()):
            assert np.max(np.abs(n - fft_diagonal_field(sym, chat))) < 1e-13
            assert np.max(np.abs(dn - fft_diagonal_field(sym, rate))) < 1e-13
            assert np.max(np.abs(w - fft_diagonal_field(sym * flux, chat))) < 1e-13
            assert np.max(np.abs(w_cut - fft_diagonal_field(sym * flux, smeared))) < 1e-13
        assert np.max(np.abs(densities_rate(st).stack())) > 1e-4

    @pytest.mark.parametrize("L", [63, 64, 65])
    @pytest.mark.parametrize("kind", ["band", "folded"])
    def test_evolve_boost_and_entropies_against_dense(self, L, kind):
        st, lf = self.gibbs(L, kind)
        lat = st.lattice
        chat = st.chat
        for t in (0.7, -2.3, 0.3 * L):
            phase = np.exp(-1j * t * lat.dispersion)
            oracle = phase[:, None] * chat * phase.conj()
            assert np.max(np.abs(evolve(st, t).chat - oracle)) < 1e-14
        assert np.array_equal(boost(st, 5).chat, np.roll(chat, (5, 5), axis=(0, 1)))
        vals = np.clip(np.linalg.eigvalsh(chat), 1e-300, 1.0 - 1e-16)
        dense_s = -np.sum(vals * np.log(vals) + (1 - vals) * np.log1p(-vals))
        assert st.s_vn == pytest.approx(dense_s, abs=1e-11)
        # against a nearby reference, the closed form of the banded state and
        # the two-spectrum form of either state against that of the dense Chat
        gamma = evolve(st, 0.3 * L)
        bare = GaussianState(lat, gamma.chat)
        near = MultiplierField(lat, 1.05 * lf.lam0, lf.lam1, 1.02 * lf.lam4)
        omega = gibbs_gaussian(lat, near)
        two_spectrum = rel_entropy_gaussian(bare, omega)[0]
        assert two_spectrum > 1e-4
        assert rel_entropy_gaussian(gamma, near)[0] == pytest.approx(two_spectrum, abs=1e-12)
        assert rel_entropy_gaussian(gamma, omega)[0] == pytest.approx(two_spectrum, abs=1e-12)

    def test_band_wider_than_the_lattice_folds(self):
        lat = Lattice(64)
        lf = lambda_cos_field(lat)
        diag, coef_f = micro._chebyshev_plan(lf, np.inf)[:2]
        assert (diag.shape[0] - 1) * (len(coef_f) - 1) + 1 > 64  # 2 n w + 1
        st = gibbs_chebyshev(lf)
        # folded onto offsets -31 .. 32, then cut to those above round-off
        assert np.array_equal(st.offsets, np.arange(-10, 11))
        assert 0.0 < st.cut_bound <= micro.CHEB_TOL
        chat, s_vn = dense_gibbs(lf)
        assert np.max(np.abs(st.chat - chat)) <= 1e-12
        assert np.array_equal(st.chat, st.chat.conj().T)

    def test_even_lattice_nyquist_diagonal(self):
        # the folded band of an even L stores the offset L/2 once, as its own
        # Hermitian partner: its second half is the conjugate of its first
        lat = Lattice(8)
        lf = lambda_cos_field(lat)
        st = gibbs_chebyshev(lf)
        nyquist = st.diagonals[st.offsets == 4][0]
        assert np.max(np.abs(nyquist)) > 1e-6
        assert np.array_equal(nyquist[4:], nyquist[:4].conj())
        k = np.arange(8)
        assert np.array_equal(st.chat[k, (k + 4) % 8], nyquist)
        assert np.array_equal(st.chat, st.chat.conj().T)
        chat, _ = dense_gibbs(lf)
        assert np.max(np.abs(st.chat - chat)) <= 1e-12
        for sym, n in zip(density_symbols(lat), densities(st).stack()):
            assert np.max(np.abs(n - fft_diagonal_field(sym, chat))) < 1e-13

    def test_dense_input_holds_every_diagonal(self, rng):
        lat = Lattice(64)
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        chat = 0.5 * (a + a.conj().T)
        st = GaussianState(lat, chat)
        assert np.array_equal(st.offsets, np.arange(-31, 33))
        assert np.array_equal(st.chat, chat)
        assert np.array_equal(st.occupations(), chat.diagonal().real)

    def test_lambda_cos_at_4096_stays_far_below_one_dense_matrix(self):
        # one dense L x L complex Chat at L = 4096 is 256 MiB; the banded
        # build, evolution, fields, rates and currents peak at about 10 MiB:
        # the recurrence's half band of 49 diagonals and its two Chebyshev
        # terms, then a state cut to 25 diagonals
        lat = Lattice(4096)
        lf = lambda_cos_field(lat)
        tracemalloc.start()
        try:
            st = evolve(gibbs_gaussian(lat, lf), 0.02 * 4096)
            densities(st), densities_rate(st), currents(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.diagonals.shape == (25, 4096)
        assert peak < 24 * 2**20


def gathered_shifted(values, offsets):
    """`micro._shifted` as first written: an (offsets x L) copy gathered by
    fancy index from the L x L view of the values tiled twice."""
    L = values.size
    v2 = np.concatenate((values, values))
    partner = np.lib.stride_tricks.as_strided(v2, shape=(L, L), strides=(v2.strides[0],) * 2)
    return partner[offsets % L]


class TestShiftedView:
    @pytest.mark.parametrize("L", [7, 8, 64, 65, 512])
    def test_view_matches_the_gathered_copy(self, L, rng, monkeypatch):
        # on a dense state (every offset) and on a banded one, the fields,
        # their rates and the evolved diagonals are bitwise those read
        # through the gathered copy
        lat = Lattice(L)
        states = [random_hermitian_state(lat, rng), gibbs_gaussian(lat, hot_field(lat))]

        def outputs():
            return [(densities(st).stack(), densities_rate(st).stack(),
                     evolve(st, 3.0).diagonals) for st in states]

        got = outputs()
        monkeypatch.setattr(micro, "_shifted", gathered_shifted)
        for mine, gathered in zip(got, outputs()):
            assert all(map(np.array_equal, mine, gathered))

    def test_dense_densities_hold_no_offsets_by_L_copy(self, rng):
        # the symbol product is the one offsets x L complex array besides
        # the state's own diagonals: 1.04 L x L complex arrays at the peak,
        # against 1.53 when the shifted momenta were a gathered copy
        L = 512
        st = random_hermitian_state(Lattice(L), rng)
        tracemalloc.start()
        try:
            densities(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 16 * L**2


class TestEvolve:
    def test_homogeneous_gibbs_stationary(self):
        lat = Lattice(128)
        st = gibbs_gaussian(lat, MultiplierField.constant(lat, 2.0, 0.3, 0.1))
        assert np.max(np.abs(evolve(st, 5.0).C - st.C)) < 1e-10

    def test_drift_sign(self):
        # a positive-momentum packet must move toward larger x at rate = momentum
        lat = Lattice(128)
        x = lat.sites.astype(float)
        phi = np.exp(-0.5 * ((x - 40) / 6) ** 2) * np.exp(1j * 0.8 * x)
        phi /= np.linalg.norm(phi)
        st = GaussianState.from_position(lat, np.outer(phi, phi.conj()))
        d0, d1 = densities(st), densities(evolve(st, 2.0))
        com0 = (x * d0.n).sum() / d0.n.sum()
        com1 = (x * d1.n).sum() / d1.n.sum()
        assert com1 - com0 == pytest.approx(2.0 * d0.p.sum(), rel=1e-6)
        assert com1 > com0

    def test_mode_occupations_preserved(self, rng):
        lat = Lattice(128)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=3))
        ev = evolve(st, 3.0)
        assert np.max(np.abs(st.occupations() - ev.occupations())) < 1e-10

    def test_unitarity_spectrum_and_totals(self):
        lat = Lattice(128)
        for seed in range(10):
            st = gibbs_gaussian(lat, smooth_field(lat, seed=seed))
            t = 0.5 + seed
            ev = evolve(st, t)
            s0 = np.sort(np.linalg.eigvalsh(st.C))
            s1 = np.sort(np.linalg.eigvalsh(ev.C))
            assert np.max(np.abs(s0 - s1)) < 1e-10
            assert np.max(np.abs(np.array(densities(st).totals()) -
                                 np.array(densities(ev).totals()))) < 1e-10


    def test_against_dense_propagator(self):
        lat = Lattice(48)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=9, amp=0.3))
        w = dft_matrix(48)
        h1 = (w.conj().T * lat.dispersion) @ w
        for t in (0.7, -2.3, 11.0):
            u = expm(-1j * t * h1)
            oracle = u @ st.C @ u.conj().T
            assert np.max(np.abs(evolve(st, t).C - oracle)) < 1e-13

    def test_rate_matches_centered_difference(self):
        lat = Lattice(128)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=4))
        h = 1e-4
        fd = (densities(evolve(st, h)).stack() - densities(evolve(st, -h)).stack()) / (2 * h)
        exact = densities_rate(st).stack()
        assert np.max(np.abs(exact - fd)) < 1e-8
        assert np.max(np.abs(exact)) > 1e-4

class TestDensitiesCurrents:
    def test_homogeneous_match_eos(self):
        lat = Lattice(512)
        beta, alpha, mu = 2.0, 0.4, 0.1
        st = gibbs_gaussian(lat, MultiplierField.constant(lat, beta, alpha, mu))
        model = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=512)
        q = eos.dual_q(model, eos.MultiplierVector.from_physical(beta, alpha, mu))
        d = densities(st)
        assert abs(d.n.mean() - q.rho) < 1e-8
        assert abs(d.p.mean() - q.mom[0]) < 1e-8
        assert abs(d.h.mean() - q.e) < 1e-8

    def test_alpha_parity(self):
        # odd L: no Nyquist mode, so the momentum grid is parity symmetric
        # and alpha -> -alpha is an exact reflection
        lat = Lattice(127)
        dp = densities(gibbs_gaussian(lat, MultiplierField.constant(lat, 2.0, 0.35, 0.1)))
        dm = densities(gibbs_gaussian(lat, MultiplierField.constant(lat, 2.0, -0.35, 0.1)))
        assert np.max(np.abs(dp.p + dm.p)) < 1e-12
        assert np.max(np.abs(dp.n - dm.n)) < 1e-12
        assert np.max(np.abs(dp.h - dm.h)) < 1e-12

    def test_alpha_parity_even_lattice_nyquist_bound(self):
        # on even L the one-sided Nyquist mode breaks exact parity by its
        # occupation e^{g(pi)}; check the deviation is exactly that small
        lat = Lattice(128)
        beta, alpha, mu = 2.0, 0.35, 0.1
        dp = densities(gibbs_gaussian(lat, MultiplierField.constant(lat, beta, alpha, mu)))
        dm = densities(gibbs_gaussian(lat, MultiplierField.constant(lat, beta, -alpha, mu)))
        nyq_occ = np.exp(beta * (mu + alpha * np.pi - 0.5 * np.pi**2))
        assert np.max(np.abs(dp.n - dm.n)) < 10 * nyq_occ
        assert np.max(np.abs(dp.p + dm.p)) < 10 * np.pi * nyq_occ

    def test_homogeneous_alpha_zero_currents_vanish(self):
        lat = Lattice(127)
        c = currents(gibbs_gaussian(lat, MultiplierField.constant(lat, 2.0, 0.0, 0.1)))
        assert np.max(np.abs(c.w0)) < 1e-12
        assert np.max(np.abs(c.w4)) < 1e-12

    def test_current_expectations_cold(self):
        # Gibbs current expectations (w0, w1, w4) = (q1, a^2 rho + P, a (e + P))
        # hold on the Brillouin domain once the zone-edge occupation is negligible
        lat = Lattice(512)
        beta, alpha, mu = 6.0, 0.2, 0.1
        st = gibbs_gaussian(lat, MultiplierField.constant(lat, beta, alpha, mu))
        model = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=512)
        lam = eos.MultiplierVector.from_physical(beta, alpha, mu)
        q = eos.dual_q(model, lam)
        p = eos.pressure_psi(model, lam) / beta
        c = currents(st)
        assert abs(c.w0.mean() - q.mom[0]) / abs(q.mom[0]) < 1e-6
        assert abs(c.w1.mean() - (alpha**2 * q.rho + p)) / (alpha**2 * q.rho + p) < 1e-6
        assert abs(c.w4.mean() - alpha * (q.e + p)) / abs(alpha * (q.e + p)) < 1e-6

    def test_current_expectations_warm_at_tail_bound(self):
        # at beta = 2, alpha = 0.4 the zone-boundary terms ~ e^{g(pi)} break
        # the continuum identity at the 1e-3 level; assert agreement at the
        # tail bound instead (see the decisions ledger)
        lat = Lattice(512)
        beta, alpha, mu = 2.0, 0.4, 0.1
        st = gibbs_gaussian(lat, MultiplierField.constant(lat, beta, alpha, mu))
        model = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=512)
        lam = eos.MultiplierVector.from_physical(beta, alpha, mu)
        q = eos.dual_q(model, lam)
        p = eos.pressure_psi(model, lam) / beta
        c = currents(st)
        tail = np.exp(beta * (mu + alpha * np.pi - 0.5 * np.pi**2))
        rel_w1 = abs(c.w1.mean() - (alpha**2 * q.rho + p)) / (alpha**2 * q.rho + p)
        assert rel_w1 < 50.0 * tail
        assert rel_w1 > 0.1 * tail  # the boundary term is genuinely there

    def test_microscopic_continuity(self):
        # acceptance norm: L2 on the unit torus, sqrt(mean_x r^2), dt = 1e-4
        lat = Lattice(128)
        dt = 1e-4
        for seed in range(5):
            st = gibbs_gaussian(lat, smooth_field(lat, seed=seed))
            dp = densities(evolve(st, dt))
            dm = densities(evolve(st, -dt))
            dudt = (dp.stack() - dm.stack()) / (2 * dt)
            cur = currents(st)
            div = np.stack([spectral_derivative(w, lat) for w in (cur.w0, cur.w1, cur.w4)])
            resid = dudt + div
            assert max(rms(r) for r in resid) < 1e-6

    def test_boost_automorphism(self):
        lat = Lattice(256)
        st = gibbs_gaussian(lat, MultiplierField.constant(lat, 6.0, 0.0, 0.0))
        m = 3
        s = 2 * np.pi * m / 256
        n0, p0, e0 = densities(st).totals()
        nb, pb, eb = densities(boost(st, m)).totals()
        assert abs(nb - n0) < 1e-10
        assert abs((pb - p0) - s * n0) < 1e-9
        assert abs((eb - e0) - (s * p0 + 0.5 * s**2 * n0)) < 1e-9


    def test_fields_against_2d_fft_diagonal(self, rng):
        lat = Lattice(64)
        st = random_hermitian_state(lat, rng)
        d, c = densities(st), currents(st)
        flux = flux_symbol(lat)
        sym_n, sym_p, sym_h = density_symbols(lat)
        oracle = {
            "n": fft_diagonal_field(sym_n, st.chat),
            "p": fft_diagonal_field(sym_p, st.chat),
            "h": fft_diagonal_field(sym_h, st.chat),
            "w0": fft_diagonal_field(sym_n * flux, st.chat),
            "w1": fft_diagonal_field(sym_p * flux, st.chat),
            "w4": fft_diagonal_field(sym_h * flux, st.chat),
        }
        got = {"n": d.n, "p": d.p, "h": d.h, "w0": c.w0, "w1": c.w1, "w4": c.w4}
        for name, want in oracle.items():
            assert np.max(np.abs(got[name] - want)) < 1e-13, name

    @pytest.mark.parametrize("L", [64, 65])
    def test_densities_and_rate_against_dense_construction(self, L):
        lat = Lattice(L)
        st = evolve(gibbs_gaussian(lat, smooth_field(lat, seed=6, amp=0.3)), 0.3 * L)
        rate = generator(lat, st.chat)
        for sym, dens, dot in zip(density_symbols(lat), densities(st).stack(),
                                  densities_rate(st).stack()):
            assert np.max(np.abs(dens - fft_diagonal_field(sym, st.chat))) < 1e-13
            assert np.max(np.abs(dot - fft_diagonal_field(sym, rate))) < 1e-13
        assert np.max(np.abs(densities_rate(st).stack())) > 1e-3

    @pytest.mark.parametrize("L", [64, 65, 256, 257])
    def test_continuity_exact_on_gibbs_states(self, L):
        lat = Lattice(L)
        for seed in range(3):
            st = gibbs_gaussian(lat, smooth_field(lat, seed=seed))
            assert np.max(np.abs(continuity_residual(st))) < 1e-13
            assert np.max(np.abs(continuity_residual(evolve(st, 0.1 * L)))) < 1e-13

    @pytest.mark.parametrize("L", [64, 65])
    def test_continuity_exact_on_random_hermitian_chat(self, L, rng):
        # every mode at odd L; at even L every mode but Nyquist, where the
        # residual is the rate's own Nyquist mode
        lat = Lattice(L)
        st = random_hermitian_state(lat, rng)
        resid = np.fft.fft(continuity_residual(st)) / L
        rate = np.fft.fft(densities_rate(st).stack()) / L
        if L % 2 == 0:
            assert np.min(np.abs(rate[:, L // 2])) > 1e-4
            assert np.max(np.abs(resid[:, L // 2] - rate[:, L // 2])) < 1e-13
            resid[:, L // 2] = 0.0
        assert np.max(np.abs(resid)) < 1e-13

    def test_umklapp_current_departs_from_continuum_symbol(self):
        # the lambda-cos state carries zone-edge pairs: the exact particle
        # current is not the momentum density there
        lat = Lattice(256)
        model = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=4096)
        lam = experiments.lam_sites_from_profile(DEFAULT_PROFILE, lat.sites * lat.epsilon, model)
        st = evolve(gibbs_gaussian(lat, MultiplierField(lat, *lam)), 5.12)
        gap = np.max(np.abs(currents(st).w0 - densities(st).p))
        assert 1e-12 < gap < 1e-5

    def test_boost_against_position_phases(self):
        lat = Lattice(64)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=2))
        phase = np.exp(1j * 2 * np.pi * 5 * lat.sites / 64)
        oracle = phase[:, None] * st.C * phase.conj()[None, :]
        assert np.max(np.abs(boost(st, 5).C - oracle)) < 1e-14

class TestCutoff:
    def test_properties_at_m2(self):
        lat = Lattice(1024)
        cut = momentum_cutoff(lat, 2.0)
        assert abs(cut.kernel.sum() - 1.0) < 1e-12
        band = np.abs(lat.momenta) <= 2.0
        assert np.max(np.abs(cut.transfer[band] - 1.0)) <= np.exp(-4.0) + 1e-9

    def test_stopband_at_m_1_5(self):
        # 2M = 3 < pi, so the grid sees the stop band
        lat = Lattice(1024)
        cut = momentum_cutoff(lat, 1.5)
        stop = np.abs(lat.momenta) >= 3.0
        assert stop.any()
        assert np.max(np.abs(cut.transfer[stop])) <= np.exp(-1.5**2) + 1e-9
        band = np.abs(lat.momenta) <= 1.5
        assert np.max(np.abs(cut.transfer[band] - 1.0)) <= np.exp(-1.5**2) + 1e-9

    def test_smeared_state_spectrum(self):
        lat = Lattice(1024)
        cut = momentum_cutoff(lat, 2.0)
        st = gibbs_gaussian(lat, MultiplierField.constant(lat, 2.0, 0.3, 0.1))
        vals = np.linalg.eigvalsh(cut.smear(st).C)
        assert vals.min() > -1e-12
        assert vals.max() < 1.0 + 1e-12
        assert cut.operator_scale >= 1.0

    def test_too_large_rejected(self):
        with pytest.raises(CutoffTooLarge):
            momentum_cutoff(Lattice(256), 2.4)
        with pytest.raises(CutoffTooLarge):
            momentum_cutoff(Lattice(256), 0.5)


class TestCoarseGrain:
    def test_partition_of_unity(self):
        ts = np.linspace(-3.0, 3.0, 10000)
        eta = 32.0**-0.5
        total = sum(window_chi_sq(ts + j, eta) for j in range(-4, 5))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_constant_fixed_point(self):
        lat = Lattice(256)
        out = coarse_grain(np.full(256, 1.7), 32, lat)
        assert np.max(np.abs(out - 1.7)) < 1e-12

    def test_total_preservation(self, rng):
        lat = Lattice(256)
        u = rng.normal(size=256)
        cg = coarse_grain(u, 32, lat)
        stride = np.arange(0, 256, 32)
        assert abs(cg[stride].sum() * 32 - u.sum()) < 1e-10

    def test_bad_window_rejected(self):
        lat = Lattice(256)
        with pytest.raises(BadWindow):
            coarse_grain(np.zeros(256), 4, lat)
        with pytest.raises(BadWindow):
            coarse_grain(np.zeros(256), 100, lat)

    def test_applies_to_field_bundles(self, rng):
        lat = Lattice(128)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=1))
        cg_d = coarse_grain(densities(st), 16, lat)
        cg_c = coarse_grain(currents(st), 16, lat)
        assert cg_d.n.shape == (128,)
        assert isinstance(cg_c, CurrentTensor)


class TestRelEntropy:
    def test_identical_states_zero(self):
        lat = Lattice(64)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=2))
        total, per_site = rel_entropy_gaussian(st, st)
        assert total == 0.0 and per_site == 0.0

    def test_matches_fock_oracle(self, rng):
        lat = Lattice(4)
        for _ in range(3):
            lf1 = MultiplierField(
                lat, 0.4 * rng.normal(size=4), 0.3 * rng.normal(size=4), 1.0 + 0.5 * rng.random(4)
            )
            lf2 = MultiplierField(
                lat, 0.4 * rng.normal(size=4), 0.3 * rng.normal(size=4), 1.0 + 0.5 * rng.random(4)
            )
            s_gauss, _ = rel_entropy_gaussian(gibbs_gaussian(lat, lf1), gibbs_gaussian(lat, lf2))
            s_fock = entropy.rel_entropy_dm(
                entropy.fock_oracle_gaussian(4, to_position(gibbs_exponent(lf1))),
                entropy.fock_oracle_gaussian(4, to_position(gibbs_exponent(lf2))),
            )
            assert abs(s_gauss - s_fock) < 1e-8

    def test_nonnegative_random_pairs(self, rng):
        lat = Lattice(32)
        for seed in range(5):
            a = gibbs_gaussian(lat, smooth_field(lat, seed=seed))
            b = gibbs_gaussian(lat, smooth_field(lat, seed=seed + 50))
            s, _ = rel_entropy_gaussian(a, b)
            assert s >= -1e-10


    def test_gibbs_reference_matches_two_spectrum_form(self):
        lat = Lattice(96)
        g0 = gibbs_gaussian(lat, smooth_field(lat, seed=3))
        lf = smooth_field(lat, seed=30)
        for t in (0.0, 1.5, 6.0):
            gamma = evolve(g0, t)
            closed, per_site = rel_entropy_gaussian(gamma, lf)
            dense, _ = rel_entropy_gaussian(gamma, gibbs_gaussian(lat, lf))
            assert closed == pytest.approx(dense, abs=1e-12)
            assert per_site * 96 == pytest.approx(closed, rel=1e-15)
        # its own reference gives zero up to round-off
        assert abs(rel_entropy_gaussian(g0, smooth_field(lat, seed=3))[0]) < 1e-12

    @pytest.mark.parametrize("L", [96, 512])
    def test_built_reference_gives_log_z(self, L):
        # log Z = S_vN(omega) + sum_x lam . <q>_omega from the built reference
        # against the spectrum of Khat: at 96 sites the dense build, at 512
        # the recurrence's cut band
        lat = Lattice(L)
        gamma = evolve(gibbs_gaussian(lat, smooth_field(lat, seed=3)), 0.05 * L)
        lf = lambda_cos_field(lat) if L == 512 else smooth_field(lat, seed=30)
        omega = gibbs_gaussian(lat, lf)
        assert (omega.diagonals.shape[0] < L) == (L == 512)
        closed, per_site = rel_entropy_gaussian(gamma, lf)
        built = rel_entropy_gaussian(gamma, lf, reference=omega)
        assert closed > 1e-3
        assert built[0] == pytest.approx(closed, abs=1e-12 * L)
        assert built[1] * L == pytest.approx(built[0], rel=1e-15)
        rate = np.full((3, L), 1e-3)
        assert entropy_production(gamma, lf, rate, reference=omega) == \
            entropy_production(gamma, lf, rate)

    def test_gibbs_reference_matches_fock_oracle(self, rng):
        lat = Lattice(4)
        for _ in range(3):
            lf1 = MultiplierField(
                lat, 0.4 * rng.normal(size=4), 0.3 * rng.normal(size=4), 1.0 + 0.5 * rng.random(4)
            )
            lf2 = MultiplierField(
                lat, 0.4 * rng.normal(size=4), 0.3 * rng.normal(size=4), 1.0 + 0.5 * rng.random(4)
            )
            s_closed, _ = rel_entropy_gaussian(gibbs_gaussian(lat, lf1), lf2)
            s_fock = entropy.rel_entropy_dm(
                entropy.fock_oracle_gaussian(4, to_position(gibbs_exponent(lf1))),
                entropy.fock_oracle_gaussian(4, to_position(gibbs_exponent(lf2))),
            )
            assert abs(s_closed - s_fock) < 1e-8

    def test_unknown_entropy_taken_from_spectrum(self):
        lat = Lattice(32)
        g0 = gibbs_gaussian(lat, smooth_field(lat, seed=5))
        lf = smooth_field(lat, seed=6)
        bare = GaussianState(lat, g0.chat)
        assert bare.s_vn is None
        assert rel_entropy_gaussian(bare, lf)[0] == pytest.approx(
            rel_entropy_gaussian(g0, lf)[0], abs=1e-12
        )

class TestEntropyProduction:
    @staticmethod
    def lam_path(lat):
        """A moving multiplier field of micro time and its closed-form rate
        (dlam0/dt, dlam1/dt, dlam4/dt), with macro time T = epsilon t."""
        X = lat.sites * lat.epsilon

        def lam_of_t(t_micro):
            T = t_micro * lat.epsilon
            return MultiplierField(
                lat,
                lam0=0.3 + 0.1 * np.cos(2 * np.pi * (X - 0.2 * T)),
                lam1=0.1 * np.sin(2 * np.pi * X) * np.ones(lat.L),
                lam4=2.5 + 0.3 * np.cos(2 * np.pi * X + 0.5 + 0.8 * T),
            )

        def rate_of_t(t_micro):
            T = t_micro * lat.epsilon
            return lat.epsilon * np.stack([
                0.1 * 0.4 * np.pi * np.sin(2 * np.pi * (X - 0.2 * T)),
                np.zeros(lat.L),
                -0.3 * 0.8 * np.sin(2 * np.pi * X + 0.5 + 0.8 * T),
            ])

        return lam_of_t, rate_of_t

    def test_stationary_reference(self):
        lat = Lattice(64)
        lf = MultiplierField.constant(lat, 2.0, 0.2, 0.1)
        st = evolve(gibbs_gaussian(lat, lf), 1.3)
        rate = np.zeros((3, lat.L))
        assert abs(entropy_production(st, lf, rate)) < 1e-8

    def test_zero_at_initial_time(self):
        lat = Lattice(128)
        lam_of_t, rate_of_t = self.lam_path(lat)
        st = gibbs_gaussian(lat, lam_of_t(0.0))
        assert abs(entropy_production(st, lam_of_t(0.0), rate_of_t(0.0))) < 1e-6 * lat.L

    def test_matches_finite_difference(self):
        lat = Lattice(128)
        lam_of_t, rate_of_t = self.lam_path(lat)
        g0 = gibbs_gaussian(lat, lam_of_t(0.0))
        t_eval, h = 0.5, 0.02
        prod = entropy_production(evolve(g0, t_eval), lam_of_t(t_eval), rate_of_t(t_eval))
        s_plus, _ = rel_entropy_gaussian(
            evolve(g0, t_eval + h), gibbs_gaussian(lat, lam_of_t(t_eval + h))
        )
        s_minus, _ = rel_entropy_gaussian(
            evolve(g0, t_eval - h), gibbs_gaussian(lat, lam_of_t(t_eval - h))
        )
        fd = (s_plus - s_minus) / (2 * h)
        assert prod == pytest.approx(fd, rel=1e-4)

    def test_against_dense_formula(self):
        lat = Lattice(32)
        lam_of_t, rate_of_t = self.lam_path(lat)
        gamma = evolve(gibbs_gaussian(lat, lam_of_t(0.0)), 0.8)
        t = 0.8
        lf = lam_of_t(t)
        k_now = dense_exponent(lf.lam0, lf.lam1, lf.lam4)
        dk = dense_exponent(*rate_of_t(t))
        w = dft_matrix(32)
        h1 = (w.conj().T * lat.dispersion) @ w
        vals, vecs = np.linalg.eigh(k_now)
        c_omega = (vecs / (1.0 + np.exp(-vals))) @ vecs.conj().T
        comm = h1 @ k_now - k_now @ h1
        oracle = np.real(np.trace((-1j * comm - dk) @ gamma.C) + np.trace(dk @ c_omega))
        assert entropy_production(gamma, lf, rate_of_t(t)) == pytest.approx(
            oracle, abs=1e-11
        )

    def test_rate_of_wrong_shape_or_non_finite_rejected(self):
        lat = Lattice(16)
        lf = MultiplierField.constant(lat, 2.0, 0.2, 0.1)
        st = gibbs_gaussian(lat, lf)
        with pytest.raises(ValueError, match="three arrays of 16 sites"):
            entropy_production(st, lf, np.zeros((3, 8)))
        rate = np.zeros((3, lat.L))
        rate[2, 5] = np.nan
        with pytest.raises(NonFinite, match=r"\(2, 5\)"):
            entropy_production(st, lf, rate)

    @pytest.mark.parametrize("L", [64, 65])
    def test_exponent_trace_is_the_signed_pairing(self, rng, L):
        # tr(Chat Khat) = sum_x (lam0 n + lam1 p - lam4 h): the identity the
        # production's field form rests on, for any Hermitian Chat
        lat = Lattice(L)
        lf = MultiplierField(lat, rng.normal(size=L), rng.normal(size=L), 1.0 + rng.random(L))
        a = rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L))
        st = GaussianState(lat, 0.5 * (a + a.conj().T))
        trace = np.vdot(gibbs_exponent(lf), st.chat).real
        d = densities(st)
        pairing = np.sum(lf.lam0 * d.n + lf.lam1 * d.p - lf.lam4 * d.h)
        assert abs(pairing - trace) <= 1e-13 * abs(trace)


def fegsnap1_bytes(st, t):
    """FEGSNAP1 by hand: magic, <Q L, <d t, <H tag length, tag, then the upper
    triangle of position-space C row by row as little-endian complex128."""
    c, L = st.C, st.L
    tag = b"C(x,y)=<a+_y a_x>; p in (-pi,pi]"
    body = b"".join(struct.pack("<dd", c[x, y].real, c[x, y].imag)
                    for x in range(L) for y in range(x, L))
    return b"FEGSNAP1" + struct.pack("<Qd", L, t) + struct.pack("<H", len(tag)) + tag + body


def assert_same_state(back, st):
    assert np.array_equal(back.offsets, st.offsets)
    assert np.array_equal(back.diagonals, st.diagonals)
    assert back.s_vn == st.s_vn
    assert back.cut_bound == st.cut_bound


class TestSerialization:
    def test_state_roundtrip(self, tmp_path):
        lat = Lattice(32)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=4))
        path = tmp_path / "state.bin"
        save_state(st, path, t=1.25)
        back, t = load_state(path)
        assert t == 1.25
        assert_same_state(back, st)
        assert np.max(np.abs(back.C - st.C)) < 1e-15

    def test_fields_csv(self, tmp_path):
        lat = Lattice(32)
        st = gibbs_gaussian(lat, smooth_field(lat, seed=5))
        path = tmp_path / "fields.csv"
        fields_to_csv(path, lat, densities(st), currents(st))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,n,p,h,w0,w1,w4"
        assert len(lines) == 33

    def test_dense_snapshot_refused(self, tmp_path):
        lat = Lattice(12)
        path = tmp_path / "old.bin"
        path.write_bytes(fegsnap1_bytes(gibbs_gaussian(lat, smooth_field(lat, seed=6)), 3.5))
        with pytest.raises(ValueError, match="old.bin: dense FEGSNAP1 snapshots are retired"):
            load_state(path)

    def test_banded_state_roundtrip(self, tmp_path):
        # FEGSNAP2 holds the 21 diagonals the cut keeps of 128, bit for bit,
        # with the entropy and the cut's bound
        lat = Lattice(128)
        st = evolve(gibbs_chebyshev(lambda_cos_field(lat)), 0.3 * 128)
        assert st.diagonals.shape == (21, 128)
        assert st.cut_bound > 0.0
        path = tmp_path / "band.bin"
        save_state(st, path, t=2.0)
        assert path.stat().st_size < 16 * 22 * 128 + 256
        back, t = load_state(path)
        assert t == 2.0
        assert_same_state(back, st)

    def test_folded_state_roundtrip(self, tmp_path):
        # an even L's folded band keeps every diagonal, the Nyquist one once
        lat = Lattice(8)
        st = gibbs_chebyshev(lambda_cos_field(lat))
        assert np.array_equal(st.offsets, np.arange(-3, 5))
        path = tmp_path / "folded.bin"
        save_state(st, path, t=0.5)
        back, t = load_state(path)
        assert t == 0.5
        assert_same_state(back, st)

    def test_unknown_entropy_roundtrip(self, tmp_path):
        lat = Lattice(16)
        st = micro.momentum_cutoff(lat, 1.0).smear(gibbs_chebyshev(lambda_cos_field(lat)))
        assert st.s_vn is None
        path = tmp_path / "smeared.bin"
        save_state(st, path)
        back, _ = load_state(path)
        assert back.s_vn is None
        assert np.array_equal(back.diagonals, st.diagonals)

    @pytest.mark.parametrize("change", [-16, 8, -(16 * 21 * 64 + 8 * 21 + 20)])
    def test_wrong_length_band_rejected(self, tmp_path, change):
        lat = Lattice(64)
        path = tmp_path / "band.bin"
        save_state(gibbs_chebyshev(lambda_cos_field(lat)), path)
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + bytes(change))
        with pytest.raises(ValueError, match="band.bin: a band of .* diagonals for L = 64 takes"):
            load_state(path)

    def test_malformed_band_rejected(self, tmp_path):
        lat = Lattice(64)
        st = gibbs_chebyshev(lambda_cos_field(lat))
        path = tmp_path / "band.bin"
        save_state(st, path)
        data = bytearray(path.read_bytes())
        start = len(data) - 16 * st.diagonals.size
        # offsets no longer symmetric about 0
        bad = bytearray(data)
        bad[start - 8 * st.offsets.size: start] = (st.offsets + 1).astype("<i8").tobytes()
        path.write_bytes(bytes(bad))
        with pytest.raises(ValueError, match="are not a stored band"):
            load_state(path)
        # a diagonal not the conjugate of its partner
        bad = bytearray(data)
        bad[start: start + 8] = struct.pack("<d", 1.0)
        path.write_bytes(bytes(bad))
        with pytest.raises(ValueError, match="not Hermitian"):
            load_state(path)
