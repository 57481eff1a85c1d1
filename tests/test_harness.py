"""Harness: config handling, experiment outputs, determinism, CLI."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fermi_euler import eos, euler
from fermi_euler.harness import checks, experiments
from fermi_euler.harness.cli import main as cli_main
from fermi_euler.harness.config import (
    DEFAULT_PROFILE,
    ExperimentConfig,
    load_config,
    write_manifest,
)
from test_micro import Q_COS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMALL_TABLE = {"rho_range": [0.15, 0.21], "eint_range": [0.035, 0.065], "resolution": [16, 16]}


def default_profile(**params):
    """The default `lambda-cos` profile with some parameters replaced."""
    return {"kind": "lambda-cos", "params": {**DEFAULT_PROFILE["params"], **params}}


# Profiles whose Euler runs close on a table sized from their initial cells:
# the default, the benchmark's `euler-N1024` profile at seed 1, a density
# profile, a constant beta = 4 and a cold one, where the floor clips the
# table's e_int edge.
DERIVED_TABLE_PROFILES = {
    "default": DEFAULT_PROFILE,
    "perfbench-seed-1": default_profile(lam0_phase=0.8442354444173306,
                                        lam1_phase=5.324583204732311,
                                        lam4_phase=4.798937463950548),
    "q-cos": Q_COS,
    "constant-beta-4": default_profile(lam4=4.0, lam4_amp=0.0),
    "cold": default_profile(lam0=2.0, lam4=20.0, lam4_amp=2.0),
}


def small_config(kind, out_dir, **kw):
    base = dict(
        kind=kind,
        out_dir=str(out_dir),
        l_list=[64, 128],
        ell_ratio=8,
        times=[0.0, 0.01],
        n_cells=64,
        table=SMALL_TABLE,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.kind == "checks"
        assert cfg.eos_model().domain == "brillouin"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="nope")

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(l_list=[64], ell_ratio=32)  # ell = 2 < 8

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "euler-run", "n_cells": 32, "custom_knob": 7}))
        cfg = load_config(path, overrides={"seed": 99, "out_dir": None})
        assert cfg.kind == "euler-run"
        assert cfg.n_cells == 32
        assert cfg.seed == 99
        assert cfg.extra["custom_knob"] == 7

    @pytest.mark.parametrize("section, message", [
        ({"eint_range": [0.035, 0.065]}, r"no 'rho_range'$"),
        ({"rho_range": [0.15, 0.21], "resolution": [8, 8]}, r"no 'eint_range'$"),
        ({"path": "eos_table.json"}, "no 'rho_range' and no 'eint_range' and a 'path'.*retired"),
    ], ids=["no-rho-range", "no-eint-range", "path"])
    def test_table_section_validated(self, section, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(kind="euler-run", table=section)

    def test_table_resolution_defaults_to_the_eos_default(self, monkeypatch):
        from fermi_euler import eos

        seen = []
        monkeypatch.setattr(eos, "tabulate", lambda model, rho, eint, res: seen.append(res))
        ExperimentConfig(table={"rho_range": [0.15, 0.21], "eint_range": [0.035, 0.065]}).closure(None)
        assert seen == [eos.TABLE_RESOLUTION]

    @pytest.mark.parametrize("profile, message", [
        ({"kind": "lambda-cos", "params": {"lam0": 0.25, "lam4": 2.5, "lam4amp": 0.25}},
         "unknown lambda-cos profile key 'lam4amp'"),
        ({"kind": "q-cos", "params": {"rho": 0.2, "e_ampl": 0.01}},
         "unknown q-cos profile key 'e_ampl'"),
        ({"kind": "rho-cos", "params": {}}, "unknown profile kind 'rho-cos'"),
    ], ids=["misspelt", "q-cos", "kind"])
    def test_profile_validated_before_the_table(self, profile, message, monkeypatch):
        monkeypatch.setattr(eos, "tabulate", lambda *args: pytest.fail("table built"))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(kind="euler-run", profile=profile, table=SMALL_TABLE)

    @pytest.mark.parametrize("path", [None] + sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: "defaults" if p is None else p.name)
    def test_shipped_config_starts_inside_its_table(self, path):
        # a profile edit that leaves the table's rectangle (or the one-phase
        # region) fails here, not in the closure at run time; the defaults
        # have no table section, so theirs is sized from their cells
        cfg = ExperimentConfig() if path is None else load_config(path)
        model, _, q = experiments._initial_cells(cfg)
        if cfg.table is None:
            (rho_lo, rho_hi), (eint_lo, eint_hi) = eos.table_rectangle(model, q.rho, q.e_internal)
        else:
            (rho_lo, rho_hi), (eint_lo, eint_hi) = cfg.table["rho_range"], cfg.table["eint_range"]
        assert rho_lo < q.rho.min() and q.rho.max() < rho_hi
        assert eint_lo < q.e_internal.min() and q.e_internal.max() < eint_hi
        assert np.all(q.e_internal > eos.energy_floor(model, q.rho))

    def test_tolerance_override(self):
        cfg = ExperimentConfig(tolerances={"virial": 0.5})
        assert cfg.tolerance("virial", 1e-8) == 0.5
        assert cfg.tolerance("other", 1e-8) == 1e-8

    def test_manifest(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        path = write_manifest(tmp_path, cfg, extras={"rows": 3})
        payload = json.loads(path.read_text())
        assert payload["config_sha256"] == cfg.content_hash()
        assert payload["results"]["rows"] == 3


class TestHelpers:
    def test_trig_interp_exact_modes(self):
        n = 32
        centers = (np.arange(n) + 0.5) / n
        vals = 1.3 + 0.4 * np.cos(2 * np.pi * centers) - 0.2 * np.sin(6 * np.pi * centers)
        xs = np.linspace(0.0, 1.0, 97, endpoint=False)
        expect = 1.3 + 0.4 * np.cos(2 * np.pi * xs) - 0.2 * np.sin(6 * np.pi * xs)
        out = experiments.trig_interp(vals, 97, x_offset=0.5 / n)
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_trig_interp_constant(self):
        out = experiments.trig_interp(np.full(16, 2.5), 7, 0.5 / 16)
        assert np.max(np.abs(out - 2.5)) < 1e-13

    @pytest.mark.parametrize("n,L", [(256, 512), (256, 2048), (255, 1020), (64, 512),
                                     (64, 64), (64, 48), (33, 16)])
    def test_trig_interp_matches_dense_formula(self, n, L, rng):
        # the interpolant summed mode by mode at every site, the even-n
        # Nyquist mode as a cosine
        vals = rng.normal(size=n)
        offset = 0.5 / n
        m = np.fft.fftfreq(n, d=1.0 / n)
        shift = np.arange(L) / L - offset
        phases = np.exp(2j * np.pi * m[:, None] * shift[None, :])
        if n % 2 == 0:
            phases[n // 2] = np.cos(np.pi * n * shift)
        dense = (np.fft.fft(vals)[:, None] * phases).sum(axis=0).real / n
        out = experiments.trig_interp(vals, L, offset)
        assert np.max(np.abs(out - dense)) <= 1e-12

    def test_macro_spectral_derivative(self):
        n = 64
        xs = np.arange(n) / n
        f = np.sin(2 * np.pi * xs)
        df = experiments.macro_spectral_derivative(f)
        assert np.max(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * xs))) < 1e-10

    def test_initial_cells_are_the_site_densities(self):
        # one evaluator serves both sides: a lambda-cos profile's Euler cells
        # are bitwise its multipliers' densities at the same positions
        grid = euler.MacroGrid(64)
        q = euler.initial_q_field("lambda-cos", HYDRO_PROFILE["params"], grid, BZ4096)
        lam = experiments.lam_sites_from_profile(HYDRO_PROFILE, grid.centers, BZ4096)
        for cells, sites in zip(q.stack(), experiments.bz_dual_fields(BZ4096, *lam)):
            assert np.array_equal(cells, sites)

    def test_bz_dual_fields_match_pointwise(self):
        model = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=512)
        lam0 = np.array([0.2, 0.4])
        lam1 = np.array([0.1, -0.3])
        lam4 = np.array([2.0, 3.0])
        rho, mom, e = experiments.bz_dual_fields(model, lam0, lam1, lam4)
        for j in range(2):
            q = eos.dual_q(
                model, eos.MultiplierVector(lam0=lam0[j], lam_mom=[lam1[j]], lam4=lam4[j])
            )
            assert abs(rho[j] - q.rho) < 1e-14
            assert abs(mom[j] - q.mom[0]) < 1e-14
            assert abs(e[j] - q.e) < 1e-14


BZ4096 = eos.EosModel(d=1, domain=eos.BRILLOUIN, bz_nodes=4096)
# the benchmark's hydro profile (its phases drawn from seed 2101), and one
# given by its densities
HYDRO_PROFILE = {"kind": "lambda-cos", "params": {
    "lam0": 0.25, "lam0_amp": 0.08, "lam0_phase": 4.5318, "lam1_amp": 0.1, "lam1_phase": 6.1935,
    "lam4": 2.5, "lam4_amp": 0.25, "lam4_phase": 2.2687}}
Q_COS = {"kind": "q-cos", "params": {"rho": 0.177, "rho_amp": 0.01, "mom_amp": 0.01,
                                     "mom_phase": 0.5, "e": 0.048, "e_amp": 0.0025,
                                     "e_phase": 1.0}}


def site_fields(profile, L):
    """(rho, mom, e, P) of the profile's multipliers at each of L sites."""
    lam = experiments.lam_sites_from_profile(profile, np.arange(L) / L, BZ4096)
    return (*experiments.bz_dual_fields(BZ4096, *lam), experiments.bz_pressure_field(BZ4096, *lam))


class TestSlopeNodes:
    @pytest.mark.parametrize("profile", [HYDRO_PROFILE, Q_COS], ids=["lambda-cos", "q-cos"])
    def test_node_fields_match_the_sites(self, profile):
        m, fields = experiments.slope_node_fields(BZ4096, profile, 2048)
        assert m == 64
        for L in (256, 2048):
            sites = site_fields(profile, L)
            for k, (nodes, exact) in enumerate(zip(fields, sites)):
                # the momentum's zone sums cancel between +p and -p, so its
                # round-off, in both fields, scales with the density's size
                scale = np.max(np.abs(sites[0] if k == 1 else exact))
                err = np.max(np.abs(experiments.trig_interp(nodes, L, x_offset=0.0) - exact))
                assert err <= 1e-14 * scale

    @pytest.mark.parametrize("profile", [HYDRO_PROFILE, Q_COS], ids=["lambda-cos", "q-cos"])
    def test_doubling_stops_at_the_first_tail_at_round_off(self, profile):
        # at 32 nodes some field's top modes are still above round-off
        m, fields = experiments.slope_node_fields(BZ4096, profile, 32)
        modes = np.abs(np.fft.rfft(fields, axis=1))
        assert m == 32 and modes[:, 9:].max() > experiments.SLOPE_TAIL * modes.max()
        assert experiments.slope_node_fields(BZ4096, profile, 2048)[0] == 64

    def test_constant_profile_takes_the_first_nodes(self):
        profile = {"kind": "lambda-cos", "params": {"lam0": 0.4, "lam4": 4.0}}
        m, fields = experiments.slope_node_fields(BZ4096, profile, 2048)
        assert m == experiments.SLOPE_NODES == 16
        assert all(np.ptp(f) <= 1e-15 * np.max(np.abs(f)) for f in fields)


class TestExperiments:
    def test_hydro_compare_small(self, tmp_path, monkeypatch):
        # the slope's fields are evaluated once for every L, at 16 nodes and
        # then at the 16 and 32 nodes each doubling adds: 64 cells for M = 64
        sizes = []
        dual_fields = experiments.bz_dual_fields
        monkeypatch.setattr(experiments, "bz_dual_fields",
                            lambda model, *lam: sizes.append(lam[0].size) or dual_fields(model, *lam))
        positions = []
        lam_sites = experiments.lam_sites_from_profile
        monkeypatch.setattr(experiments, "lam_sites_from_profile",
                            lambda profile, X, model: positions.append(X) or lam_sites(profile, X, model))
        cfg = small_config("hydro-compare", tmp_path / "h")
        report = experiments.run_hydro_compare(cfg)
        assert sizes == [16, 16, 32]
        # no node is evaluated twice: the three sets make up the 64 nodes j/64,
        # then each L's sites follow
        assert [X.size for X in positions] == [16, 16, 32, 64, 128]
        assert np.array_equal(np.sort(np.concatenate(positions[:3])), np.arange(64) / 64)
        assert (tmp_path / "h" / "hydro_compare.csv").exists()
        assert (tmp_path / "h" / "hydro_slope.csv").exists()
        manifest = json.loads((tmp_path / "h" / "manifest.json").read_text())
        assert manifest["results"]["slope_nodes"] == 64
        table = report.error_table()
        # constant-lambda comparison happens in the trend check; here just
        # confirm indices cover all (L, ell) cells and both times
        keys = {(t, c) for (t, c) in table}
        assert {t for t, _ in keys} == {0.0, 0.01}
        for by_l in table.values():
            assert set(by_l) == {64, 128}

    def test_hydro_compare_constant_profile_tiny_error(self, tmp_path):
        # both sides constant: E < 1e-8 for all T.  beta = 4 keeps the
        # one-sided Nyquist occupation (the only lattice-vs-reference
        # difference left for constant fields) below the tolerance.
        cfg = small_config(
            "hydro-compare",
            tmp_path / "hc",
            l_list=[64],
            profile={"kind": "lambda-cos", "params": {"lam0": 0.4, "lam4": 4.0}},
            table={"rho_range": [0.12, 0.18], "eint_range": [0.015, 0.04], "resolution": [16, 16]},
        )
        report = experiments.run_hydro_compare(cfg)
        worst = max(abs(row[-1]) for row in report.error_rows)
        assert worst < 1e-8

    def test_entropy_track_small(self, tmp_path):
        cfg = small_config("entropy-track", tmp_path / "e", l_list=[64])
        report = experiments.run_entropy_track(cfg)
        rows = [r for r in report.rows if r[0] == 64]
        first = next(r for r in rows if r[1] == 0.0)
        assert first[3] == 0.0  # s(0) exactly zero
        assert all(r[3] >= -1e-12 for r in rows)
        assert (tmp_path / "e" / "entropy_track.csv").exists()

    def test_entropy_track_constant_profile_stationary(self, tmp_path):
        cfg = small_config(
            "entropy-track",
            tmp_path / "ec",
            l_list=[64],
            profile={"kind": "lambda-cos", "params": {"lam0": 0.25, "lam4": 2.5}},
        )
        report = experiments.run_entropy_track(cfg)
        assert all(abs(r[3]) < 1e-10 for r in report.rows)  # s(t) = 0 throughout

    def test_multiplier_rate_matches_centred_difference(self):
        # the cell rate from the scheme's right side against a centred
        # difference of the inverted multipliers across two Heun steps of h;
        # the gap is second order in h: 1.9e-7 at h = 1e-4, 2.7e-9 at 1e-5
        # (relative to each component's largest |rate|)
        cfg = small_config("entropy-track", "unused")
        model, grid, q0 = experiments._initial_cells(cfg)
        closure = cfg.closure(q0)
        t, h = 0.01, 1e-5
        sols = [euler.EulerSolution(grid, euler.run(q0, t - h, grid, closure).snapshots[-1],
                                    t - h, closure)]
        for _ in range(2):
            sols.append(euler.step(sols[-1], h))
        lam = [np.stack(euler.lambda_field_of(s.q, model), axis=-1) for s in sols]
        fd = (lam[2] - lam[0]) / (2 * h)
        rate = experiments.multiplier_rate(sols[1], lam[1])
        scale = np.abs(rate).max(axis=0)
        assert np.all(np.abs(rate - fd).max(axis=0) <= 1e-8 * scale)

    def test_entropy_track_inverts_each_snapshot_once(self, tmp_path, monkeypatch):
        inverted = []
        lambda_field_of = euler.lambda_field_of

        def counted(qfield, model, guess=None):
            inverted.append(qfield)
            return lambda_field_of(qfield, model, guess)

        monkeypatch.setattr(euler, "lambda_field_of", counted)
        cfg = small_config("entropy-track", tmp_path / "e", times=[0.0, 0.005, 0.01])
        experiments.run_entropy_track(cfg)
        # T = 0, 0.005, 0.01 and the difference's neighbours T +- 2e-4, for
        # both L
        assert len(inverted) == 7
        assert len({id(q) for q in inverted}) == 7

    def test_entropy_track_starts_each_inversion_warm(self, tmp_path, monkeypatch):
        calls = []
        lambda_field_of = euler.lambda_field_of

        def recorded(qfield, model, guess=None):
            lam = lambda_field_of(qfield, model, guess)
            calls.append((guess, np.stack(lam)))
            return lam

        monkeypatch.setattr(euler, "lambda_field_of", recorded)
        cfg = small_config("entropy-track", tmp_path / "e", times=[0.0, 0.005, 0.01])
        experiments.run_entropy_track(cfg)
        (g0, lam0), (g1, lam1), (g2, lam2), *ends = calls
        # T = 0 from the profile's multipliers at the cell centres, whose
        # densities the cells are: the Newton stops before its first step
        centres = euler.MacroGrid(cfg.n_cells).centers
        profile = euler.profile_fields(cfg.profile["kind"], cfg.profile["params"], centres)
        assert np.array_equal(g0, profile.T)
        assert np.array_equal(lam0, profile.T)
        # each later report time from the previous one, and both ends of each
        # difference (T - h, then T + h) from their own T
        assert np.array_equal(g1, lam0) and np.array_equal(g2, lam1)
        assert [e[0] is not None for e in ends] == [True] * 4
        for (guess, _), own in zip(ends, (lam1, lam1, lam2, lam2)):
            assert np.array_equal(guess, own)

    def test_entropy_track_builds_each_reference_once(self, tmp_path, monkeypatch):
        from fermi_euler import micro

        built = []
        gibbs_gaussian = micro.gibbs_gaussian

        def counted(lattice, field):
            built.append(lattice.L)
            return gibbs_gaussian(lattice, field)

        monkeypatch.setattr(micro, "gibbs_gaussian", counted)
        cfg = small_config("entropy-track", tmp_path / "e", times=[0.0, 0.005, 0.01])
        experiments.run_entropy_track(cfg)
        # per L the initial state, which is also the reference at T = 0, and
        # the reference at each T > 0
        assert built == [64, 64, 64, 128, 128, 128]

    def test_entropy_track_time_below_difference_step(self, tmp_path):
        # for T < 2e-4 the centred difference's step is T itself, so the run
        # needs no negative time; the gap is 1.7e-4 at T = 1e-4 (S = 8.4e-9)
        cfg = small_config("entropy-track", tmp_path / "e", l_list=[64], times=[0.0, 1e-4])
        row = experiments.run_entropy_track(cfg).rows[1]
        assert row[6] == pytest.approx(row[5], rel=1e-3)

    def test_entropy_track_difference_steps_within_the_cfl_bound(self, tmp_path, monkeypatch):
        # on 2048 cells the CFL step is below the difference's h = 2e-4, so
        # each of the two steps of h is cut into equal steps within it
        dts = []
        step = euler.step

        def recorded(sol, dt):
            dts.append(dt)
            return step(sol, dt)

        monkeypatch.setattr(euler, "step", recorded)
        cfg = small_config("entropy-track", tmp_path / "e", l_list=[64], n_cells=2048,
                           times=[0.0, 0.001])
        row = experiments.run_entropy_track(cfg).rows[1]
        parts = round(2e-4 / dts[-1])
        assert parts > 1
        assert dts[-2 * parts:] == [2e-4 / parts] * (2 * parts)
        assert row[6] == pytest.approx(row[5], rel=1e-3)

    @pytest.mark.parametrize("profile", DERIVED_TABLE_PROFILES.values(),
                             ids=DERIVED_TABLE_PROFILES.keys())
    def test_derived_table_holds_the_run_to_T_0_1(self, profile):
        # without a table section the closure's table is sized from the
        # initial cells, and every state of the run stays inside it
        cfg = ExperimentConfig(kind="euler-run", profile=profile, times=[0.0, 0.1])
        model, grid, q0 = experiments._initial_cells(cfg)
        closure = cfg.closure(q0)
        assert (closure.table.rho_range, closure.table.eint_range) == eos.table_rectangle(
            model, q0.rho, q0.e_internal)
        traj = euler.run(q0, 0.1, grid, closure, snapshot_times=[0.025, 0.05, 0.075])
        for q in traj.snapshots:
            closure(q.rho, q.e_internal)

    def test_euler_run_outputs(self, tmp_path):
        cfg = small_config("euler-run", tmp_path / "er")
        experiments.run_euler(cfg)
        files = sorted(p.name for p in (tmp_path / "er").glob("euler_T*.csv"))
        assert files == ["euler_T0.000000.csv", "euler_T0.010000.csv"]
        header = (tmp_path / "er" / files[0]).read_text().splitlines()[0]
        assert header == "X,rho,mom,e,P"

    def test_micro_run_outputs(self, tmp_path):
        cfg = small_config("micro-run", tmp_path / "mr", l_list=[64],
                           extra={"save_states": True})
        experiments.run_micro(cfg)
        assert (tmp_path / "mr" / "micro_L64_T0.000000.csv").exists()
        assert (tmp_path / "mr" / "state_L64_T0.010000.bin").exists()

    def test_eos_table_run(self, tmp_path):
        cfg = small_config("eos-table", tmp_path / "et")
        experiments.run_eos_table(cfg)
        assert sorted(p.name for p in (tmp_path / "et").iterdir()) == [
            "eos_table_preview.csv", "manifest.json"]
        rows = np.loadtxt(tmp_path / "et" / "eos_table_preview.csv", delimiter=",", skiprows=1)
        assert rows.shape == (144, 5)
        # a uniform 12 x 12 grid from corner to corner of the table section
        assert rows[0, :2].tolist() == [0.15, 0.035] and rows[-1, :2].tolist() == [0.21, 0.065]
        # on the Brillouin zone P sits near the 1D virial 2 e_int, dP/de_int near 2
        assert np.all(np.abs(rows[:, 2] / (2.0 * rows[:, 1]) - 1.0) < 0.05)
        assert np.all(np.abs(rows[:, 4] - 2.0) < 0.1)

    def test_rate_scan_run(self, tmp_path):
        cfg = small_config("rate-scan", tmp_path / "rs",
                           extra={"rate_scan": {"beta": 1.0, "mu": 0.0, "points": 5}})
        experiments.run_rate_scan(cfg)
        lines = (tmp_path / "rs" / "rate_scan.csv").read_text().splitlines()
        assert lines[0] == "rho,e,I"
        assert len(lines) == 26

    def test_rate_scan_evaluates_reference_psi_once(self, tmp_path, monkeypatch):
        from fermi_euler import eos, ldp

        scan = {"beta": 1.0, "mu": 0.0, "points": 5}
        cfg = small_config("rate-scan", tmp_path / "rs", extra={"rate_scan": scan})
        calls = {"pressure_psi": 0, "invert_cells": 0, "moments": 0, "invert_to_multipliers": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for name in calls:
                patch.setattr(eos, name, counted(getattr(eos, name)))
            experiments.run_rate_scan(cfg)
        # one batched inversion and one psi at its maximizers for the whole
        # grid, and the reference psi(lam) once
        assert calls == {"pressure_psi": 1, "invert_cells": 1, "moments": 1,
                         "invert_to_multipliers": 0}
        model = cfg.eos_model()
        lam = eos.MultiplierVector.from_physical(1.0, 0.0, 0.0)
        mom = eos.dual_q(model, lam).mom
        lines = (tmp_path / "rs" / "rate_scan.csv").read_text().splitlines()[1:]
        assert len(lines) == 25
        for line in lines:
            rho, e, rate = map(float, line.split(","))
            cold = ldp.rate_I(model, eos.ConservedVector(rho=rho, mom=mom, e=e), lam)
            assert rate == pytest.approx(cold, abs=1e-12)

    def test_determinism_bit_identical(self, tmp_path):
        cfg_a = small_config("hydro-compare", tmp_path / "a", l_list=[64])
        cfg_b = small_config("hydro-compare", tmp_path / "b", l_list=[64])
        experiments.run_hydro_compare(cfg_a)
        experiments.run_hydro_compare(cfg_b)
        a = (tmp_path / "a" / "hydro_compare.csv").read_bytes()
        b = (tmp_path / "b" / "hydro_compare.csv").read_bytes()
        assert a == b


    @pytest.mark.parametrize("kind", ["entropy-track", "euler-run"])
    def test_runs_repeat_bytewise(self, tmp_path, kind):
        cfg = small_config(kind, tmp_path / "out", l_list=[64])
        run = {"entropy-track": experiments.run_entropy_track, "euler-run": experiments.run_euler}
        outputs = []
        for _ in range(2):
            run[kind](cfg)
            files = sorted((tmp_path / "out").glob("*.csv")) + [tmp_path / "out" / "manifest.json"]
            outputs.append({f.name: f.read_bytes() for f in files})
        assert len(outputs[0]) >= 2 and outputs[0] == outputs[1]


class TestChecks:
    def test_seed_override_same_pass_set(self, tmp_path):
        groups = ["eos_virial", "entropy_gaps"]
        rep1 = checks.run_checks(
            ExperimentConfig(seed=1, out_dir=str(tmp_path / "s1")), groups=groups, verbose=False
        )
        rep2 = checks.run_checks(
            ExperimentConfig(seed=2, out_dir=str(tmp_path / "s2")), groups=groups, verbose=False
        )
        assert [r.passed for r in rep1.results] == [r.passed for r in rep2.results]
        assert rep1.all_passed and rep2.all_passed

    def test_zero_tolerance_forces_failure(self, tmp_path):
        cfg = ExperimentConfig(
            seed=1, out_dir=str(tmp_path / "z"), tolerances={"virial": 0.0}
        )
        rep = checks.run_checks(cfg, groups=["eos_virial"], verbose=False)
        assert not rep.all_passed
        payload = json.loads((tmp_path / "z" / "checks.json").read_text())
        assert payload["all_passed"] is False
        assert payload["results"][0]["value"] > 0.0

    def test_report_file_schema(self, tmp_path):
        cfg = ExperimentConfig(seed=1, out_dir=str(tmp_path / "r"))
        checks.run_checks(cfg, groups=["micro_window"], verbose=False)
        payload = json.loads((tmp_path / "r" / "checks.json").read_text())
        for rec in payload["results"]:
            assert set(rec) == {"name", "value", "tol", "mode", "passed", "note", "margin"}

    def test_margin_below_one_means_pass(self, tmp_path):
        assert checks._res("a", 2e-9, 1e-8).margin == pytest.approx(0.2)
        failing = checks._res("b", 0.5, 0.8, mode="ge")
        assert not failing.passed and failing.margin == pytest.approx(1.6)
        assert checks._res("c", 0.0, 0.0).margin == 0.0
        assert checks._res("d", -1.0, 1e-12, mode="ge").margin is None
        nan_result = checks._res("e", float("nan"), 1e-8)
        assert nan_result.margin is None and checks._record(nan_result)["value"] is None
        cfg = ExperimentConfig(seed=1, out_dir=str(tmp_path / "m"), tolerances={"virial": 0.0})
        checks.run_checks(cfg, groups=["eos_virial", "micro_window"], verbose=False)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        text = (tmp_path / "m" / "checks.json").read_text()
        results = json.loads(text, parse_constant=reject)["results"]
        for rec in results:
            assert (rec["margin"] is not None and rec["margin"] <= 1.0) == rec["passed"]
        assert {rec["passed"] for rec in results} == {True, False}
        # a failing tol = 0 check has no quotient: its margin is null
        assert any(rec["margin"] is None for rec in results)


class TestCli:
    def test_cli_eos_table(self, tmp_path):
        table_cfg = tmp_path / "table.json"
        table_cfg.write_text(json.dumps({"table": SMALL_TABLE}))
        code = cli_main(
            ["eos-table", "--config", str(table_cfg), "--out", str(tmp_path / "cli_et")]
        )
        assert code == 0
        assert (tmp_path / "cli_et" / "eos_table_preview.csv").exists()

    def test_cli_euler_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "n_cells": 64,
                    "times": [0.0, 0.005],
                    "table": SMALL_TABLE,
                }
            )
        )
        code = cli_main(
            ["euler-run", "--config", str(cfg), "--out", str(tmp_path / "cli_er")]
        )
        assert code == 0
        assert (tmp_path / "cli_er" / "manifest.json").exists()

    def test_default_euler_run_repeats_bytewise_without_inverting(self, tmp_path, monkeypatch):
        # the built-in euler-run has no table section: its closure's table is
        # sized from its initial cells, and nothing but that table's build
        # inverts densities
        building, late = [False], []
        tabulate = eos.tabulate

        def tabulating(*args, **kwargs):
            building[0] = True
            try:
                return tabulate(*args, **kwargs)
            finally:
                building[0] = False

        def counted(fn):
            def wrapper(*args, **kwargs):
                if not building[0]:
                    late.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(eos, "tabulate", tabulating)
        for name in ("invert", "invert_to_multipliers"):
            monkeypatch.setattr(eos, name, counted(getattr(eos, name)))
        outputs = []
        for run in ("a", "b"):
            assert cli_main(["euler-run", "--out", str(tmp_path / run)]) == 0
            outputs.append({f.name: f.read_bytes() for f in (tmp_path / run).glob("*.csv")})
        assert late == []
        assert len(outputs[0]) == 2 and outputs[0] == outputs[1]

    def test_commands_import_only_the_scipy_they_run(self, tmp_path):
        # a fresh process, as the CLI starts: the modules loaded by importing
        # cli and config and loading a config, then by small euler-run,
        # rate-scan, eos-table and hydro-compare runs, none of which needs
        # scipy's linear algebra, special functions or quadrature, the dense
        # entropy oracle or the check registry (hydro-compare's Gibbs states
        # of the default `lambda-cos` profile at L = 512 take the recurrence,
        # whose Fermi factors are numpy's); the euler-run and eos-table
        # without a table section size theirs from their initial cells
        configs = {
            "euler-run": {"n_cells": 32, "times": [0.0, 0.005], "table": SMALL_TABLE},
            "rate-scan": {"eos_domain": "unbounded", "extra": {"rate_scan": {"points": 5}}},
            "eos-table": {"table": SMALL_TABLE},
            "hydro-compare": {"l_list": [512], "ell_ratio": 8, "n_cells": 32,
                              "times": [0.0, 0.005], "table": SMALL_TABLE},
            "euler-run-derived": {"n_cells": 32, "times": [0.0, 0.005]},
            "eos-table-derived": {"n_cells": 32},
        }
        for name, cfg in configs.items():
            kind = name.removesuffix("-derived")
            (tmp_path / f"{name}.json").write_text(json.dumps({"kind": kind, **cfg}))
        script = textwrap.dedent("""
            import json
            import sys
            from pathlib import Path

            from fermi_euler.harness import cli, config

            tmp, bench = Path(sys.argv[1]), sys.argv[2]
            config.load_config(tmp / "euler-run.json")
            loaded = {"start": sorted(sys.modules)}
            for path in sorted(tmp.glob("*.json")):
                kind = json.loads(path.read_text())["kind"]
                code = cli.main([kind, "--config", str(path), "--out", str(tmp / path.stem)])
                assert code == 0 and (tmp / path.stem / "manifest.json").is_file()
            loaded["runs"] = sorted(sys.modules)
            sys.path.insert(0, bench)
            import tracing

            loaded["traced"] = sorted(module for module, _ in tracing.TARGETS.values())
            print(json.dumps(loaded))
        """)
        root = Path(__file__).resolve().parents[1]
        src = str(Path(experiments.__file__).resolve().parents[2])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(root / "perfbench")],
                             env=env, capture_output=True, text=True, timeout=300, check=True)
        loaded = json.loads(out.stdout.splitlines()[-1])
        deferred = {"scipy.linalg", "scipy.special", "scipy.integrate", "scipy.optimize",
                    "fermi_euler.entropy", "fermi_euler.harness.checks"}
        assert deferred.isdisjoint(loaded["start"])
        # perfbench's tracer finds every layer it wraps among the loaded modules
        assert set(loaded["traced"]) <= set(loaded["start"])
        assert deferred.isdisjoint(loaded["runs"])

    def test_cli_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])
