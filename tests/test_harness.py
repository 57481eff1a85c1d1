"""Harness: config handling, experiment outputs, determinism, CLI."""

import json

import numpy as np
import pytest

from fermi_euler.harness import checks, experiments
from fermi_euler.harness.cli import main as cli_main
from fermi_euler.harness.config import ExperimentConfig, load_config, write_manifest

SMALL_TABLE = {"rho_range": [0.15, 0.21], "eint_range": [0.035, 0.065], "resolution": [16, 16]}


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
        ExperimentConfig(table={"rho_range": [0.15, 0.21], "eint_range": [0.035, 0.065]}).closure()
        assert seen == [eos.TABLE_RESOLUTION]

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

    def test_bz_dual_fields_match_pointwise(self):
        from fermi_euler import eos

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


class TestExperiments:
    def test_hydro_compare_small(self, tmp_path):
        cfg = small_config("hydro-compare", tmp_path / "h")
        report = experiments.run_hydro_compare(cfg)
        assert (tmp_path / "h" / "hydro_compare.csv").exists()
        assert (tmp_path / "h" / "hydro_slope.csv").exists()
        assert (tmp_path / "h" / "manifest.json").exists()
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
        from fermi_euler import euler

        cfg = small_config("entropy-track", "unused")
        model, closure = cfg.eos_model(), cfg.closure()
        grid = euler.MacroGrid(cfg.n_cells)
        q0 = euler.initial_q_field(cfg.profile["kind"], cfg.profile["params"], grid, model)
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
        from fermi_euler import euler

        inverted = []
        lambda_field_of = euler.lambda_field_of

        def counted(qfield, model):
            inverted.append(qfield)
            return lambda_field_of(qfield, model)

        monkeypatch.setattr(euler, "lambda_field_of", counted)
        cfg = small_config("entropy-track", tmp_path / "e", times=[0.0, 0.005, 0.01])
        experiments.run_entropy_track(cfg)
        # T = 0, 0.005, 0.01 and the difference's neighbours T +- 2e-4, for
        # both L
        assert len(inverted) == 7
        assert len({id(q) for q in inverted}) == 7

    def test_entropy_track_time_below_difference_step(self, tmp_path):
        # for T < 2e-4 the centred difference's step is T itself, so the run
        # needs no negative time; the gap is 1.7e-4 at T = 1e-4 (S = 8.4e-9)
        cfg = small_config("entropy-track", tmp_path / "e", l_list=[64], times=[0.0, 1e-4])
        row = experiments.run_entropy_track(cfg).rows[1]
        assert row[6] == pytest.approx(row[5], rel=1e-3)

    def test_entropy_track_difference_steps_within_the_cfl_bound(self, tmp_path, monkeypatch):
        # on 2048 cells the CFL step is below the difference's h = 2e-4, so
        # each of the two steps of h is cut into equal steps within it
        from fermi_euler import euler

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
            assert rate == pytest.approx(cold.rate, abs=1e-12)

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

    def test_cli_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])
