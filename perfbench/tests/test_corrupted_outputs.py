"""Each output check passes on a reduced run's files and fails on a copy of
them corrupted in the way that check guards against."""

from __future__ import annotations

import json
import math
import shutil

import pytest
from bench_helpers import edit_csv, reduced_run, shift

import checks


def _rows_where(rows, **match):
    return [r for r in rows if all(float(r[k]) == v if isinstance(v, float) else r[k] == v
                                   for k, v in match.items())]


def _manifest_profile(d):
    path = d / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["seed"] += 1
    path.write_text(json.dumps(manifest))


def _hydro(name):
    csv_path = "hydro_compare.csv"

    def nan(rows):
        rows[5]["E"] = "nan"

    def coarse_gets_worse(rows):
        fine = _rows_where(rows, L="512", T=0.0, f="cos", component="n")[0]
        shift(fine, "E", scale=1e3)

    def one_moves(rows):
        shift(_rows_where(rows, L="256", T=0.02, f="one", component="p")[0], "E", delta=1e-10)

    return {
        "rows": lambda d: edit_csv(d / csv_path, nan),
        "t0_refines.n": lambda d: edit_csv(d / csv_path, coarse_gets_worse),
        "one_conserved.L256.p": lambda d: edit_csv(d / csv_path, one_moves),
        "manifest": _manifest_profile,
    }[name]


def _entropy(name):
    csv_path = "entropy_track.csv"

    def at(rows, t):
        return _rows_where(rows, T=t)[0]

    def negative(rows):
        at(rows, 0.01)["s_total"] = repr(-1e-9)

    def nonzero_start(rows):
        at(rows, 0.0)["s_total"] = repr(1e-300)

    def production_off(rows):
        shift(at(rows, 0.01), "production", scale=1.001)

    def nan(rows):
        at(rows, 0.02)["production"] = "nan"

    return {
        "rows": lambda d: edit_csv(d / csv_path, nan),
        "s_nonneg.L256.T0.01": lambda d: edit_csv(d / csv_path, negative),
        "s_zero_at_T0.L256": lambda d: edit_csv(d / csv_path, nonzero_start),
        "production_fd.L256.T0.01": lambda d: edit_csv(d / csv_path, production_off),
        "manifest": _manifest_profile,
    }[name]


def _euler(name):
    last = "euler_T0.010000.csv"

    def drop_cell(rows):
        rows.pop()

    def leak(rows):
        shift(rows[3], "rho", delta=1e-9)

    def below_floor(rows):
        rho = float(rows[7]["rho"])
        mom = float(rows[7]["mom"])
        rows[7]["e"] = repr(0.5 * mom**2 / rho + math.pi**2 * rho**3 / 6.0 * 0.999)

    def pressure_off(rows):
        shift(rows[0], "P", scale=1.0 + 1e-7)

    return {
        "snapshots": lambda d: edit_csv(d / last, drop_cell),
        "conserved.T0.01": lambda d: edit_csv(d / last, leak),
        "above_floor.T0.01": lambda d: edit_csv(d / last, below_floor),
        "pressure.T0.01": lambda d: edit_csv(d / last, pressure_off),
        "manifest": _manifest_profile,
    }[name]


def _rate(name):
    csv_path = "rate_scan.csv"

    def nan(rows):
        rows[3]["I"] = "nan"

    def negative(rows):
        rows[3]["I"] = repr(-1e-9)

    def centre_lifted(rows):
        shift(rows[len(rows) // 2], "I", delta=1e-9)

    def corner_off(rows):
        shift(rows[0], "I", delta=1e-8)

    return {
        "grid": lambda d: edit_csv(d / csv_path, nan),
        "nonneg": lambda d: edit_csv(d / csv_path, negative),
        "centre": lambda d: edit_csv(d / csv_path, centre_lifted),
        "closed_form.0.0": lambda d: edit_csv(d / csv_path, corner_off),
        "manifest": _manifest_profile,
    }[name]


CORRUPTIONS = {
    "hydro-L2048": (_hydro, ["rows", "t0_refines.n", "one_conserved.L256.p", "manifest"]),
    "entropy-L512": (_entropy, ["rows", "s_nonneg.L256.T0.01", "s_zero_at_T0.L256",
                                "production_fd.L256.T0.01", "manifest"]),
    "euler-N1024": (_euler, ["snapshots", "conserved.T0.01", "above_floor.T0.01",
                             "pressure.T0.01", "manifest"]),
    "ratescan-unbounded": (_rate, ["grid", "nonneg", "centre", "closed_form.0.0", "manifest"]),
}
CASES = [(w, name) for w, (_, names) in CORRUPTIONS.items() for name in names]


def _family(name: str) -> str:
    return name.split(".")[0]


def _run_checks(out, config):
    return {name: (ok, detail) for name, ok, detail in checks.CHECKS[config["kind"]](out, config)}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_every_check_family_has_a_corruption(workload):
    _, out, config = reduced_run(workload)
    families = {_family(name) for name in _run_checks(out, config)}
    assert families == {_family(name) for name in CORRUPTIONS[workload][1]}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_checks_pass_on_the_run(workload):
    _, out, config = reduced_run(workload)
    failing = {n: d for n, (ok, d) in _run_checks(out, config).items() if not ok}
    assert not failing


@pytest.mark.parametrize("workload,name", CASES)
def test_check_fails_on_corrupted_copy(workload, name, tmp_path):
    _, out, config = reduced_run(workload)
    copy = tmp_path / "round"
    shutil.copytree(out, copy)
    CORRUPTIONS[workload][0](name)(copy)
    results = _run_checks(copy, config)
    assert not results[name][0], results[name][1]
    assert len(results) == len(_run_checks(out, config))


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_missing_files_fail_every_check(workload, tmp_path):
    _, _, config = reduced_run(workload)
    results = checks.CHECKS[config["kind"]](tmp_path, config)
    assert results and not any(ok for _, ok, _ in results)
