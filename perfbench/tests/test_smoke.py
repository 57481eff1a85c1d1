"""Reduced-size runs of every workload through the benchmark command, and
the agreement of BENCHMARK.json with what the command prints."""

from __future__ import annotations

import json
import shutil

import pytest
from bench_helpers import BENCH, ROOT, reduced_run, run_bench

import tracing
import workloads

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reduced_run_passes_its_checks(workload):
    result, _, _ = reduced_run(workload)
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench("euler-N1024", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["eos.invert_to_multipliers.calls"] == 40 * 40  # the closure table
    assert values["euler.step.calls"] > 0 and values["ldp.rate_I.calls"] == 0


def test_spec_lists_the_workloads_and_per_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_seeded_configs_repeat_and_vary():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 3) == workloads.make_config(name, 3)
        assert workloads.make_config(name, 3) != workloads.make_config(name, 4)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("euler-N1024", cwd=tmp_path, reduced=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
