"""Shared helpers of the benchmark's own tests: reduced runs through
`perfbench/run.py`, and editing a copy of a run's CSV files."""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

SEED = 7


def run_bench(workload: str, trace: int = 0, cwd: Path = ROOT, reduced: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    if reduced:
        cmd.append("--reduced")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@lru_cache(maxsize=None)
def reduced_run(workload: str) -> tuple[dict, Path, dict]:
    """(printed result, first round's output directory, config) of one
    reduced untraced run, made once per pytest process."""
    proc = run_bench(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = ROOT / "runs" / "perfbench" / f"{workload}-reduced"
    return result, out / "round0", json.loads((out / "config.json").read_text())


def edit_csv(path: Path, edit) -> None:
    """Rewrite a CSV after `edit(rows)` changed its list of row dicts."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def shift(row: dict, key: str, delta: float = 0.0, scale: float = 1.0) -> None:
    row[key] = repr(float(row[key]) * scale + delta)
