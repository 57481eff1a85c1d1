"""The measured process.  `run.py` starts it with one BLAS/OpenMP thread.

    python3 perfbench/child.py setup <config>
        import fermi_euler and load the config, then exit: the set-up a CLI
        user pays before any physics (the parent times the whole process).

    python3 perfbench/child.py run <config> <out_dir> <seconds> <trace>
        call the CLI entry point in-process, one whole run per round, and
        write <out_dir>/child.json with the per-round wall times, the peak
        resident set and, when traced, the per-layer metrics.

Untraced, rounds repeat while another round is predicted to end within
<seconds> (at least one).  Traced, one untraced round is followed by one
traced round, and their difference is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path.cwd() / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    from fermi_euler.harness import cli, config

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"fermi_euler imported from {cli.__file__}, not from {SRC}")
    return cli, config


def setup(config_path: str) -> None:
    _, config = _import_program()
    config.load_config(config_path)
    sys.stdout.flush()
    os._exit(0)


def _round(cli, kind: str, config_path: str, out: Path) -> dict:
    t0 = time.perf_counter()
    try:
        cli.main([kind, "--config", config_path, "--out", str(out)])
        error = None
    except Exception:  # the round's outputs are then checked as failed
        error = traceback.format_exc()
    return {"dir": out.name, "run_s": time.perf_counter() - t0, "error": error}


def run(config_path: str, out_dir: str, seconds: float, trace: bool) -> None:
    cli, _ = _import_program()
    kind = json.loads(Path(config_path).read_text())["kind"]
    out = Path(out_dir)
    rounds = []
    result = {}
    if trace:
        import tracing

        rounds.append(_round(cli, kind, config_path, out / "round0"))
        tracer = tracing.Tracer.for_program()
        try:
            with tracer.span("harness.main"):
                rounds.append(_round(cli, kind, config_path, out / "round1"))
        finally:
            tracer.restore()
        tracer.write(out / "spans.json")
        result["layers"] = tracing.derive(tracer.spans)
        result["layers"]["trace.overhead_s"] = rounds[1]["run_s"] - rounds[0]["run_s"]
    else:
        start = time.perf_counter()
        while True:
            rounds.append(_round(cli, kind, config_path, out / f"round{len(rounds)}"))
            elapsed = time.perf_counter() - start
            if rounds[-1]["error"] or elapsed + rounds[-1]["run_s"] > seconds:
                break
    result["rounds"] = rounds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "child.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    else:
        run(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1")
