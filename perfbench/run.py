"""fermi-euler benchmark: one workload, one user-level CLI run per round.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (it imports `src/fermi_euler`).  The
workload's config is generated from the seed and written to
runs/perfbench/<workload>/config.json; the program receives only that file.
Set-up is timed over SETUP_PROBES fresh processes that import fermi_euler
and load the config; the run itself happens in one more process that calls
`fermi_euler.harness.cli.main` in-process (see child.py).  Every process
started here gets one BLAS/OpenMP thread.  The outputs of every round are
checked (see checks.py), and the last line of standard output is one JSON
object: correct, attempted, failed and the metrics, end-to-end with
--trace 0 and per-layer (tracing.PER_LAYER) with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
# Whatever the caller's environment says: set-up always compiles fermi_euler
# from source and writes no bytecode into the checkout, and a fixed hash seed
# keeps the interpreter's dict layouts, and with them the speed of the
# Python-bound layers, the same from one process to the next.
CHILD_ENV = {**THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_config  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def _child(*args, timeout=CHILD_TIMEOUT_S, log=None) -> None:
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    with open(log, "w") if log else open(os.devnull, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, text=True,
                              timeout=timeout, env={**os.environ, **CHILD_ENV})
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process {args[0]} failed:\n{proc.stderr[-4000:]}")


def setup_seconds(config_path: Path) -> float:
    """Median wall time of fresh processes that import fermi_euler and load
    the config; one unmeasured probe first warms the file cache."""
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        _child("setup", config_path, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fermi_euler" / "__init__.py").is_file():
        print(f"{root} holds no src/fermi_euler; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    config = make_config(args.workload, args.seed, args.reduced)
    out = root / "runs" / "perfbench" / (args.workload + ("-reduced" if args.reduced else ""))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2))

    setup_s = None if args.trace else setup_seconds(config_path)
    _child("run", config_path, out, args.seconds, args.trace, log=out / "child.log")
    child = json.loads((out / "child.json").read_text())

    check = checks.CHECKS[config["kind"]]
    attempted = failed = 0
    for rnd in child["rounds"]:
        items = check(out / rnd["dir"], config)
        if rnd["error"]:
            print(f"{rnd['dir']}: the run raised\n{rnd['error']}", file=sys.stderr)
            items = [(name, False, "run raised") for name, _, _ in items]
        for name, ok, detail in items:
            if not ok:
                print(f"{rnd['dir']}: check {name} failed: {detail}", file=sys.stderr)
        attempted += len(items)
        failed += sum(not ok for _, ok, _ in items)

    if args.trace:
        metrics = {name: {"value": child["layers"][name], "unit": unit}
                   for name, unit in tracing.UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in child["rounds"]),
                      "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
