"""The benchmark's workloads: one experiment config per (workload, seed).

Each workload is one user-level CLI run.  The seed draws only inputs that
can vary without leaving the 40x40 closure table or the one-phase region:

* the three profile phases of the `lambda-cos` multiplier profile (any phase
  keeps every cell inside rho in [0.160, 0.197], e_int in [0.037, 0.060] up to
  T = 0.1, well inside the table's [0.15, 0.21] x [0.035, 0.065]);
* the reference (beta, mu) of the rate scan, in [0.8, 1.25] x [0.05, 0.15],
  where every point of the +-25% grid stays above the T = 0 energy floor.
  The quadrature work grows with mu (-17% at mu = -0.25, +4% at mu = 0.15
  against mu = 0), so mu is kept in a narrow band: run-to-run spread should
  come from the program, not from the seed.

`reduced=True` gives a small version of each workload for the smoke tests;
it keeps the closure table as it is, since the pressure check's tolerance
is the accuracy measured for that table.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 20240817

PHASE_RANGE = (0.0, 2.0 * math.pi)
BETA_RANGE = (0.8, 1.25)
MU_RANGE = (0.05, 0.15)

TABLE = {"rho_range": [0.15, 0.21], "eint_range": [0.035, 0.065], "resolution": [40, 40]}


def _profile(rng: random.Random) -> dict:
    return {
        "kind": "lambda-cos",
        "params": {
            "lam0": 0.25,
            "lam0_amp": 0.08,
            "lam0_phase": rng.uniform(*PHASE_RANGE),
            "lam1_amp": 0.1,
            "lam1_phase": rng.uniform(*PHASE_RANGE),
            "lam4": 2.5,
            "lam4_amp": 0.25,
            "lam4_phase": rng.uniform(*PHASE_RANGE),
        },
    }


def _bz(kind: str, seed: int, rng: random.Random, **fields) -> dict:
    return {
        "kind": kind,
        "seed": seed,
        "ell_ratio": 16,
        "cfl": 0.4,
        "profile": _profile(rng),
        "eos_domain": "brillouin",
        "bz_nodes": 4096,
        "table": TABLE,
        **fields,
    }


def hydro(seed: int, reduced: bool) -> dict:
    return _bz(
        "hydro-compare", seed, random.Random(seed),
        l_list=[256, 512] if reduced else [1024, 2048],
        times=[0.0, 0.02],
        n_cells=64 if reduced else 256,
    )


def entropy(seed: int, reduced: bool) -> dict:
    return _bz(
        "entropy-track", seed, random.Random(seed),
        l_list=[256] if reduced else [512],
        times=[0.0, 0.005, 0.01, 0.02],
        n_cells=64 if reduced else 256,
    )


def euler_run(seed: int, reduced: bool) -> dict:
    return _bz(
        "euler-run", seed, random.Random(seed),
        n_cells=128 if reduced else 1024,
        times=[0.0, 0.005, 0.01] if reduced else [0.0, 0.025, 0.05, 0.075, 0.1],
    )


def ratescan(seed: int, reduced: bool) -> dict:
    rng = random.Random(seed)
    return {
        "kind": "rate-scan",
        "seed": seed,
        "eos_domain": "unbounded",
        "rate_scan": {
            "beta": rng.uniform(*BETA_RANGE),
            "alpha": 0.0,
            "mu": rng.uniform(*MU_RANGE),
            "span": 0.25,
            "points": 5 if reduced else 25,
        },
    }


WORKLOADS = {
    "hydro-L2048": hydro,
    "entropy-L512": entropy,
    "euler-N1024": euler_run,
    "ratescan-unbounded": ratescan,
}


def make_config(workload: str, seed: int, reduced: bool = False) -> dict:
    return WORKLOADS[workload](seed, reduced)
