"""Acceptance suite: the ten exit criteria, each at its stated tolerance.

Every criterion is exercised through the same named-check registry the
`fermi-euler checks` CLI runs, at the default tolerances, and one
pass/fail line is printed per criterion.  Criterion 10 reports the
commuting-diagram trends only: no long-time convergence is asserted, because
the free gas conserves every momentum-mode occupation and therefore violates
the ergodicity hypothesis behind the long-time statement.
"""

import pytest

from fermi_euler.harness.checks import CRITERION_GROUPS, run_checks
from fermi_euler.harness.config import ExperimentConfig

DESCRIPTIONS = {
    1: "virial identity (free gas), d = 1 and 3, rel 1e-8",
    2: "boost identities for psi and kinetic energy, 1e-8",
    3: "current expectations vs eos(BRILLOUIN) at L = 512, rel 1e-6",
    4: "Gaussian relative entropy vs Fock oracle, L <= 5, 1e-8",
    5: "entropy / Golden-Thompson / Peierls inequalities, -1e-10",
    6: "rate function: nonnegativity, zero, Hessian, truncation",
    7: "microscopic continuity: L2 < 1e-6 at dt = 1e-4, exact generator < 1e-13",
    8: "window partition of unity and cutoff Fourier properties",
    9: "Euler conservation, fixed point, L1 order >= 0.8",
    10: "hydro-compare trend at T = 0 and entropy-track start",
    11: "banded Gibbs states vs their dense Chat: fields, rates, currents, entropies, 1e-13",
}

CRITERION_CHECK_PREFIXES = {
    1: ["eos.virial"],
    2: ["eos.boost"],
    3: ["micro.densities_vs_eos", "micro.current_expectations"],
    4: ["micro.gaussian_vs_fock"],
    5: ["entropy."],
    6: ["ldp.rate", "ldp.truncated"],
    7: ["micro.continuity"],
    8: ["micro.window", "micro.cutoff"],
    9: ["euler."],
    10: ["hydro."],
    11: ["micro.banded_vs_dense"],
}


@pytest.fixture(scope="module")
def acceptance_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    config = ExperimentConfig(kind="checks", out_dir=str(out))
    groups = [g for gs in CRITERION_GROUPS.values() for g in gs]
    return run_checks(config, groups=groups, verbose=False)


@pytest.mark.parametrize("criterion", sorted(CRITERION_GROUPS))
def test_criterion(criterion, acceptance_results):
    prefixes = CRITERION_CHECK_PREFIXES[criterion]
    rows = [
        r
        for r in acceptance_results.results
        if any(r.name.startswith(p) for p in prefixes)
    ]
    assert rows, f"no checks matched criterion {criterion}"
    ok = all(r.passed for r in rows)
    print(f"criterion {criterion:2d} [{'PASS' if ok else 'FAIL'}]: {DESCRIPTIONS[criterion]}")
    for r in rows:
        if not r.passed:
            print("   " + r.line())
    assert ok, f"criterion {criterion} failed: " + "; ".join(
        r.line() for r in rows if not r.passed
    )


def test_full_registry_green(acceptance_results):
    assert acceptance_results.all_passed
