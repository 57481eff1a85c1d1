"""Output checks of one run, against a separate computation or a property
the method must have, never against a stored copy of earlier output.

`CHECKS[kind](out_dir, config)` returns a list of (name, ok, detail), one
entry per check; its length depends on the config only, so a missing or
malformed file fails its checks without changing how many were attempted.
Nothing here imports fermi_euler: the reference values are computed by the
benchmark's own code (a Brillouin-zone Newton for the pressure, mpmath's
polylogarithm for the unbounded-domain rate function).
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

COMPONENTS = ("n", "p", "h")
TEST_FUNCTIONS = ("one", "cos", "sin")

# E(T; eps, ell) for f = 1 is a difference of totals, which both sides conserve
ONE_ROW_ATOL = 1e-12
# the registry's tolerance for production vs its centred difference, relative
PRODUCTION_FD_RTOL = 1e-4
# cell totals of the conservative scheme, relative to sum |q| at T = 0
TOTALS_RTOL = 1e-12
# The 40x40 spline closure differs from the exact Brillouin-zone pressure by
# at most 1.03e-9 relative over the region the workloads visit (300 random
# points of rho in [0.16, 0.197], e_int in [0.0375, 0.06]); allow ten times that.
PRESSURE_RTOL = 1e-8
RATE_ATOL = 1e-12
# rate function against the Fermi-Dirac closed form (quadrature rtol 1e-11)
CLOSED_FORM_ATOL = 1e-9


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path.name} has no rows")
    return {key: [r[key] for r in rows] for key in rows[0]}


def _floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


class Results:
    """Collects (name, ok, detail); an exception inside a check fails it."""

    def __init__(self):
        self.items = []

    def check(self, name, fn):
        try:
            ok, detail = fn()
        except Exception as err:  # missing or malformed output fails this check
            ok, detail = False, f"{type(err).__name__}: {err}"
        self.items.append((name, bool(ok), detail))


def _manifest(out: Path, config: dict, results: dict):
    manifest = json.loads((out / "manifest.json").read_text())
    echo = manifest["config"]
    for key, value in config.items():
        got = echo[key] if key in echo else echo["extra"][key]
        if got != value:
            return False, f"config echo {key} = {got!r}, expected {value!r}"
    for key, value in results.items():
        got = manifest["results"][key]
        if got != value:
            return False, f"manifest results {key} = {got!r}, expected {value!r}"
    return True, "config echo matches"


# ---------------------------------------------------------------------------
# hydro-compare
# ---------------------------------------------------------------------------


def check_hydro(out: Path, config: dict) -> list:
    ls, times = config["l_list"], sorted(config["times"])
    res = Results()
    cache = {}

    def table():
        if not cache:
            cols = _read_csv(out / "hydro_compare.csv")
            e = _floats(cols["E"])
            cache["n"] = e.size
            cache["finite"] = bool(np.all(np.isfinite(e)))
            cache["E"] = {
                (int(L), float(t), f, c): v
                for L, t, f, c, v in zip(cols["L"], cols["T"], cols["f"], cols["component"], e)
            }
            cache["slope"] = _floats(_read_csv(out / "hydro_slope.csv")["rms_residual"])
        return cache

    def rows():
        tab = table()
        want = len(ls) * len(times) * len(TEST_FUNCTIONS) * len(COMPONENTS)
        slope = tab["slope"]
        ok = (tab["n"] == want and tab["finite"] and slope.size == len(ls) * 3
              and np.all(np.isfinite(slope)))
        return ok, f"{tab['n']} error rows (want {want}), {slope.size} slope rows"

    res.check("rows", rows)

    def refines(comp):
        def fn():
            E = table()["E"]
            worst = [max(abs(E[(L, times[0], f, comp)]) for f in TEST_FUNCTIONS) for L in ls]
            ok = all(b < a for a, b in zip(worst, worst[1:]))
            return ok, "max_f |E(T=0)| by L: " + ", ".join(f"{w:.3e}" for w in worst)

        return fn

    for comp in COMPONENTS:
        res.check(f"t0_refines.{comp}", refines(comp))

    def one_conserved(L, comp):
        def fn():
            E = table()["E"]
            gap = max(abs(E[(L, t, "one", comp)] - E[(L, times[0], "one", comp)]) for t in times)
            return gap <= ONE_ROW_ATOL, f"|E(T) - E(0)| for f = one: {gap:.2e}"

        return fn

    for L in ls:
        for comp in COMPONENTS:
            res.check(f"one_conserved.L{L}.{comp}", one_conserved(L, comp))
    res.check("manifest", lambda: _manifest(out, config, {"rows": table()["n"]}))
    return res.items


# ---------------------------------------------------------------------------
# entropy-track
# ---------------------------------------------------------------------------


def check_entropy(out: Path, config: dict) -> list:
    ls, times = config["l_list"], sorted(config["times"])
    res = Results()
    cache = {}

    def table():
        if not cache:
            cols = _read_csv(out / "entropy_track.csv")
            keys = list(zip((int(v) for v in cols["L"]), _floats(cols["T"])))
            for name in ("s_total", "s_per_site", "production", "production_fd"):
                cache[name] = dict(zip(keys, _floats(cols[name])))
            cache["n"] = len(keys)
        return cache

    def rows():
        tab = table()
        want = len(ls) * len(times)
        bad = [
            (L, t) for L in ls for t in times
            if not (np.isfinite([tab["s_total"][L, t], tab["production"][L, t]]).all()
                    and math.isclose(tab["s_per_site"][L, t] * L, tab["s_total"][L, t],
                                     rel_tol=1e-12, abs_tol=1e-300)
                    and np.isnan(tab["production_fd"][L, t]) == (t == 0.0))
        ]
        return tab["n"] == want and not bad, f"{tab['n']} rows (want {want}), bad rows {bad}"

    res.check("rows", rows)
    for L in ls:
        for t in times:
            res.check(f"s_nonneg.L{L}.T{t}", lambda L=L, t=t: (
                table()["s_total"][L, t] >= 0.0, f"s_total = {table()['s_total'][L, t]:.6e}"))
        res.check(f"s_zero_at_T0.L{L}", lambda L=L: (
            table()["s_total"][L, 0.0] == 0.0, f"s_total(T=0) = {float(table()['s_total'][L, 0.0])!r}"))
        for t in times[1:]:
            def fd(L=L, t=t):
                prod, prod_fd = table()["production"][L, t], table()["production_fd"][L, t]
                gap = abs(prod - prod_fd) / abs(prod_fd)
                return gap <= PRODUCTION_FD_RTOL, f"relative gap {gap:.2e}"

            res.check(f"production_fd.L{L}.T{t}", fd)
    res.check("manifest", lambda: _manifest(out, config, {"rows": table()["n"]}))
    return res.items


# ---------------------------------------------------------------------------
# euler-run
# ---------------------------------------------------------------------------


def bz_momenta(n: int) -> np.ndarray:
    """Lattice momenta 2 pi k / n in (-pi, pi], Nyquist at +pi."""
    k = np.arange(n)
    k = np.where(k <= n // 2, k, k - n)
    if n % 2 == 0:
        k[n // 2] = n // 2
    return 2.0 * np.pi * k / n


def bz_rest_pressure(rho, eint, nodes: int, iters: int = 50) -> np.ndarray:
    """Rest-frame pressure of the Brillouin-zone Fermi sum at (rho, e_int):
    Newton on (lam0, lam4) for the densities, then psi / lam4."""
    rho = np.asarray(rho, dtype=float)
    eint = np.asarray(eint, dtype=float)
    h = 0.5 * bz_momenta(nodes)[:, None] ** 2
    lam0 = np.full(rho.shape, 0.25)
    lam4 = np.full(rho.shape, 2.5)
    for _ in range(iters):
        g = lam0 - lam4 * h
        f = 0.5 * (1.0 + np.tanh(0.5 * g))
        w = f * (1.0 - f)
        r0 = f.mean(axis=0) - rho
        r1 = (h * f).mean(axis=0) - eint
        if max(np.max(np.abs(r0 / rho)), np.max(np.abs(r1 / eint))) < 1e-14:
            return np.logaddexp(0.0, g).mean(axis=0) / lam4
        a, b = w.mean(axis=0), -(h * w).mean(axis=0)
        c, d = -b, -(h * h * w).mean(axis=0)
        det = a * d - b * c
        lam0 = lam0 - (d * r0 - b * r1) / det
        lam4 = lam4 - (a * r1 - c * r0) / det
    raise ArithmeticError("Brillouin-zone Newton did not converge")


def check_euler(out: Path, config: dict) -> list:
    times = sorted(config["times"])
    n = config["n_cells"]
    res = Results()
    cache = {}

    def snap(t):
        if t not in cache:
            cols = _read_csv(out / f"euler_T{t:.6f}.csv")
            cache[t] = {k: _floats(v) for k, v in cols.items()}
        return cache[t]

    def snapshots():
        centres = (np.arange(n) + 0.5) / n
        for t in times:
            s = snap(t)
            if s["X"].size != n or not np.allclose(s["X"], centres, rtol=0, atol=1e-15):
                return False, f"T = {t}: grid of {s['X'].size} cells"
            if not all(np.all(np.isfinite(v)) for v in s.values()):
                return False, f"T = {t}: non-finite values"
        return True, f"{len(times)} snapshots of {n} cells"

    res.check("snapshots", snapshots)

    for t in times[1:]:
        def conserved(t=t):
            q0, qt = snap(times[0]), snap(t)
            gaps = [abs(qt[c].sum() - q0[c].sum()) / np.abs(q0[c]).sum()
                    for c in ("rho", "mom", "e")]
            return max(gaps) <= TOTALS_RTOL, "relative drift " + ", ".join(f"{g:.1e}" for g in gaps)

        res.check(f"conserved.T{t}", conserved)

    sample = np.unique(np.linspace(0, n - 1, 16).astype(int))
    nodes = config["bz_nodes"]
    for t in times:
        def floor(t=t):
            s = snap(t)
            gap = s["e"] - 0.5 * s["mom"] ** 2 / s["rho"] - np.pi**2 * s["rho"] ** 3 / 6.0
            return gap.min() > 0.0, f"min e_int - pi^2 rho^3 / 6 = {gap.min():.4e}"

        def pressure(t=t):
            s = snap(t)
            cells = np.union1d(sample, [np.argmin(s["rho"]), np.argmax(s["rho"])])
            rho = s["rho"][cells]
            eint = s["e"][cells] - 0.5 * s["mom"][cells] ** 2 / rho
            exact = bz_rest_pressure(rho, eint, nodes)
            gap = np.max(np.abs(s["P"][cells] - exact) / exact)
            return gap <= PRESSURE_RTOL, f"max relative gap {gap:.2e} at {cells.size} cells"

        res.check(f"above_floor.T{t}", floor)
        res.check(f"pressure.T{t}", pressure)
    res.check("manifest", lambda: _manifest(out, config, {"snapshots": len(times)}))
    return res.items


# ---------------------------------------------------------------------------
# rate-scan
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def fermi_dirac_rate(rho: float, e: float, lam0: float, lam4: float) -> float:
    """I(q', lam) on the unbounded 1D domain for q' = (rho, 0, e) and
    lam = (lam0, 0, lam4), from psi = lam4^{-1/2} (2 pi)^{-1/2} F_{3/2}(z)
    with F_s(z) = -Li_s(-e^z) and F_s' = F_{s-1}.

    At the maximizer lam* of s(q'), e/rho^3 = F_{3/2}(z) / (2 c^2 F_{1/2}(z)^3)
    with c = (2 pi)^{-1/2} depends on z = lam0* alone: Newton on its log."""
    import mpmath as mp

    with mp.workdps(20):
        c = 1 / mp.sqrt(2 * mp.pi)

        def F(s, z):
            return -mp.re(mp.polylog(s, -mp.exp(z)))

        target = mp.log(mp.mpf(e) / mp.mpf(rho) ** 3 * 2 * c * c)
        z = mp.mpf(lam0)
        for _ in range(30):
            f32, f12, fm12 = F(1.5, z), F(0.5, z), F(-0.5, z)
            step = (mp.log(f32) - 3 * mp.log(f12) - target) / (f12 / f32 - 3 * fm12 / f12)
            z -= step
            if abs(step) < mp.mpf(10) ** -16:
                break
        else:
            raise ArithmeticError("Fermi-Dirac Newton did not converge")
        lam4_star = (c * F(0.5, z) / rho) ** 2
        s = z * rho - 3 * lam4_star * e  # psi(lam*) = 2 lam4* e (1D virial)
        psi_ref = c / mp.sqrt(lam4) * F(1.5, mp.mpf(lam0))
        return float(s + psi_ref - (lam0 * rho - lam4 * e))


def check_rate(out: Path, config: dict) -> list:
    scan = config["rate_scan"]
    n = scan["points"]
    lam0, lam4 = scan["beta"] * scan["mu"], scan["beta"]
    res = Results()
    cache = {}

    def grid():
        if not cache:
            cols = _read_csv(out / "rate_scan.csv")
            cache.update({k: _floats(v) for k, v in cols.items()})
        return cache

    def points():
        g = grid()
        ok = g["I"].size == n * n and np.all(np.isfinite(g["I"]))
        return ok, f"{g['I'].size} points (want {n * n}), {int(np.sum(~np.isfinite(g['I'])))} NaN"

    res.check("grid", points)
    res.check("nonneg", lambda: (np.min(grid()["I"]) >= -RATE_ATOL, f"min I = {np.min(grid()['I']):.3e}"))
    centre = (n // 2) * n + n // 2
    res.check("centre", lambda: (abs(grid()["I"][centre]) <= RATE_ATOL,
                                 f"I at the reference densities = {grid()['I'][centre]:.3e}"))
    for i, j in ((0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, n // 4)):
        def closed_form(k=i * n + j):
            g = grid()
            ref = fermi_dirac_rate(g["rho"][k], g["e"][k], lam0, lam4)
            gap = abs(g["I"][k] - ref)
            return gap <= CLOSED_FORM_ATOL, f"I = {g['I'][k]:.12e}, closed form {ref:.12e}"

        res.check(f"closed_form.{i}.{j}", closed_form)
    res.check("manifest", lambda: _manifest(out, config, {}))
    return res.items


CHECKS = {
    "hydro-compare": check_hydro,
    "entropy-track": check_entropy,
    "euler-run": check_euler,
    "rate-scan": check_rate,
}
