"""The commuting-diagram experiments and the file-emitting run kinds.

hydro-compare builds the local Gibbs state from the initial multiplier
profile, evolves it microscopically to t = T/epsilon, coarse-grains, runs
the Euler side to T, and tabulates the error functional

    E(T; epsilon, ell) = epsilon * sum_x f(eps x) (coarse u(x, T/eps) - qbar(eps x, T))

per conserved component and test function f in {1, cos 2 pi X, sin 2 pi X}.
The reference field qbar is windowed with the same partition-of-unity kernel
as the microscopic side, so E isolates the local-Gibbs construction error
instead of the L-independent smoothing bias of the window itself.  No
convergence is asserted at large T: the free gas conserves every momentum
mode occupation, so only the T = 0 structure and short-time slopes are
expected to refine (they are reported, never extrapolated).  The T = 0 slope
is exact: the fields of the generator -i (eps_k - eps_q) Chat.

entropy-track follows s(gamma_t | omega^eps_t)/L with omega the local Gibbs
state of the Euler trajectory's multiplier field at each snapshot (evaluated
in closed form from its exponent), cross-checked against the closed-form
entropy production rate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .. import eos, euler, ldp, micro
from ..errors import NoConvergence, OutOfDomain
from ..micro import GaussianState, Lattice, MultiplierField
from .config import ExperimentConfig, write_manifest

TEST_FUNCTIONS = {
    "one": lambda X: np.ones_like(X),
    "cos": lambda X: np.cos(2.0 * np.pi * X),
    "sin": lambda X: np.sin(2.0 * np.pi * X),
}
COMPONENTS = ("n", "p", "h")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def bz_dual_fields(model: eos.EosModel, lam0, lam1, lam4):
    """Vectorized Brillouin-zone dual map over per-site multiplier arrays."""
    p = eos.brillouin_momenta(model.bz_nodes)
    g = lam0[None, :] + p[:, None] * lam1[None, :] - 0.5 * lam4[None, :] * p[:, None] ** 2
    f = expit(g)
    rho = f.mean(axis=0)
    mom = (p[:, None] * f).mean(axis=0)
    e = (0.5 * p[:, None] ** 2 * f).mean(axis=0)
    return rho, mom, e


def bz_pressure_field(model: eos.EosModel, lam0, lam1, lam4):
    p = eos.brillouin_momenta(model.bz_nodes)
    g = lam0[None, :] + p[:, None] * lam1[None, :] - 0.5 * lam4[None, :] * p[:, None] ** 2
    return np.logaddexp(0.0, g).mean(axis=0) / lam4


def trig_interp(values: np.ndarray, x_out: np.ndarray, x_offset: float) -> np.ndarray:
    """Trigonometric interpolation of periodic samples at (j + offset)/N onto
    arbitrary points of the unit torus (both grids periodic, no aliasing)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    vhat = np.fft.fft(values)
    m = np.fft.fftfreq(n, d=1.0 / n)
    shift = np.asarray(x_out, dtype=float)[None, :] - x_offset
    phases = np.exp(2j * np.pi * m[:, None] * shift)
    if n % 2 == 0:
        phases[n // 2] = np.cos(2.0 * np.pi * (n // 2) * shift[0])
    return (vhat[:, None] * phases).sum(axis=0).real / n


def macro_spectral_derivative(field: np.ndarray) -> np.ndarray:
    """d/dX of a per-site field sampled at X = x/L on the unit torus."""
    n = field.size
    m = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        m[n // 2] = 0.0
    return np.fft.ifft(2j * np.pi * m * np.fft.fft(field)).real


def lam_sites_from_profile(profile: dict, X: np.ndarray, model: eos.EosModel):
    """Multiplier fields of a named profile at torus positions X."""
    calls = euler.profile_callables(profile["kind"], profile["params"])
    ones = np.ones_like(X)
    if profile["kind"] == "lambda-cos":
        return (
            calls["lam0"](X) * ones,
            calls["lam1"](X) * ones,
            calls["lam4"](X) * ones,
        )
    lam0 = np.empty_like(X)
    lam1 = np.empty_like(X)
    lam4 = np.empty_like(X)
    guess = None
    for j, x in enumerate(np.asarray(X)):
        q = eos.ConservedVector(
            rho=calls["rho"](x), mom=[calls["mom"](x)], e=calls["e"](x)
        )
        lam = eos.invert_to_multipliers(model, q, guess)
        guess = lam
        lam0[j], lam1[j], lam4[j] = lam.lam0, lam.lam_mom[0], lam.lam4
    return lam0, lam1, lam4


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# hydro-compare
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    """E(T; epsilon, ell) rows ((L, ell, T, f, component, value)) plus the
    short-time slope residual rows ((L, ell, component, value))."""

    error_rows: list
    slope_rows: list

    def error_table(self):
        """{(T, component): {L: max_f |E|}} for trend inspection."""
        out = {}
        for L, _ell, t, _f, comp, val in self.error_rows:
            key = (t, comp)
            out.setdefault(key, {})
            out[key][L] = max(out[key].get(L, 0.0), abs(val))
        return out

    def slope_table(self):
        out = {}
        for L, _ell, comp, val in self.slope_rows:
            out.setdefault(comp, {})[L] = val
        return out


def run_hydro_compare(config: ExperimentConfig, out_dir=None) -> ConvergenceReport:
    model = config.eos_model()
    closure = config.closure()
    times = sorted(set(float(t) for t in config.times))
    t_max = times[-1]
    grid = euler.MacroGrid(config.n_cells)
    q0 = euler.initial_q_field(
        config.profile["kind"], config.profile["params"], grid, model
    )
    traj = euler.run(q0, t_max, grid, closure, cfl=config.cfl, snapshot_times=times)

    error_rows, slope_rows = [], []
    out = Path(out_dir or config.out_dir)
    try:
        for L in config.l_list:
            lat = Lattice(L)
            ell = L // config.ell_ratio
            X = lat.sites * lat.epsilon
            lam0, lam1, lam4 = lam_sites_from_profile(config.profile, X, model)
            lam_field = MultiplierField(lat, lam0=lam0, lam1=lam1, lam4=lam4)
            omega0 = micro.gibbs_gaussian(lat, lam_field)

            for t_macro in times:
                state = evolve_to(omega0, t_macro, lat)
                dens = micro.coarse_grain(micro.densities(state), ell, lat)
                ref = {}
                q_t = traj.at(t_macro)
                for comp, cells in (("n", q_t.rho), ("p", q_t.mom), ("h", q_t.e)):
                    site_vals = trig_interp(cells, X, x_offset=0.5 * grid.dx)
                    ref[comp] = micro.coarse_grain(site_vals, ell, lat)
                fields = {"n": dens.n, "p": dens.p, "h": dens.h}
                for fname, ffun in TEST_FUNCTIONS.items():
                    fvals = ffun(X)
                    for comp in COMPONENTS:
                        e_val = float(
                            lat.epsilon * np.sum(fvals * (fields[comp] - ref[comp]))
                        )
                        error_rows.append((L, ell, t_macro, fname, comp, e_val))

            # slope at T = 0, exact from the generator (d/dT = d/dt / epsilon),
            # against the Euler right side
            slope = micro.densities_rate(omega0).stack() / lat.epsilon
            rho_r, mom_r, e_r = bz_dual_fields(model, lam0, lam1, lam4)
            p_r = bz_pressure_field(model, lam0, lam1, lam4)
            a_fields = np.stack(
                [mom_r, p_r + mom_r**2 / rho_r, mom_r * (e_r + p_r) / rho_r]
            )
            rhs = -np.stack([macro_spectral_derivative(a) for a in a_fields])
            for idx, comp in enumerate(COMPONENTS):
                resid = micro.coarse_grain(slope[idx] - rhs[idx], ell, lat)
                slope_rows.append((L, ell, comp, float(np.sqrt(np.mean(resid**2)))))
    finally:
        # partial results are flushed even if a later (epsilon, ell) cell fails
        _write_csv(
            out / "hydro_compare.csv",
            ["L", "ell", "T", "f", "component", "E"],
            error_rows,
        )
        _write_csv(
            out / "hydro_slope.csv",
            ["L", "ell", "component", "rms_residual"],
            slope_rows,
        )
    report = ConvergenceReport(error_rows=error_rows, slope_rows=slope_rows)
    # monotonicity flags are computed from the table, never assumed
    flags = {}
    for (t_macro, comp), by_l in report.error_table().items():
        ls = sorted(by_l)
        flags[f"T={t_macro}:{comp}"] = bool(
            all(by_l[b] < by_l[a] for a, b in zip(ls, ls[1:]))
        )
    write_manifest(
        out, config, extras={"rows": len(error_rows), "errors_decreasing_in_L": flags}
    )
    return report


def evolve_to(omega0: GaussianState, t_macro: float, lat: Lattice) -> GaussianState:
    """Macroscopic time T corresponds to exact microscopic time t = T/epsilon."""
    if t_macro == 0.0:
        return omega0
    return micro.evolve(omega0, t_macro / lat.epsilon)


# ---------------------------------------------------------------------------
# entropy-track
# ---------------------------------------------------------------------------


@dataclass
class EntropyReport:
    rows: list  # (L, T, t_micro, s_total, s_per_site, production, production_fd)


def run_entropy_track(config: ExperimentConfig, out_dir=None) -> EntropyReport:
    model = config.eos_model()
    closure = config.closure()
    times = sorted(set(float(t) for t in config.times))
    h_prod = float(config.extra.get("production_step", 1e-5))
    h_fd = float(config.extra.get("fd_step", 2e-4))
    grid = euler.MacroGrid(config.n_cells)
    q0 = euler.initial_q_field(
        config.profile["kind"], config.profile["params"], grid, model
    )

    # every macroscopic instant the production / fd oracles will ask for
    needed = set()
    for t in times:
        needed.update((t, t + h_prod, t - h_prod))
        if t > 0.0:
            needed.update((t + h_fd, t - h_fd, t + h_fd + h_prod, t + h_fd - h_prod,
                           t - h_fd + h_prod, t - h_fd - h_prod))
    forward = sorted(t for t in needed if t >= 0.0)
    backward = sorted(-t for t in needed if t < 0.0)
    traj = euler.run(q0, forward[-1], grid, closure, cfl=config.cfl, snapshot_times=forward)
    snapshots = {round(t, 12): traj.at(t) for t in forward}
    if backward:
        # time reversal: reflect momentum, run forward, reflect back
        q0_r = euler.ConservedField(rho=q0.rho, mom=-q0.mom, e=q0.e)
        traj_b = euler.run(q0_r, backward[-1], grid, closure, cfl=config.cfl,
                           snapshot_times=backward)
        for t in backward:
            q_b = traj_b.at(t)
            snapshots[round(-t, 12)] = euler.ConservedField(
                rho=q_b.rho, mom=-q_b.mom, e=q_b.e
            )

    rows = []
    out = Path(out_dir or config.out_dir)
    for L in config.l_list:
        lat = Lattice(L)
        X = lat.sites * lat.epsilon
        lam0, lam1, lam4 = lam_sites_from_profile(config.profile, X, model)
        omega0 = micro.gibbs_gaussian(lat, MultiplierField(lat, lam0, lam1, lam4))
        cache: dict = {}

        def lam_at(t_macro: float, _lat=lat, _cache=cache) -> MultiplierField:
            key = round(t_macro, 12)
            if key not in _cache:
                q_cells = snapshots[key]
                l0c, l1c, l4c = euler.lambda_field_of(q_cells, model)
                xs = _lat.sites * _lat.epsilon
                off = 0.5 * grid.dx
                _cache[key] = MultiplierField(
                    _lat,
                    lam0=trig_interp(l0c, xs, off),
                    lam1=trig_interp(l1c, xs, off),
                    lam4=trig_interp(l4c, xs, off),
                )
            return _cache[key]

        def lam_of_micro_t(t_micro: float) -> MultiplierField:
            return lam_at(t_micro * lat.epsilon)

        def entropy_at(t_macro: float) -> float:
            if t_macro == 0.0:
                return 0.0  # gamma_0 = omega_0 by construction
            gamma = micro.evolve(omega0, t_macro / lat.epsilon)
            return micro.rel_entropy_gaussian(gamma, lam_at(t_macro))[0]

        for t_macro in times:
            t_micro = t_macro / lat.epsilon
            gamma = omega0 if t_macro == 0.0 else micro.evolve(omega0, t_micro)
            # the reference at T > 0 is the local Gibbs state of lam_at(T),
            # evaluated in closed form from its exponent
            omega_t = omega0 if t_macro == 0.0 else lam_at(t_macro)
            s_tot, s_site = micro.rel_entropy_gaussian(gamma, omega_t)
            production = micro.entropy_production(
                gamma, lam_of_micro_t, t_micro, dt_macro=h_prod
            )
            if t_macro > 0.0:
                s_up = entropy_at(t_macro + h_fd)
                s_dn = entropy_at(t_macro - h_fd)
                production_fd = (s_up - s_dn) / (2.0 * h_fd) * lat.epsilon
            else:
                production_fd = float("nan")
            rows.append((L, t_macro, t_micro, s_tot, s_site, production, production_fd))

    _write_csv(
        out / "entropy_track.csv",
        ["L", "T", "t_micro", "s_total", "s_per_site", "production", "production_fd"],
        rows,
    )
    write_manifest(out, config, extras={"rows": len(rows)})
    return EntropyReport(rows=rows)


# ---------------------------------------------------------------------------
# file-emitting run kinds
# ---------------------------------------------------------------------------


def run_euler(config: ExperimentConfig, out_dir=None) -> Path:
    """euler-run: CSV per snapshot (X, rho, mom, e, P) plus the manifest."""
    model = config.eos_model()
    closure = config.closure()
    grid = euler.MacroGrid(config.n_cells)
    q0 = euler.initial_q_field(
        config.profile["kind"], config.profile["params"], grid, model
    )
    times = sorted(set(float(t) for t in config.times))
    traj = euler.run(q0, times[-1], grid, closure, cfl=config.cfl, snapshot_times=times)
    out = Path(out_dir or config.out_dir)
    for t, q in zip(traj.times, traj.snapshots):
        if t not in times:
            continue
        p = closure(q.rho, q.e_internal)
        rows = [
            [float(v) for v in tup]
            for tup in zip(grid.centers, q.rho, q.mom, q.e, p)
        ]
        _write_csv(out / f"euler_T{t:.6f}.csv", ["X", "rho", "mom", "e", "P"], rows)
    write_manifest(out, config, extras={"snapshots": len(times),
                                        "shock_indicator": traj.shock_indicator})
    return out


def run_micro(config: ExperimentConfig, out_dir=None) -> Path:
    """micro-run: evolve the local Gibbs state, dump density/current CSVs and
    an optional binary state snapshot per requested time."""
    model = config.eos_model()
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for L in config.l_list:
        lat = Lattice(L)
        X = lat.sites * lat.epsilon
        lam0, lam1, lam4 = lam_sites_from_profile(config.profile, X, model)
        omega0 = micro.gibbs_gaussian(lat, MultiplierField(lat, lam0, lam1, lam4))
        for t_macro in sorted(set(float(t) for t in config.times)):
            state = evolve_to(omega0, t_macro, lat)
            dens = micro.densities(state)
            cur = micro.currents(state)
            micro.fields_to_csv(out / f"micro_L{L}_T{t_macro:.6f}.csv", lat, dens, cur)
            if config.extra.get("save_states", False):
                micro.save_state(
                    state, out / f"state_L{L}_T{t_macro:.6f}.bin", t=t_macro / lat.epsilon
                )
    write_manifest(out, config)
    return out


def run_eos_table(config: ExperimentConfig, out_dir=None) -> Path:
    """eos-table: serialized table plus a CSV preview."""
    model = config.eos_model()
    ranges = config.table or {
        "rho_range": [0.15, 0.21],
        "eint_range": [0.035, 0.065],
        "resolution": [48, 48],
    }
    table = eos.tabulate(
        model,
        tuple(ranges["rho_range"]),
        tuple(ranges["eint_range"]),
        tuple(ranges.get("resolution", (48, 48))),
    )
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table.save(out / "eos_table.json")
    si = max(1, table.rho_grid.size // 12)
    sj = max(1, table.eint_grid.size // 12)
    rho, eint = np.meshgrid(table.rho_grid[::si], table.eint_grid[::sj], indexing="ij")
    columns = (rho, eint, table.p_grid[::si, ::sj], *table.partials(rho, eint))
    rows = np.column_stack([c.ravel() for c in columns]).tolist()
    _write_csv(out / "eos_table_preview.csv", ["rho", "eint", "P", "dP_drho", "dP_deint"], rows)
    write_manifest(out, config)
    return out


def run_rate_scan(config: ExperimentConfig, out_dir=None) -> Path:
    """rate-scan: CSV of I(q', lam) over a (rho, e) grid at fixed lam.

    psi(lam) is evaluated once; each inversion starts from the previous
    point's maximizer, each row from the first maximizer of the previous
    row, as `eos.tabulate` does.  A point that fails writes NaN."""
    model = config.eos_model()
    scan = config.extra.get("rate_scan", {})
    lam = eos.MultiplierVector.from_physical(
        scan.get("beta", 1.0), scan.get("alpha", 0.0), scan.get("mu", 0.0)
    )
    q_center = eos.dual_q(model, lam)
    psi_lam = eos.pressure_psi(model, lam)
    spans = scan.get("span", 0.25)
    n_pts = int(scan.get("points", 9))
    rows = []
    guess = None
    for fr in np.linspace(1.0 - spans, 1.0 + spans, n_pts):
        row_guess, row_first = guess, None
        for fe in np.linspace(1.0 - spans, 1.0 + spans, n_pts):
            q = eos.ConservedVector(
                rho=fr * q_center.rho, mom=q_center.mom, e=fe * q_center.e
            )
            try:
                ev = ldp.rate_I(model, q, lam, row_guess, psi_lam)
            except (OutOfDomain, NoConvergence):
                val = float("nan")
            else:
                val = ev.rate
                row_guess = ev.maximizer
                if row_first is None:
                    row_first = ev.maximizer
            rows.append([float(q.rho), float(q.e), float(val)])
        if row_first is not None:
            guess = row_first
    out = Path(out_dir or config.out_dir)
    _write_csv(out / "rate_scan.csv", ["rho", "e", "I"], rows)
    write_manifest(out, config)
    return out
