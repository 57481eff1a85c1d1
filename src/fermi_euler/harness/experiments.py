"""The commuting-diagram experiments and the file-emitting run kinds.

Every experiment starts from the config's profile, evaluated by
`euler.profile_fields`: its multipliers at the lattice sites give the local
Gibbs state (`lam_sites_from_profile`), and its densities at the cell
centres start the Euler run, which hydro-compare, entropy-track and
euler-run set up alike (`_euler_trajectory`).

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
is exact: the fields of the generator -i (eps_k - eps_q) Chat.  Its Euler
reference interpolates to the sites the profile's Brillouin-zone fields at
M equispaced X nodes, the same for every L (`slope_node_fields`).

entropy-track follows s(gamma_t | omega^eps_t)/L with omega the local Gibbs
state of the Euler trajectory's multiplier field at each snapshot T > 0
(built once, for S in closed form and for the production), and omega0
itself at T = 0, and its production rate d/dt S from the conservation laws
(the multipliers paired with the exact density rates, their rate with the
gap to the reference's densities): the multipliers' rate comes from the
Euler scheme's own right side through Hess psi, and a centred difference
of S in time, across two Euler steps of h from the snapshot at T - h,
cross-checks it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import eos, euler, ldp, micro
from ..micro import GaussianState, Lattice, MultiplierField
from .config import ExperimentConfig, eos_table, write_manifest

TEST_FUNCTIONS = {
    "one": lambda X: np.ones_like(X),
    "cos": lambda X: np.cos(2.0 * np.pi * X),
    "sin": lambda X: np.sin(2.0 * np.pi * X),
}
COMPONENTS = ("n", "p", "h")

# The slope's Brillouin-zone fields are smooth in X.  They are evaluated at
# M equispaced nodes, M doubling from SLOPE_NODES until no field has a mode
# above M/4 larger than SLOPE_TAIL times the largest mode of all the fields.
SLOPE_NODES = 16
SLOPE_TAIL = 1e-15


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def bz_dual_fields(model: eos.EosModel, lam0, lam1, lam4):
    """Brillouin-zone dual map (rho, mom, e) over per-site multiplier arrays,
    by one `eos.moments` over all sites that evaluates the densities alone."""
    lam = np.stack([lam0, lam1, lam4], axis=-1)
    signed = eos.moments(model, lam, psi=False, hess=False)[1]
    return signed[:, 0], signed[:, 1], -signed[:, 2]


def bz_pressure_field(model: eos.EosModel, lam0, lam1, lam4):
    """Brillouin-zone pressure P = psi / lam4 over per-site multiplier
    arrays, by one `eos.moments` over all sites that evaluates psi alone."""
    lam = np.stack([lam0, lam1, lam4], axis=-1)
    return eos.moments(model, lam, grad=False, hess=False)[0] / lam4


def trig_interp(values: np.ndarray, L: int, x_offset: float) -> np.ndarray:
    """Trigonometric interpolant of n periodic samples at j/n + x_offset,
    evaluated at the L lattice sites x/L of the unit torus.

    The interpolant is sum_m vhat_m e^{2 pi i m (x - x_offset)}/n over
    |m| <= n/2, the even-n Nyquist term split evenly between m = +-n/2, so at
    the sites it is an inverse FFT of length L of the offset-shifted
    spectrum, each mode added at m mod L."""
    values = np.asarray(values, dtype=float)
    n = values.size
    m = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    coef = np.fft.fft(values) * np.exp(-2j * np.pi * m * x_offset)
    padded = np.zeros(L, dtype=complex)
    if n % 2 == 0:
        # the Nyquist mode sits at m = -n/2; its other half goes to m = +n/2
        coef[n // 2] *= 0.5
        padded[(n // 2) % L] += coef[n // 2] * np.exp(-2j * np.pi * n * x_offset)
    np.add.at(padded, m % L, coef)
    return np.fft.ifft(padded).real * (L / n)


def slope_node_fields(model: eos.EosModel, profile: dict, max_nodes: int):
    """(M, fields): the Brillouin-zone fields (rho, mom, e, P), rows of
    `fields` (4, M), of a profile's multipliers at the M nodes j/M of the
    unit torus, M as SLOPE_NODES and SLOPE_TAIL set it, but at most the
    first doubling to reach max_nodes.  Each doubling evaluates only its
    new nodes (2k + 1)/(2M), between the M nodes it keeps."""

    def at(X):
        lam = lam_sites_from_profile(profile, X, model)
        return np.stack((*bz_dual_fields(model, *lam), bz_pressure_field(model, *lam)))

    m = SLOPE_NODES
    fields = at(np.arange(m) / m)
    while True:
        modes = np.abs(np.fft.rfft(fields, axis=1))
        if m >= max_nodes or modes[:, m // 4 + 1:].max() <= SLOPE_TAIL * modes.max():
            return m, fields
        odd = at((2 * np.arange(m) + 1) / (2 * m))
        fields = np.stack((fields, odd), axis=-1).reshape(len(fields), 2 * m)
        m *= 2


def macro_spectral_derivative(field: np.ndarray) -> np.ndarray:
    """d/dX of a per-site field sampled at X = x/L on the unit torus."""
    n = field.size
    m = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        m[n // 2] = 0.0
    return np.fft.ifft(2j * np.pi * m * np.fft.fft(field)).real


def lam_sites_from_profile(profile: dict, X: np.ndarray, model: eos.EosModel):
    """Multiplier fields (lam0, lam1, lam4) of a named profile at torus
    positions X, from `euler.profile_fields` (a `q-cos` profile's densities
    inverted by one `eos.invert` over all sites)."""
    fields = euler.profile_fields(profile["kind"], profile["params"], X)
    if profile["kind"] == "q-cos":
        fields = eos.invert(model, fields)
    return tuple(np.ascontiguousarray(fields.T))


def _euler_trajectory(config: ExperimentConfig, stops: list):
    """(model, closure, grid, trajectory): the config's EOS model, pressure
    closure and grid, and the Euler run of its profile's initial cells to
    the last report time, stopping at each time in stops."""
    model = config.eos_model()
    closure = config.closure()
    grid = euler.MacroGrid(config.n_cells)
    q0 = euler.initial_q_field(config.profile["kind"], config.profile["params"], grid, model)
    traj = euler.run(q0, config.report_times[-1], grid, closure, cfl=config.cfl,
                     snapshot_times=stops)
    return model, closure, grid, traj


def _initial_gibbs(config: ExperimentConfig, L: int, model: eos.EosModel):
    """The lattice of L sites, the config profile's multipliers (lam0, lam1,
    lam4) at its sites, and the local Gibbs state omega0 of their field."""
    lat = Lattice(L)
    lam = lam_sites_from_profile(config.profile, lat.sites * lat.epsilon, model)
    return lat, lam, micro.gibbs_gaussian(lat, MultiplierField(lat, *lam))


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
    times = config.report_times
    model, _, grid, traj = _euler_trajectory(config, times)

    error_rows, slope_rows = [], []
    out = Path(out_dir or config.out_dir)
    try:
        slope_nodes, node_fields = slope_node_fields(model, config.profile, max(config.l_list))
        for L in config.l_list:
            lat, _, omega0 = _initial_gibbs(config, L, model)
            ell = L // config.ell_ratio
            X = lat.sites * lat.epsilon

            for t_macro in times:
                state = evolve_to(omega0, t_macro, lat)
                dens = micro.coarse_grain(micro.densities(state), ell, lat)
                ref = {}
                q_t = traj.at(t_macro)
                for comp, cells in (("n", q_t.rho), ("p", q_t.mom), ("h", q_t.e)):
                    site_vals = trig_interp(cells, L, x_offset=0.5 * grid.dx)
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
            # against the Euler right side of the profile's fields at the sites
            slope = micro.densities_rate(omega0).stack() / lat.epsilon
            rho_r, mom_r, e_r, p_r = (trig_interp(f, L, x_offset=0.0) for f in node_fields)
            a_fields = euler.flux_A(euler.ConservedField(rho_r, mom_r, e_r), p_r)
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
    write_manifest(out, config, extras={"rows": len(error_rows), "errors_decreasing_in_L": flags,
                                        "slope_nodes": slope_nodes})
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


# macroscopic step of the centred difference that cross-checks the production
FD_STEP = 2e-4


def multiplier_rate(sol: euler.EulerSolution, lam: np.ndarray) -> np.ndarray:
    """dlam/dT per cell (n_cells, 3) of the Euler state sol, whose cell
    multipliers are lam (n_cells, 3).  The signed densities (rho, mom, -e)
    are grad psi(lam), so dlam/dT = (Hess psi)^-1 d(rho, mom, -e)/dT, with
    dq/dT the scheme's own right side and Hess psi from one `eos.moments`
    that evaluates the Hessian alone."""
    dy = euler.rhs(sol).T * np.array([1.0, 1.0, -1.0])
    hess = eos.moments(sol.closure.model, lam, psi=False, grad=False)[2]
    return np.linalg.solve(hess, dy[..., None])[..., 0]


def run_entropy_track(config: ExperimentConfig, out_dir=None) -> EntropyReport:
    times = config.report_times

    # one forward run that stops at each time T and at T - h, the centred
    # difference's near end, h = FD_STEP shrunk to T itself for T < FD_STEP;
    # its far end T + h is two steps of h from the T - h stop
    steps = {t: min(FD_STEP, t) for t in times if t > 0.0}
    stops = sorted(set(times) | {t - h for t, h in steps.items()})
    model, closure, grid, traj = _euler_trajectory(config, stops)

    def solution(t: float) -> euler.EulerSolution:
        return euler.EulerSolution(grid, traj.at(t), t, closure, config.cfl)

    def multipliers(q: euler.ConservedField, guess) -> np.ndarray:
        start = None if guess is None else guess.T
        return np.stack(euler.lambda_field_of(q, model, start), axis=-1)

    def far_end(t: float, h: float) -> euler.ConservedField:
        """The state at t + h: two steps of h from the stop at t - h, each cut
        into equal steps of at most half the CFL step (one on a coarse grid),
        so that the speeds' change across them cannot break the bound."""
        sol = solution(t - h)
        for _ in range(2):
            parts = int(np.ceil(2.0 * h * max(sol.wave_speeds.max(), 1e-300)
                                / (config.cfl * grid.dx)))
            for _ in range(parts):
                sol = euler.step(sol, h / parts)
        return sol.guarded_q

    # each snapshot's cell multipliers, inverted once for every L, their rate
    # at the report times, and those at both ends of each difference.  Each
    # Newton starts from multipliers at hand: the first from a multiplier
    # profile's own (at T = 0 the cells are their exact duals), each later
    # one from the previous report time's, both ends of a difference from
    # their own T's
    profile = config.profile
    guess = None
    if profile["kind"] == "lambda-cos":
        guess = euler.profile_fields(profile["kind"], profile["params"], grid.centers)
    cells = {}
    for t in times:
        cells[t] = guess = multipliers(traj.at(t), guess)
    rates = {t: multiplier_rate(solution(t), cells[t]) for t in times}
    ends = {
        t: (multipliers(traj.at(t - h), cells[t]), multipliers(far_end(t, h), cells[t]))
        for t, h in steps.items()
    }

    rows = []
    out = Path(out_dir or config.out_dir)
    off = 0.5 * grid.dx
    for L in config.l_list:
        lat, lam, omega0 = _initial_gibbs(config, L, model)

        def sites(cell_values: np.ndarray) -> list:
            return [trig_interp(v, L, off) for v in cell_values.T]

        def entropy_at(t_macro: float, cell_lam: np.ndarray) -> float:
            if t_macro == 0.0:
                return 0.0  # gamma_0 = omega_0 by construction
            gamma = micro.evolve(omega0, t_macro / lat.epsilon)
            return micro.rel_entropy_gaussian(gamma, MultiplierField(lat, *sites(cell_lam)))[0]

        for t_macro in times:
            t_micro = t_macro / lat.epsilon
            # micro time t = T/epsilon, so dlam/dt = epsilon dlam/dT
            lam_rate = [lat.epsilon * r for r in sites(rates[t_macro])]
            if t_macro == 0.0:
                # the reference at T = 0 is gamma_0 = omega0 itself, the local
                # Gibbs state of the profile's field
                gamma = omega0
                s_tot, s_site = micro.rel_entropy_gaussian(gamma, omega0)
                production = micro.entropy_production(gamma, MultiplierField(lat, *lam),
                                                      lam_rate, reference=omega0)
                production_fd = float("nan")
            else:
                # the reference at T > 0 is the local Gibbs state of the Euler
                # multipliers at T, built once for S (log Z from its entropy
                # and densities) and for the production
                gamma = micro.evolve(omega0, t_micro)
                field = MultiplierField(lat, *sites(cells[t_macro]))
                omega = micro.gibbs_gaussian(lat, field)
                s_tot, s_site = micro.rel_entropy_gaussian(gamma, field, reference=omega)
                production = micro.entropy_production(gamma, field, lam_rate, reference=omega)
                del omega  # dense for these fields: not held through the next decompositions
                h = steps[t_macro]
                near, far = ends[t_macro]
                s_up = entropy_at(t_macro + h, far)
                s_dn = entropy_at(t_macro - h, near)
                production_fd = (s_up - s_dn) / (2.0 * h) * lat.epsilon
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
    times = config.report_times
    _, closure, grid, traj = _euler_trajectory(config, times)
    out = Path(out_dir or config.out_dir)
    for t, q in zip(traj.times, traj.snapshots):
        if t not in times:
            continue
        p = closure(q.rho, q.e_internal)[0]
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
        lat, _, omega0 = _initial_gibbs(config, L, model)
        for t_macro in config.report_times:
            state = evolve_to(omega0, t_macro, lat)
            micro.fields_to_csv(out / f"micro_L{L}_T{t_macro:.6f}.csv", lat,
                                micro.densities(state), micro.currents(state))
            if config.extra.get("save_states", False):
                micro.save_state(
                    state, out / f"state_L{L}_T{t_macro:.6f}.bin", t=t_macro / lat.epsilon
                )
    write_manifest(out, config)
    return out


def run_eos_table(config: ExperimentConfig, out_dir=None) -> Path:
    """eos-table: the closure table of the config's table section (or of
    [0.15, 0.21] x [0.035, 0.065]), previewed as P and its partials on a
    uniform 12 x 12 grid."""
    ranges = config.table or {"rho_range": [0.15, 0.21], "eint_range": [0.035, 0.065]}
    table = eos_table(config.eos_model(), ranges)
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rho, eint = np.meshgrid(np.linspace(*table.rho_range, 12),
                            np.linspace(*table.eint_range, 12), indexing="ij")
    columns = (rho, eint, *table.evaluate(rho, eint))
    rows = np.column_stack([c.ravel() for c in columns]).tolist()
    _write_csv(out / "eos_table_preview.csv", ["rho", "eint", "P", "dP_drho", "dP_deint"], rows)
    write_manifest(out, config)
    return out


def run_rate_scan(config: ExperimentConfig, out_dir=None) -> Path:
    """rate-scan: CSV of I(q', lam) over a (rho, e) grid at fixed lam, all
    points by one `ldp.rates` call.  A point where `ldp.rate_I` would raise
    writes NaN."""
    model = config.eos_model()
    scan = config.extra.get("rate_scan", {})
    lam = eos.MultiplierVector.from_physical(
        scan.get("beta", 1.0), scan.get("alpha", 0.0), scan.get("mu", 0.0)
    )
    q_center = eos.dual_q(model, lam)
    spans = scan.get("span", 0.25)
    fractions = np.linspace(1.0 - spans, 1.0 + spans, int(scan.get("points", 9)))
    n_pts = fractions.size
    q = np.empty((n_pts, n_pts, model.d + 2))
    q[..., 0] = fractions[:, None] * q_center.rho
    q[..., 1:-1] = q_center.mom
    q[..., -1] = fractions[None, :] * q_center.e
    rates = ldp.rates(model, q, lam)
    rows = np.column_stack([q[..., 0].ravel(), q[..., -1].ravel(), rates.ravel()]).tolist()
    out = Path(out_dir or config.out_dir)
    _write_csv(out / "rate_scan.csv", ["rho", "e", "I"], rows)
    write_manifest(out, config)
    return out
