"""Finite-volume solver for the 1D Euler system with the quantum closure.

Conservation form on the periodic unit torus,

    d/dT (rho, q1, q4) + d/dX (A0, A1, A4) = 0,
    A0 = q1,  A1 = P + q1^2/rho,  A4 = q1 (q4 + P) / rho,

with P = P(rho, e_int) supplied by the free-Fermi-gas closure (the
Chebyshev table when the config has a table section, direct Newton
evaluation without one).  First-order Rusanov (local Lax-Friedrichs) interface fluxes
with the wave-speed bound |u| + c taken from the closed-form characteristic speeds u, u +- c of this flux,
where c^2 = dP/drho + (e_int + P)/rho * dP/de_int comes from the partials
that the closure returns with P; two-stage Heun time update: the simplest
provably conservative pairing, adequate because all claims concern smooth
solutions.  Each stage calls the closure once per state, for P and both
partials, and `run` chooses dt from the speeds that the first stage then
reuses.

Initial data come from a named profile: `profile_fields` evaluates its
three fields, and `initial_q_field` takes them at the cell centres,
dualizing multiplier fields to densities.  The lattice side reads the
same fields at its sites, so both sides start from one evaluation.

The solver guards the one-phase region (finite densities, rho > 0 and
internal energy above the zero-temperature floor) once on every state it
makes, where the state's closure values are first needed or where `run`
records it, and halts rather than extrapolating the EOS.  Past the
smooth-solution horizon it reports a shock indicator and stops claiming
validity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import eos
from .errors import CflViolation, LeftOnePhaseRegion, NonFinite, VacuumCell

DEFAULT_CFL = 0.4


@dataclass(frozen=True)
class MacroGrid:
    """Periodic macroscopic grid: n_cells cells of width 1/n_cells."""

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError("need at least 8 cells")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class ConservedField:
    """Cellwise conserved densities (rho, mom, e) on a MacroGrid."""

    rho: np.ndarray
    mom: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        for name in ("rho", "mom", "e"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def n_cells(self) -> int:
        return self.rho.size

    @property
    def e_internal(self) -> np.ndarray:
        return self.e - 0.5 * self.mom**2 / self.rho

    def stack(self) -> np.ndarray:
        return np.stack([self.rho, self.mom, self.e])

    @classmethod
    def from_stack(cls, arr: np.ndarray) -> "ConservedField":
        return cls(rho=arr[0], mom=arr[1], e=arr[2])

    def totals(self) -> np.ndarray:
        return np.array([self.rho.sum(), self.mom.sum(), self.e.sum()])

    def boosted(self, s: float) -> "ConservedField":
        """Galilean value boost to a frame moving at -s."""
        return ConservedField(
            rho=self.rho,
            mom=self.mom + s * self.rho,
            e=self.e + s * self.mom + 0.5 * s * s * self.rho,
        )


@dataclass(frozen=True)
class EulerSolution:
    """Solver state: conserved field, time, CFL number, and the EOS handle.

    The one-phase guard, the closure values and the wave-speed bound on q
    are evaluated once, on first use, and shared by everything that needs
    them for this state."""

    grid: MacroGrid
    q: ConservedField
    time: float
    closure: "eos.PressureClosure"
    cfl: float = DEFAULT_CFL

    @cached_property
    def guarded_q(self) -> ConservedField:
        """q, once it has passed the one-phase guard (which raises otherwise)."""
        _check_one_phase(self.q, self.closure.model)
        return self.q

    @cached_property
    def closure_values(self) -> tuple:
        """(P, dP/drho, dP/de_int) on q by one closure call, behind the
        one-phase guard."""
        q = self.guarded_q
        return self.closure(q.rho, q.e_internal)

    @cached_property
    def wave_speeds(self) -> np.ndarray:
        """Cellwise wave-speed bound on q: sets dt in `run` and the Rusanov
        dissipation of the first Heun stage in `step`."""
        return wave_speed_bound(self.q, *self.closure_values)


@dataclass(frozen=True)
class EulerTrajectory:
    times: list
    snapshots: list
    shock_indicator: list

    def at(self, t: float) -> ConservedField:
        idx = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        if abs(self.times[idx] - t) > 1e-12:
            raise KeyError(f"no snapshot at T = {t}")
        return self.snapshots[idx]


def flux_A(q: ConservedField, pressure: np.ndarray) -> np.ndarray:
    """Algebraic flux (A0, A1, A4) given the cellwise pressure."""
    if np.any(q.rho <= 0.0):
        raise VacuumCell(f"nonpositive density in cell {int(np.argmin(q.rho))}")
    p = np.asarray(pressure, dtype=float)
    a0 = q.mom
    a1 = p + q.mom**2 / q.rho
    a4 = q.mom * (q.e + p) / q.rho
    return np.stack([a0, a1, a4])


def _check_one_phase(q: ConservedField, model: eos.EosModel):
    finite = np.isfinite(q.rho) & np.isfinite(q.mom) & np.isfinite(q.e)
    if not np.all(finite):
        raise NonFinite(f"non-finite conserved densities in cell {int(np.argmin(finite))}")
    if np.any(q.rho <= 0.0):
        raise LeftOnePhaseRegion(f"vacuum cell {int(np.argmin(q.rho))}")
    floor = eos.energy_floor(model, q.rho)
    gap = q.e_internal - floor
    if np.any(gap <= 0.0):
        raise LeftOnePhaseRegion(
            f"internal energy at the T=0 floor in cell {int(np.argmin(gap))}"
        )


def wave_speed_bound(
    q: ConservedField, pressure: np.ndarray, dp_drho: np.ndarray, dp_deint: np.ndarray
) -> np.ndarray:
    """Cellwise bound |u| + c on the characteristic speeds u and u +- c of
    the flux (A0, A1, A4), with the squared sound speed

        c^2 = dP/drho + (e_int + P) / rho * dP/de_int

    from the closure's values on q (on the table path its derivative
    series, so these are the speeds of the pressure that enters the flux).

    Uses |mom|, so the bound is bitwise even in the momentum sign and the
    scheme stays bitwise equivariant under mirror reflection."""
    eint = q.e_internal
    c2 = dp_drho + (eint + pressure) / q.rho * dp_deint
    bad = ~(np.isfinite(c2) & (c2 > 0.0))
    if np.any(bad):
        cell = int(np.argmax(bad))
        raise LeftOnePhaseRegion(
            f"squared sound speed {c2[cell]:.3e} is not finite and positive in cell {cell}"
        )
    return np.abs(q.mom) / q.rho + np.sqrt(c2)


def rhs(sol: EulerSolution) -> np.ndarray:
    """The scheme's semi-discrete right side dq/dT, shape (3, n_cells): the
    conservative Rusanov update term -(F_{i+1/2} - F_{i-1/2})/dx on sol.q."""
    flux = flux_A(sol.q, sol.closure_values[0])
    speeds = sol.wave_speeds
    s_iface = np.maximum(speeds, np.roll(speeds, -1))
    q_arr = sol.q.stack()
    dq = np.roll(q_arr, -1, axis=1) - q_arr
    f_iface = 0.5 * (flux + np.roll(flux, -1, axis=1)) - 0.5 * s_iface * dq
    return -(f_iface - np.roll(f_iface, 1, axis=1)) / sol.grid.dx


def step(sol: EulerSolution, dt: float) -> EulerSolution:
    """One Heun (two-stage) step; conserves cell totals to round-off.  The
    one-phase guard runs on each stage's state as its closure values are
    evaluated, and on the result at its first use (`guarded_q`)."""
    rhs1 = rhs(sol)
    dt_max = sol.cfl * sol.grid.dx / max(sol.wave_speeds.max(), 1e-300)
    if dt > dt_max * (1.0 + 1e-12):
        raise CflViolation(f"dt = {dt:.3e} exceeds CFL bound {dt_max:.3e}")
    star = replace(sol, q=ConservedField.from_stack(sol.q.stack() + dt * rhs1))
    rhs2 = rhs(star)
    q_new = ConservedField.from_stack(sol.q.stack() + 0.5 * dt * (rhs1 + rhs2))
    return replace(sol, q=q_new, time=sol.time + dt)


def shock_indicator(q: ConservedField) -> float:
    """Gradient blow-up heuristic: largest cell-to-cell relative density jump."""
    jumps = np.abs(np.diff(np.concatenate([q.rho, q.rho[:1]])))
    return float(jumps.max() / max(q.rho.max() - q.rho.min(), 1e-300))


def run(
    initial: ConservedField,
    t_final: float,
    grid: MacroGrid,
    closure: "eos.PressureClosure",
    cfl: float = DEFAULT_CFL,
    snapshot_times: list | None = None,
) -> EulerTrajectory:
    """Integrate to t_final, storing snapshots at the requested times
    (always including 0 and t_final), each behind the one-phase guard.

    The trajectory takes full CFL steps throughout: a snapshot time that a
    full step would pass is reached by a partial step branched off the
    current state, which is recorded, and the run goes on from the state
    before the branch.  So the state at any time does not depend on which
    other times were asked for."""
    if initial.n_cells != grid.n_cells:
        raise ValueError("initial data does not match the grid")
    wanted = sorted(set([0.0, t_final] + list(snapshot_times or [])))
    if wanted[0] < 0.0 or wanted[-1] > t_final + 1e-15:
        raise ValueError("snapshot times must lie in [0, t_final]")
    sol = EulerSolution(grid=grid, q=initial, time=0.0, closure=closure, cfl=cfl)
    times, snaps, shocks = [], [], []

    def record(s):
        times.append(s.time)
        snaps.append(s.guarded_q)
        shocks.append(shock_indicator(s.q))

    def full_step(s):
        return cfl * grid.dx / max(s.wave_speeds.max(), 1e-300)

    record(sol)
    for target in wanted[1:]:
        while sol.time + full_step(sol) < target - 1e-14:
            sol = step(sol, full_step(sol))
        record(replace(step(sol, min(full_step(sol), target - sol.time)), time=target))
    return EulerTrajectory(times=times, snapshots=snaps, shock_indicator=shocks)


def lambda_field_of(
    qfield: ConservedField, model: eos.EosModel, guess=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cellwise dual inversion by one `eos.invert` over all cells:
    multiplier fields (lam0, lam1, lam4) with dual_q(lam(X)) = q(X), the
    Newton started from `guess`, three fields as this returns them, or from
    the crossover guess; raises OutOfDomain naming the offending cell."""
    start = None if guess is None else np.stack(guess, axis=-1)
    lam = eos.invert(model, qfield.stack().T, guess=start)
    return tuple(np.ascontiguousarray(lam.T))


# ---------------------------------------------------------------------------
# named analytic initial profiles
# ---------------------------------------------------------------------------


# the three fields of each profile kind, in the order profile_fields returns them
PROFILE_FIELDS = {"lambda-cos": ("lam0", "lam1", "lam4"), "q-cos": ("rho", "mom", "e")}


def profile_names(kind: str, params: dict) -> tuple:
    """The field names of a profile kind, once every params key is one of
    them, <name>_amp or <name>_phase; raises ValueError naming an unknown
    kind or key."""
    if kind not in PROFILE_FIELDS:
        raise ValueError(f"unknown profile kind {kind!r}")
    names = PROFILE_FIELDS[kind]
    keys = {name + suffix for name in names for suffix in ("", "_amp", "_phase")}
    for key in params:
        if key not in keys:
            raise ValueError(f"unknown {kind} profile key {key!r}")
    return names


def profile_fields(kind: str, params: dict, X) -> np.ndarray:
    """A named analytic profile's three fields at torus positions X, shape
    X.shape + (3,): each is base + amp * cos(2 pi X + phase), with the keys
    <name>, <name>_amp and <name>_phase of params, a missing key reading as 0.

    "lambda-cos" gives the multipliers (lam0, lam1, lam4), whose densities
    follow by dualization; "q-cos" gives the densities (rho, mom, e)."""
    X = np.asarray(X, dtype=float)
    return np.stack([
        params.get(name, 0.0)
        + params.get(f"{name}_amp", 0.0)
        * np.cos(2.0 * np.pi * X + params.get(f"{name}_phase", 0.0))
        for name in profile_names(kind, params)
    ], axis=-1)


def initial_q_field(kind: str, params: dict, grid: MacroGrid, model: eos.EosModel) -> ConservedField:
    """A named profile as cellwise conserved data at the cell centres (a
    multiplier profile dualized by one `eos.moments` over all cells that
    evaluates the densities alone)."""
    fields = profile_fields(kind, params, grid.centers)
    if kind == "lambda-cos":
        fields = eos.moments(model, fields, psi=False, hess=False)[1] * [1.0, 1.0, -1.0]
    return ConservedField.from_stack(np.ascontiguousarray(fields.T))
