"""Finite-volume solver for the 1D Euler system with the quantum closure.

Conservation form on the periodic unit torus,

    d/dT (rho, q1, q4) + d/dX (A0, A1, A4) = 0,
    A0 = q1,  A1 = P + q1^2/rho,  A4 = q1 (q4 + P) / rho,

with P = P(rho, e_int) supplied by the free-Fermi-gas closure (the
Chebyshev table when the config has a table section, direct Newton
evaluation without one).  First-order Rusanov (local Lax-Friedrichs) interface fluxes
with the wave-speed bound |u| + c taken from the closed-form characteristic speeds u, u +- c of this flux,
where c^2 = dP/drho + (e_int + P)/rho * dP/de_int comes from the closure's
own partials; two-stage Heun time update: the simplest provably conservative
pairing, adequate because all claims concern smooth solutions.  Each stage
evaluates the closure once per state, and `run` chooses dt from the speeds
that the first stage then reuses.

The solver guards the one-phase region every stage (finite densities,
rho > 0 and internal energy above the zero-temperature floor) and halts
rather than extrapolating the EOS.  Past the smooth-solution horizon it
reports a shock indicator and stops claiming validity.
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

    The closure pressure and the wave-speed bound on q are evaluated once,
    on first use, and shared by everything that needs them for this state."""

    grid: MacroGrid
    q: ConservedField
    time: float
    closure: "eos.PressureClosure"
    cfl: float = DEFAULT_CFL

    @cached_property
    def pressure(self) -> np.ndarray:
        """Closure pressure on q, behind the one-phase guard."""
        _check_one_phase(self.q, self.closure.model)
        return self.closure(self.q.rho, self.q.e_internal)

    @cached_property
    def wave_speeds(self) -> np.ndarray:
        """Cellwise wave-speed bound on q: sets dt in `run` and the Rusanov
        dissipation of the first Heun stage in `step`."""
        return wave_speed_bound(self.q, self.closure, self.pressure)


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
    q: ConservedField, closure: "eos.PressureClosure", pressure: np.ndarray | None = None
) -> np.ndarray:
    """Cellwise bound |u| + c on the characteristic speeds u and u +- c of
    the flux (A0, A1, A4), with the closure's squared sound speed

        c^2 = dP/drho + (e_int + P) / rho * dP/de_int

    from `closure.partials` (the table's derivative series on the table
    path, so these are the speeds of the pressure that enters the flux).  `pressure`
    is the closure's P on q when the caller has it already.

    Uses |mom|, so the bound is bitwise even in the momentum sign and the
    scheme stays bitwise equivariant under mirror reflection."""
    eint = q.e_internal
    if pressure is None:
        pressure = closure(q.rho, eint)
    dp_drho, dp_deint = closure.partials(q.rho, eint)
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
    flux = flux_A(sol.q, sol.pressure)
    speeds = sol.wave_speeds
    s_iface = np.maximum(speeds, np.roll(speeds, -1))
    q_arr = sol.q.stack()
    dq = np.roll(q_arr, -1, axis=1) - q_arr
    f_iface = 0.5 * (flux + np.roll(flux, -1, axis=1)) - 0.5 * s_iface * dq
    return -(f_iface - np.roll(f_iface, 1, axis=1)) / sol.grid.dx


def step(sol: EulerSolution, dt: float) -> EulerSolution:
    """One Heun (two-stage) step; conserves cell totals to round-off and
    checks the one-phase guard on each stage's state and on the result."""
    rhs1 = rhs(sol)
    dt_max = sol.cfl * sol.grid.dx / max(sol.wave_speeds.max(), 1e-300)
    if dt > dt_max * (1.0 + 1e-12):
        raise CflViolation(f"dt = {dt:.3e} exceeds CFL bound {dt_max:.3e}")
    star = replace(sol, q=ConservedField.from_stack(sol.q.stack() + dt * rhs1))
    rhs2 = rhs(star)
    q_new = ConservedField.from_stack(sol.q.stack() + 0.5 * dt * (rhs1 + rhs2))
    _check_one_phase(q_new, sol.closure.model)
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
    (always including 0 and t_final).

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
        snaps.append(s.q)
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
    qfield: ConservedField, model: eos.EosModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cellwise dual inversion by one `eos.invert` over all cells:
    multiplier fields (lam0, lam1, lam4) with dual_q(lam(X)) = q(X); raises
    OutOfDomain naming the offending cell."""
    lam = eos.invert(model, qfield.stack().T)
    return tuple(np.ascontiguousarray(lam.T))


# ---------------------------------------------------------------------------
# named analytic initial profiles
# ---------------------------------------------------------------------------


def profile_callables(kind: str, params: dict):
    """Named analytic profiles for initial data.

    "lambda-cos": multiplier fields lam_mu(X) = base + amp*cos(2 pi X + phase)
    (keys lam0/lam1/lam4 + *_amp, *_phase); the corresponding q(X) follows by
    dualization.  "q-cos": direct (rho, mom, e) cosines (keys rho/mom/e + ...).
    Returns a dict of callables X -> value.
    """

    def cos_profile(base, amp, phase):
        return lambda X: base + amp * np.cos(2.0 * np.pi * np.asarray(X, dtype=float) + phase)

    if kind == "lambda-cos":
        return {
            name: cos_profile(
                params.get(name, 0.0),
                params.get(f"{name}_amp", 0.0),
                params.get(f"{name}_phase", 0.0),
            )
            for name in ("lam0", "lam1", "lam4")
        }
    if kind == "q-cos":
        return {
            name: cos_profile(
                params.get(name, 0.0),
                params.get(f"{name}_amp", 0.0),
                params.get(f"{name}_phase", 0.0),
            )
            for name in ("rho", "mom", "e")
        }
    raise ValueError(f"unknown profile kind {kind!r}")


def initial_q_field(kind: str, params: dict, grid: MacroGrid, model: eos.EosModel) -> ConservedField:
    """Evaluate a named profile as cellwise conserved data (dualizing
    multiplier profiles by one `eos.moments` over all cells)."""
    calls = profile_callables(kind, params)
    x = grid.centers
    if kind == "q-cos":
        return ConservedField(rho=calls["rho"](x), mom=calls["mom"](x), e=calls["e"](x))
    lam = np.stack([calls["lam0"](x), calls["lam1"](x), calls["lam4"](x)], axis=-1)
    signed = eos.moments(model, lam)[1]
    return ConservedField(rho=signed[:, 0], mom=signed[:, 1], e=-signed[:, 2])
