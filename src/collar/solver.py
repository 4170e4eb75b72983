"""Implicit solver for the collar-approximated degenerate diffusion problems.

Each approximation solves ``rho du/dt = Lap[G(u)]`` on the core of the
domain at one collar level, with the lifted boundary trace imposed strongly
at the interface nodes and the initial state blended between the interior
data and the boundary trace across the collar.  Time stepping is implicit
Euler with a damped Newton iteration on the tridiagonal system; the Jacobian
floors the flux derivative so the linear solve stays regular where the flux
degenerates, while the residual (and therefore the converged answer) is the
unregularized scheme.

For a linear flux the Jacobian depends only on the step size and the floor,
so each problem factors it once per ``(dt, floor)`` and reuses the LU factors
(LAPACK ``gttrs``); every other flux assembles its Jacobian bands each
iteration and solves them with ``gtsv``.  Both paths pivot alike, so a linear
flux gives bit-identical trajectories either way.  A non-finite residual or
Newton update raises instead of freezing the state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, SolveError, StepError
from .geometry import Grid, collar_decomposition
from .models import BoundaryData, DensityModel, InitialData, Nonlinearity, global_bound
from .operators import (
    DiffusionOperator,
    assemble_diffusion,
    factor_tridiagonal,
    solve_factored,
    solve_tridiagonal,
)


def collar_cutoff(distance, eps: float, blend_width: float):
    """Smoothstep cutoff: 0 where d <= eps, 1 where d >= eps + blend width."""
    d = np.asarray(distance, dtype=float)
    if eps <= 0.0:
        return np.ones_like(d)
    s = np.clip((d - eps) / blend_width, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def blend_initial_data(
    initial: InitialData,
    phi: BoundaryData,
    eps: float,
    grid: Grid,
) -> np.ndarray:
    """Initial nodal state: interior data in the core, boundary trace at the collar.

    The boundary trace is extended inward by its value at the nearest
    boundary point; the cutoff rises smoothly across a blend width of ``eps``
    so the state is untouched on the doubled core.
    """
    x = grid.nodes
    if eps <= 0.0:
        return np.asarray(initial.u0(x), dtype=float)
    zeta = collar_cutoff(grid.distances, eps, eps)
    trace = phi.phi(grid.domain.nearest_boundary_point(x), 0.0)
    return zeta * np.asarray(initial.u0(x), dtype=float) + (1.0 - zeta) * np.asarray(trace)


@dataclass(frozen=True)
class SolverScheme:
    """Numerical knobs of the implicit stepper."""

    stepping: str = "implicit-newton"  # or "semi-implicit-lagged"
    newton_tol: float = 1e-10
    max_iterations: int = 30
    jacobian_floor: float = 1e-8

    def __post_init__(self):
        if self.stepping not in ("implicit-newton", "semi-implicit-lagged"):
            raise ConfigError(f"unknown stepping kind {self.stepping!r}")
        if self.jacobian_floor < 0.0:
            raise ConfigError("jacobian floor must be nonnegative")


@dataclass(frozen=True)
class _Layout:
    """Index window of one collar-level solve on the shared grid."""

    m0: int
    m1: int
    dir_local: np.ndarray
    free_local: np.ndarray
    dir_points: np.ndarray

    @property
    def size(self) -> int:
        return self.m1 - self.m0 + 1


@dataclass
class ApproxProblem:
    """One lifted collar-level problem ready to advance in time."""

    grid: Grid
    rho: DensityModel
    flux: Nonlinearity
    phi: BoundaryData
    initial: InitialData
    eps: float
    eta: float
    eta_cap: float
    horizon: float
    dt: float

    def __post_init__(self):
        if not (0.0 <= self.eta <= self.eta_cap + 1e-15):
            raise ConfigError(f"lift {self.eta} must lie in [0, {self.eta_cap}]")
        if self.dt <= 0.0 or self.horizon <= 0.0:
            raise ConfigError("time step and horizon must be positive")
        if self.phi.horizon < self.horizon * (1.0 - 1e-12):
            raise ConfigError("boundary data horizon shorter than the solve horizon")
        self._layout = self._build_layout()
        self._op = assemble_diffusion(self.grid)
        self._window_op = self._op.window(self._layout.m0, self._layout.m1)
        # Density values at strongly imposed rows never enter the scheme, and a
        # power-law density is infinite at the boundary nodes: leave them at 1.
        free = self._layout.free_local
        self._rho_w = np.ones(self._layout.size)
        self._rho_w[free] = self.rho.rho(self.grid.nodes[self._layout.m0 + free])
        self._linear_lu = {}  # (dt, floor) -> LU factors of a linear flux's Newton matrix
        self._static_bc = None
        if not self.phi.time_dependent:
            self._static_bc = self.dirichlet_values(0.0)

    def _build_layout(self) -> _Layout:
        grid = self.grid
        if self.eps <= 0.0:
            comp = np.arange(grid.n)
            dir_global = np.nonzero(grid.steps_from_boundary == 0)[0]
        else:
            cls = collar_decomposition(grid, self.eps)
            comp = cls.computational
            dir_global = cls.interface
        m0, m1 = int(comp.min()), int(comp.max())
        if comp.size != m1 - m0 + 1:
            raise ConfigError("computational window is not contiguous")
        dir_local = dir_global - m0
        free_local = np.setdiff1d(np.arange(m1 - m0 + 1), dir_local)
        if free_local.size < 3:
            raise ConfigError("fewer than 3 interior unknowns at this collar level")
        points = grid.domain.nearest_boundary_point(grid.nodes[dir_global])
        return _Layout(m0, m1, dir_local, free_local, np.atleast_1d(points))

    @property
    def layout(self) -> _Layout:
        return self._layout

    @property
    def operator(self) -> DiffusionOperator:
        return self._op

    @property
    def bound_K(self) -> float:
        return global_bound(
            self.initial.sup_norm(self.grid), self.phi.sup_norm(self.grid.domain), self.eta_cap
        )

    def linear_jacobian_factors(self, dt: float, floor: float) -> tuple:
        """LU factors of a linear flux's Newton matrix, factored once per ``(dt, floor)``.

        Rounding gives the steps of one lattice a few distinct ``dt`` values
        (8 to 17 for 400 to 30000 steps); the cache is emptied when it holds
        32, so step halving cannot grow it without bound.
        """
        key = (dt, floor)
        lu = self._linear_lu.get(key)
        if lu is None:
            if len(self._linear_lu) >= 32:
                self._linear_lu.clear()
            gp = np.full(self._rho_w.size, max(float(self.flux.dg(0.0)), floor))
            bands = _newton_bands(self._window_op, dt / self._rho_w, gp, self._layout.dir_local)
            lu = self._linear_lu[key] = factor_tridiagonal(*bands)
        return lu

    def dirichlet_values(self, t: float) -> np.ndarray:
        """Lifted trace at the interface nodes; evaluated once when it does not vary in time."""
        if self._static_bc is not None:
            return self._static_bc
        return np.asarray(self.phi.phi(self._layout.dir_points, t), dtype=float) + self.eta

    def initial_window(self) -> np.ndarray:
        full = blend_initial_data(self.initial, self.phi, self.eps, self.grid)
        return full[self._layout.m0 : self._layout.m1 + 1] + self.eta


@dataclass
class SpaceTimeField:
    """Gridded trajectory of one solve, NaN outside its computational window."""

    grid: Grid
    eps: float
    eta: float
    times: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_times(self) -> int:
        return self.times.size

    def times_match(self, other: "SpaceTimeField", tol: float = 1e-10) -> bool:
        return self.times.size == other.times.size and bool(
            np.all(np.abs(self.times - other.times) <= tol * max(1.0, float(self.times[-1])))
        )

    def same_grid(self, other: "SpaceTimeField") -> bool:
        return self.grid.n == other.grid.n and bool(
            np.allclose(self.grid.nodes, other.grid.nodes, rtol=0.0, atol=1e-14)
        )

    def to_csv(self, path) -> None:
        header = "t," + ",".join(f"x_{i}" for i in range(self.grid.n))
        table = np.column_stack([self.times, self.values.T])
        np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")


def _newton_bands(op: DiffusionOperator, scale, gp, dir_local):
    """Bands of ``I - diag(scale) L diag(gp)`` with identity rows at imposed nodes."""
    j_lo = np.zeros_like(gp)
    j_up = np.zeros_like(gp)
    j_lo[1:] = -scale[1:] * op.lo[1:] * gp[:-1]
    j_up[:-1] = -scale[:-1] * op.up[:-1] * gp[1:]
    j_di = 1.0 - scale * op.di * gp
    j_lo[dir_local] = 0.0
    j_up[dir_local] = 0.0
    j_di[dir_local] = 1.0
    return j_lo, j_di, j_up


def step_implicit(
    state: np.ndarray,
    problem: ApproxProblem,
    scheme: SolverScheme,
    *,
    t_new: float,
    dt: float,
) -> tuple[np.ndarray, int, float]:
    """One implicit Euler step on the window; returns (state, iterations, residual).

    The residual is scaled per row by ``dt / rho`` so its size reads as a
    state-space error regardless of how singular the density is.  Raises
    StepError when Newton fails, its update or residual is not finite, or a
    linear solve breaks down; callers shorten the step and retry.
    """
    dir_local = problem.layout.dir_local
    op = problem._window_op
    flux = problem.flux
    bc = problem.dirichlet_values(t_new)

    u_old = state
    u = state.copy()
    u[dir_local] = bc
    scale = dt / problem._rho_w

    def residual(v) -> np.ndarray:
        res = (v - u_old) - scale * op.apply(np.asarray(flux.g(v)))
        res[dir_local] = v[dir_local] - bc
        return res

    res = residual(u)
    res_norm = float(np.abs(res).max())
    iters = 0
    lagged = scheme.stepping == "semi-implicit-lagged"
    max_iter = 1 if lagged else scheme.max_iterations
    while res_norm > scheme.newton_tol and iters < max_iter:
        if flux.kind == "linear":
            lu = problem.linear_jacobian_factors(dt, scheme.jacobian_floor)
            delta = solve_factored(lu, -res)
        else:
            base = u_old if lagged else u
            gp = np.maximum(np.asarray(flux.dg(base), dtype=float), scheme.jacobian_floor)
            delta = solve_tridiagonal(*_newton_bands(op, scale, gp, dir_local), -res)
        if not np.isfinite(delta).all():
            raise StepError(f"Newton update is not finite at iteration {iters}", residual=res_norm)
        step_frac = 1.0
        for _ in range(9):
            trial = u + step_frac * delta
            trial_res = residual(trial)
            trial_norm = float(np.abs(trial_res).max())
            if trial_norm < res_norm * (1.0 - 1e-4) or trial_norm <= scheme.newton_tol:
                u, res, res_norm = trial, trial_res, trial_norm
                break
            step_frac *= 0.5
        else:
            u = u + 0.1 * delta
            res = residual(u)
            res_norm = float(np.abs(res).max())
        iters += 1

    if not math.isfinite(res_norm):
        raise StepError(
            f"scaled residual is not finite after {iters} iterations", residual=res_norm
        )
    if not lagged and res_norm > scheme.newton_tol:
        raise StepError(
            f"Newton stalled at scaled residual {res_norm:.3e} after {iters} iterations",
            residual=res_norm,
        )
    return u, iters, res_norm


def solve_eps_eta(
    problem: ApproxProblem,
    scheme: SolverScheme | None = None,
    *,
    store_stride: int = 1,
) -> SpaceTimeField:
    """Advance one lifted collar problem over [0, horizon].

    Stored time stamps sit on the uniform lattice ``k * dt`` regardless of
    internal sub-stepping: a failed step is retried on a halved lattice (up
    to 10 halvings) and the working depth relaxes after 20 clean steps.
    """
    scheme = scheme or SolverScheme()
    lay = problem.layout
    n_outer = int(round(problem.horizon / problem.dt))
    if n_outer < 1 or abs(n_outer * problem.dt - problem.horizon) > 1e-8 * problem.horizon:
        n_outer = max(1, int(np.ceil(problem.horizon / problem.dt - 1e-12)))

    u = problem.initial_window()
    if not np.isfinite(u).all():
        bad = problem.grid.nodes[lay.m0 + np.flatnonzero(~np.isfinite(u))]
        raise SolveError(f"initial state is not finite at x = {bad[:5].tolist()}")
    stored_t = [0.0]
    stored_u = [u.copy()]
    depth = 0
    clean = 0
    total_iters = 0
    worst_res = 0.0
    halvings = 0

    t = 0.0
    for k in range(n_outer):
        t_next = problem.horizon if k == n_outer - 1 else (k + 1) * problem.dt
        while True:
            try:
                v = u
                nsub = 2**depth
                for j in range(nsub):
                    a = t + (t_next - t) * j / nsub
                    b = t + (t_next - t) * (j + 1) / nsub
                    v, it, res = step_implicit(v, problem, scheme, t_new=b, dt=b - a)
                    total_iters += it
                    worst_res = max(worst_res, res)
                break
            except StepError:
                depth += 1
                clean = 0
                halvings += 1
                if depth > 10:
                    raise SolveError(
                        f"time step exhausted after {halvings} halvings at t = {t:.6g}"
                    )
        u = v
        t = t_next
        clean += 1
        if depth > 0 and clean >= 20:
            depth -= 1
            clean = 0
        if (k + 1) % store_stride == 0 or k == n_outer - 1:
            stored_t.append(t)
            stored_u.append(u.copy())

    n = problem.grid.n
    times = np.array(stored_t)
    values = np.full((n, times.size), np.nan)
    mask = np.zeros(n, dtype=bool)
    mask[lay.m0 : lay.m1 + 1] = True
    for j, row in enumerate(stored_u):
        values[lay.m0 : lay.m1 + 1, j] = row

    K = problem.bound_K
    window_vals = values[lay.m0 : lay.m1 + 1, :]
    lo_data = min(
        float(np.min(problem.initial.u0(problem.grid.nodes[lay.m0 : lay.m1 + 1]))),
        problem.phi.min_value(problem.grid.domain),
    )
    max_ok = bool(
        np.nanmax(window_vals) <= K + 1e-6
        and np.nanmin(window_vals) >= lo_data - problem.eta_cap - 1e-6
    )
    meta = {
        "eps": problem.eps,
        "eta": problem.eta,
        "dt": problem.dt,
        "bound_K": K,
        "newton_iterations": total_iters,
        "max_scaled_residual": worst_res,
        "step_halvings": halvings,
        "max_principle_ok": max_ok,
        "store_stride": store_stride,
    }
    return SpaceTimeField(
        grid=problem.grid,
        eps=problem.eps,
        eta=problem.eta,
        times=times,
        values=values,
        mask=mask,
        meta=meta,
    )


def flux_balance_defect(fieldobj: SpaceTimeField, problem: ApproxProblem) -> float:
    """Worst per-step defect of mass change against boundary flux of the flux.

    The conservative stencil telescopes exactly, so the defect measures only
    the Newton tolerance, far below the ``C (h + dt)`` budget.
    """
    lay = problem.layout
    op = problem.operator
    m0, m1 = lay.m0, lay.m1
    free = lay.free_local + m0
    vol = op.volumes
    rho_vals = np.asarray(problem.rho.rho(problem.grid.nodes[free]))
    h = problem.grid.h
    worst = 0.0
    for j in range(fieldobj.n_times - 1):
        dt = fieldobj.times[j + 1] - fieldobj.times[j]
        u_new = fieldobj.values[:, j + 1]
        u_old = fieldobj.values[:, j]
        mass_change = float(np.sum(rho_vals * (u_new[free] - u_old[free]) * vol[free]))
        g = np.asarray(problem.flux.g(u_new))
        f0, f1 = free[0], free[-1]
        flux_in = 0.0
        if f1 + 1 <= m1 and (f1 + 1 - m0) in lay.dir_local:
            flux_in += op.face_areas[f1] * (g[f1 + 1] - g[f1]) / h
        if f0 - 1 >= m0 and (f0 - 1 - m0) in lay.dir_local:
            flux_in -= op.face_areas[f0 - 1] * (g[f0] - g[f0 - 1]) / h
        worst = max(worst, abs(mass_change - dt * flux_in))
    return worst


@dataclass
class LimitDiagnostics:
    """Cauchy diagnostics of a collar/lift family on a fixed probe set."""

    eps_levels: list
    eta_levels: list
    eps_diffs: list
    eta_diffs: list
    eps_converged: bool
    eta_converged: bool
    probe_coords: np.ndarray

    @property
    def converged(self) -> bool:
        return self.eps_converged and self.eta_converged

    def as_dict(self) -> dict:
        return {
            "eps_levels": list(self.eps_levels),
            "eta_levels": list(self.eta_levels),
            "eps_diffs": list(self.eps_diffs),
            "eta_diffs": list(self.eta_diffs),
            "eps_converged": self.eps_converged,
            "eta_converged": self.eta_converged,
            "converged": self.converged,
            "n_probes": int(self.probe_coords.size),
        }


#: Most probe nodes on which family members are compared.
_MAX_PROBES = 64


def _halving(levels, label: str, minimum: int):
    arr = np.asarray(levels, dtype=float)
    if arr.size < minimum:
        raise ConfigError(f"need at least {minimum} {label} levels, got {arr.size}")
    if np.any(arr <= 0.0) or np.any(np.diff(arr) >= 0.0):
        raise ConfigError(f"{label} levels must be positive and strictly decreasing")
    ratios = arr[:-1] / arr[1:]
    if np.any(np.abs(ratios - 2.0) > 0.05):
        raise ConfigError(f"{label} levels must halve; got ratios {ratios}")
    return arr


def _decays(diffs, scale: float, factor: float = 1.5) -> bool:
    floor = 1e-10 * max(1.0, scale)
    for a, b in zip(diffs[:-1], diffs[1:]):
        if b > floor and a / max(b, 1e-300) < factor:
            return False
    return True


def extract_limit_solution(
    problem: ApproxProblem,
    eps_levels,
    eta_levels,
    scheme: SolverScheme | None = None,
    *,
    store_stride: int = 1,
) -> tuple[SpaceTimeField, LimitDiagnostics]:
    """Solve a halving family in collar width and lift, with Cauchy diagnostics.

    Successive differences are measured on a fixed interior probe set (nodes
    clear of the widest collar).  The family is declared converged when both
    difference sequences decay by at least a factor 1.5 per halving;
    non-decay is reported, not raised, because the divergent-integral regime
    is expected to produce it.
    """
    eps_arr = _halving(eps_levels, "collar", 4)
    eta_arr = _halving(eta_levels, "lift", 3)
    grid = problem.grid
    steps_needed = int(round(eps_arr[0] / grid.h)) + 2
    probe_idx = np.nonzero(grid.steps_from_boundary >= steps_needed)[0]
    if probe_idx.size < 5:
        raise ConfigError("fewer than 5 probe nodes clear of the widest collar")
    if probe_idx.size > _MAX_PROBES:
        probe_idx = probe_idx[:: int(np.ceil(probe_idx.size / _MAX_PROBES))]

    def run(e, h):
        return solve_eps_eta(
            dataclasses.replace(problem, eps=float(e), eta=float(h)),
            scheme,
            store_stride=store_stride,
        )

    eta_min = float(eta_arr[-1])
    eps_fields = [run(e, eta_min) for e in eps_arr]
    finest = eps_fields[-1]
    eta_fields = [run(eps_arr[-1], h) for h in eta_arr[:-1]] + [finest]

    def sup_diff(a: SpaceTimeField, b: SpaceTimeField) -> float:
        if not a.times_match(b):
            raise ShapeError("family members stored different time stamps")
        return float(np.max(np.abs(a.values[probe_idx, :] - b.values[probe_idx, :])))

    eps_diffs = [sup_diff(eps_fields[i], eps_fields[i + 1]) for i in range(len(eps_fields) - 1)]
    eta_diffs = [sup_diff(eta_fields[i], eta_fields[i + 1]) for i in range(len(eta_fields) - 1)]
    K = problem.bound_K
    diag = LimitDiagnostics(
        eps_levels=[float(e) for e in eps_arr],
        eta_levels=[float(h) for h in eta_arr],
        eps_diffs=eps_diffs,
        eta_diffs=eta_diffs,
        eps_converged=_decays(eps_diffs, K),
        eta_converged=_decays(eta_diffs, K),
        probe_coords=grid.nodes[probe_idx],
    )
    return finest, diag
