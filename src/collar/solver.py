"""Implicit solver for the collar-approximated degenerate diffusion problems.

Each approximation solves ``rho du/dt = Lap[G(u)]`` on the core of the
domain at one collar level, with the lifted boundary trace imposed strongly
at the interface nodes and the initial state blended between the interior
data and the boundary trace across the collar.  Time stepping is implicit
Euler with a damped Newton iteration on the tridiagonal system; the Jacobian
floors the flux derivative where it degenerates, while the residual (and
therefore the converged answer) is the unregularized scheme.  There is no
other scheme: a step is accepted only at the Newton tolerance, and a step
that does not reach it is halved.  For a nonlinear flux, Newton starts each
outer step at the extrapolation ``2 u_n - u_(n-1)`` or ``3 (u_n - u_(n-1)) +
u_(n-2)`` of the last outer states, and the sub-steps of a halved step at
their current state; a linear flux needs no start.

The members of one solve are approximations of one problem: they share one
flux object, one ``dt`` and one horizon, which ``solve_members`` checks, while
grid, collar width, lift, density and data may differ.  They step together:
their windows are laid end to end as one block-diagonal tridiagonal system
whose coupling bands are zero, so every LAPACK call returns each block's own
solution and every member's trajectory is bit-identical to solving it alone.
One solve keeps all members' window states in one concatenated array, and the
extrapolation is elementwise, so each row depends on its own history only.
Convergence, line search, failure and step halving are per member; each
member keeps its rows and halving state in one record, and its Newton totals
sit in lists that reach its field at the end.  One solve builds one block
system for all its members and every sub-step level steps on it: a member
that does not step at a level sits out with a zero right-hand side, so its
block solves to zero, as a converged member's does.  While no member is
halved, an outer step is one Newton call whose state is the next state, with
no member mask built; a member that fails retries from its old rows.

Every step matrix has one layout: an imposed row is an identity row and its
column is moved to the right-hand side.  So the matrix stays symmetric, each
imposed row solves to its trace exactly, and a Jacobian entry at an imposed
node never reaches a solve.  Imposed rows end their blocks (a ball's block
starts at its free centre), so each couples to one row only: its inner
neighbour, which ``collar_decomposition`` names.

Nothing that is fixed for a whole step is computed inside the Newton
iteration.  The lifted traces are evaluated once per block of outer steps, at
all their end times at once, and once per halved step and level, at all that
level's sub-step ends; each distinct ``BoundaryData`` is called once per
evaluation.  A Newton call builds ``base``, the old state with the step's
traces in its imposed rows, once, and its residual at ``v`` is ``(v - base) -
rscale L G(v)``, with ``rscale = dt / rho`` but 0 at an imposed row, so an
imposed row reads ``v - trace``.  Every Newton matrix is symmetric positive
definite once its rows are scaled by ``W = diag(V rho / dt)`` and its columns
by the inverse Jacobian diagonal (see ``_StepSize``), so its right-hand side
is ``-W`` times the residual.  What depends only on the step size is kept per
``dt``: ``rscale``, ``W``, ``-W`` and, for a linear flux, the ``L D L^T``
factors (LAPACK ``pttrf``) of its scaled step matrix ``W A`` at its exact
slope, or else the stencil scaled by volume.  For a linear flux the residual
is ``A v - b``, with ``b`` the ``base`` less the traces' couplings beside
them, so a step is one solve of ``W A u = W b`` (``pttrs``) and one residual
that checks it; only a member that rounding leaves above the tolerance goes
on by chord Newton on the same factors.  Every other flux rebuilds only the
diagonal each iteration and solves with one ``ptsv``.  The direct solve and
Newton from a start agree to within the tolerance of each step, not bit for
bit.  A non-finite Jacobian, residual or Newton update fails its member
instead of freezing the state; the error of a member that stalls gives the
rounding floor of its residual.

The LAPACK routines come from ``collar.tridiagonal``, which maps scipy's
compiled wrapper when this module is imported.  ``parse_config`` imports this
module for every kind that steps, so a first run finds LAPACK loaded.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from operator import add

import numpy as np

from .csvfmt import write_csv
from .errors import ConfigError, SolveError, StepError
from .geometry import Grid, collar_decomposition
from .models import BoundaryData, DensityModel, InitialData, Nonlinearity, global_bound
from .operators import assemble_diffusion, stack_operators
from .tridiagonal import factor_spd, solve_spd, solve_spd_once

#: Step-size records one batch keeps, one per ``dt``; the least
#: recently used is dropped first.  Rounding gives one lattice a few distinct
#: ``dt`` values, but most steps share one, which two entries keep.
_STEP_CACHE = 2
#: Outer steps whose traces one table holds, so a long run's tables stay small.
_TRACE_BLOCK = 256
#: Halvings of one outer step before a member's solve fails.
_MAX_DEPTH = 10
#: Clean outer steps after which a halved member relaxes one depth.
_RELAX_STEPS = 20
#: A Jacobian entry at most this times its row weight ``w`` counts as 0: ``w / gp``
#: could overflow, and its column lies far below rounding in every row it enters.
_ZERO_SLOPE = 2.0**-1020


def collar_cutoff(distance, eps: float):
    """Smoothstep cutoff for ``eps > 0``: 0 where d <= eps, 1 where d >= 2 eps."""
    d = np.asarray(distance, dtype=float)
    s = np.clip((d - eps) / eps, 0.0, 1.0)
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
    zeta = collar_cutoff(grid.distances, eps)
    trace = phi.phi(grid.domain.nearest_boundary_point(x), 0.0)
    return zeta * np.asarray(initial.u0(x), dtype=float) + (1.0 - zeta) * np.asarray(trace)


@dataclass(frozen=True)
class SolverScheme:
    """Numerical knobs of the implicit Euler step and its damped Newton iteration.

    A step is accepted only once every member's scaled residual is at most
    ``newton_tol``; otherwise it fails within ``max_iterations`` and is halved.
    ``jacobian_floor`` applies only where the Jacobian is assembled from the
    flux derivative ``dg``: a linear flux steps at its exact slope.  A floor
    of 0 is exact, not singular: a vanishing ``dg`` makes its Jacobian column
    a unit column, which the solve takes as it is.  The default is 1e-8, not 0:
    from ``u = 0`` under a trace of 1 (porous medium ``m = 2``, 65 nodes, ``dt =
    0.5``), it takes 39 Newton iterations and no halving, where 0 takes 175 and 5.
    """

    newton_tol: float = 1e-10
    max_iterations: int = 30
    jacobian_floor: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.newton_tol < math.inf:
            raise ConfigError("newton_tol must be positive and finite")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 0.0 <= self.jacobian_floor < math.inf:
            raise ConfigError("jacobian_floor must be nonnegative and finite")


@dataclass(frozen=True)
class _Layout:
    """Index window of one collar-level solve on the shared grid."""

    m0: int
    m1: int
    dir_local: np.ndarray
    inner_local: np.ndarray
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
        if not (0.0 < self.dt < math.inf and 0.0 < self.horizon < math.inf):
            raise ConfigError("time step and horizon must be positive and finite")
        if self.phi.horizon < self.horizon * (1.0 - 1e-12):
            raise ConfigError("boundary data horizon shorter than the solve horizon")
        grid = self.grid
        # A member's states lie in its data range lifted by eta; G is flat past a table's knots.
        lo, hi = self.flux.g_inv(self.flux.g_range)
        if lo > -math.inf or hi < math.inf:  # a table: other fluxes cover the line
            u0, (t_lo, t_hi) = self.initial.u0(grid.nodes), self.phi.extremes(grid.domain)
            reach = min(np.min(u0), t_lo) + self.eta, max(np.max(u0), t_hi) + self.eta
            if not lo <= reach[0] <= reach[1] <= hi:
                raise ConfigError(f"flux table covers [{lo:.6g}, {hi:.6g}], not [{reach[0]:.6g}, "
                                  f"{reach[1]:.6g}], the data range lifted by eta = {self.eta:.6g}")
        cls = collar_decomposition(grid, self.eps)
        m0, m1 = cls.window
        dir_local = cls.interface - m0
        free_local = np.arange(int(dir_local[0] == 0), m1 - m0)  # the rows between imposed ends
        if free_local.size < 3:
            raise ConfigError("fewer than 3 interior unknowns at this collar level")
        points = np.atleast_1d(grid.domain.nearest_boundary_point(grid.nodes[m0 + dir_local]))
        self.layout = lay = _Layout(m0, m1, dir_local, cls.inner_neighbours - m0, free_local,
                                    points)
        self._window_op = assemble_diffusion(grid).window(m0, m1)
        # Density values at strongly imposed rows never enter the scheme, and a
        # power-law density is infinite at the boundary nodes: leave them at 1.
        self._rho_w = np.ones(lay.size)
        self._rho_w[free_local] = self.rho.rho(grid.nodes[m0 + free_local])
        self._solo = None  # one-member batch of step_implicit, built on first use

    @property
    def bound_K(self) -> float:
        return global_bound(
            self.initial.sup_norm(self.grid), self.phi.sup_norm(self.grid.domain), self.eta_cap
        )

    def initial_window(self) -> np.ndarray:
        full = blend_initial_data(self.initial, self.phi, self.eps, self.grid)
        return full[self.layout.m0 : self.layout.m1 + 1] + self.eta


@dataclass
class SpaceTimeField:
    """Gridded trajectory of one solve, NaN outside its computational window."""

    grid: Grid
    eps: float
    eta: float
    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Writes a header line ``t,x_0,..`` and one line per stored time, the
        time first: byte for byte what ``np.savetxt`` writes of the stacked table
        at ``%.17g``.  ``csvfmt.write_csv`` stacks and formats a few rows at a
        time in numpy, so neither the whole table nor a Python float per value
        is built."""
        header = "t," + ",".join(f"x_{i}" for i in range(self.grid.n))
        write_csv(path, header, self.times, self.values.T)


def _all_finite(values: np.ndarray) -> bool:
    """No inf or NaN entry; a sum that overflows also reads False, so callers recheck."""
    return math.isfinite(np.add.reduce(values))


class _StepSize:
    """What one step size fixes: ``scale = dt / rho`` and the residual's ``rscale``,
    0 at an imposed row; row weights ``w = V rho / dt``, 1 at an imposed row, and
    ``negw = -w``, the scaled Newton right-hand side per unit residual; the
    stencil scaled by volume, ``-K``, or the factors of a linear step matrix.

    With ``L = V^-1 K`` and ``K`` symmetric, the Newton matrix ``I - diag(scale)
    L diag(gp)`` scaled by ``w`` in its free rows and by ``1 / gp`` in its
    columns is ``W / gp - K``: symmetric and strictly dominant with a positive
    diagonal.  ``-K`` is kept as its diagonal ``kdi`` (0 at an imposed row) and
    off-diagonal ``e`` (0 on both sides of an imposed row, and across a block
    edge from ``stack_operators``), so an iteration only adds ``w / gp`` to
    ``kdi``; no ``gp`` above ``gp_zero`` counts as 0.  At slope ``c`` the matrix
    times ``c`` is ``W - c K``, factored here once.

    An imposed row ends its block, so its column couples to its ``inner`` row
    only.  ``columns`` holds, aligned with a row of traces, that coupling: the
    stencil scaled by ``scale`` and the slope.  A linear step subtracts
    coupling times trace from its right-hand side at the ``inner`` rows.
    """

    __slots__ = ("scale", "rscale", "w", "negw", "kdi", "e", "gp_zero", "ldl", "columns")

    def __init__(self, batch: "_Batch", dt: float):
        op = batch.op
        self.scale = scale = dt / batch.rho
        self.w = w = op.volumes * batch.rho / dt
        dir_rows, inner = batch.dir, batch.inner
        w[dir_rows] = 1.0
        self.negw = -w
        self.rscale = rscale = scale.copy()
        rscale[dir_rows] = 0.0
        kdi, e = -op.volumes * op.di, -op.volumes * op.up
        kdi[dir_rows] = 0.0
        e[dir_rows] = e[dir_rows - 1] = 0.0  # e[-1] lies outside the matrix
        self.kdi = self.e = self.gp_zero = self.ldl = self.columns = None
        slope = batch.flux.slope
        if slope is None:
            self.kdi, self.e, self.gp_zero = kdi, e, _ZERO_SLOPE * float(w.max())
        else:
            self.ldl = factor_spd(w + slope * kdi, slope * e)
            coupling = np.where(inner > dir_rows, op.lo[inner], op.up[inner])
            self.columns = -scale[inner] * coupling * slope


class _Batch:
    """All members of one solve as one block-diagonal tridiagonal system.

    Member ``k`` owns rows ``starts[k] .. starts[k] + sizes[k] - 1`` of every
    concatenated vector and entries ``bc_starts[k] .. bc_starts[k] +
    bc_sizes[k] - 1`` of a row of traces.  The members share one flux, which
    is evaluated once on all rows.  Imposed rows ``dir`` end their blocks, and
    each couples to its ``inner`` row only, aligned with it; every step matrix
    leaves the imposed columns out.
    ``traces`` evaluates each distinct ``BoundaryData`` once per call, for a
    whole array of times, on all its interface points, whichever members
    step.  ``step`` keeps what one step size fixes, one record per ``dt``.
    """

    def __init__(self, problems):
        self.sizes = np.array([p.layout.size for p in problems])
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.bc_sizes = np.array([p.layout.dir_local.size for p in problems])
        self.bc_starts = np.cumsum(self.bc_sizes) - self.bc_sizes
        self.op = stack_operators([p._window_op for p in problems])
        self.rho = np.concatenate([p._rho_w for p in problems])
        self.dir = np.concatenate([p.layout.dir_local + s for p, s in zip(problems, self.starts)])
        self.inner = np.concatenate([p.layout.inner_local + s
                                     for p, s in zip(problems, self.starts)])
        self.flux = problems[0].flux
        self.linear = self.flux.slope is not None
        traces = {}  # id(phi) -> (phi, rows of a trace row, interface points, lifts)
        for p, row in zip(problems, self.bc_starts):
            k = p.layout.dir_local.size
            entry = traces.setdefault(id(p.phi), (p.phi, [], [], []))
            entry[1].append(np.arange(row, row + k))
            entry[2].append(p.layout.dir_points)
            entry[3].append(np.full(k, p.eta))
        self._traces = [(phi, *map(np.concatenate, parts)) for phi, *parts in traces.values()]
        self._steps = {}

    def traces(self, ts) -> np.ndarray:
        """Lifted traces at every member's interface nodes, one row per time in ``ts``."""
        ts = np.asarray(ts, dtype=float)
        bc = np.empty((ts.size, self.dir.size))
        for phi, rows, points, lifts in self._traces:
            bc[:, rows] = np.asarray(phi.phi(points, ts[:, None]), dtype=float) + lifts
        return bc

    def rows(self, members) -> np.ndarray:
        """Row mask of a member mask."""
        return np.repeat(members, self.sizes)

    def step(self, dt: float) -> _StepSize:
        """The record of step size ``dt``, built on first use."""
        size = self._steps.pop(dt, None)
        if size is None:
            size = _StepSize(self, dt)
            if len(self._steps) >= _STEP_CACHE:
                del self._steps[next(iter(self._steps))]  # the least recently used
        self._steps[dt] = size
        return size


def _newton(batch: _Batch, state, start, scheme: SolverScheme, bc: np.ndarray, dt: float,
            stepping: list):
    """One implicit Euler step from ``state`` of each batch member ``k`` with ``stepping[k]``.

    ``bc`` is the row of ``batch.traces`` at the step's end; what the step
    size ``dt`` fixes comes from ``batch.step``.  A nonlinear batch starts
    Newton at ``start``, which it overwrites, and solves its scaled Newton
    matrix (see ``_StepSize``) with one ``ptsv`` each iteration.  A linear
    batch never reads ``start``: its first iteration is one solve with the
    step's factors, and a member that rounding leaves above the tolerance goes
    on by chord Newton on the same factors.  Returns ``(state, iterations,
    residuals, errors)``: per member, the Newton iterations and the final
    scaled residual, and ``errors[k]``, the StepError member ``k`` would raise
    stepping alone, for each stepping member that failed.  Members iterate in
    lockstep, each with its own convergence test and line search.  A member
    that does not step starts out of the iteration; any other leaves it once it
    converges or fails.  Out of it, a member's right-hand side is zero, so its
    block solves to zero; a non-finite Jacobian entry at a free row fails its
    member, and every row out of the iteration takes a unit Jacobian before the
    solve.  Only stepping members' rows of the returned state are a step.
    """
    op, dir_rows, starts, tol = batch.op, batch.dir, batch.starts, float(scheme.newton_tol)
    size = batch.step(dt)
    rscale = size.rscale
    base = state.copy()
    base[dir_rows] = bc  # an imposed row's residual is ``v - bc``: rscale is 0 there

    def residual(v):
        gv = np.asarray(batch.flux.g(v))
        res = (v - base) - rscale * op.apply(gv)
        norms = np.maximum.reduceat(np.abs(res), starts).tolist()
        if not all(map(math.isfinite, norms)):
            # A zero coupling or scale times a non-finite flux value is NaN in
            # another row: keep each non-finite value to its own member's rows.
            bad = ~np.isfinite(gv)
            res = (v - base) - rscale * op.apply(np.where(bad, 0.0, gv))
            res[dir_rows] = v[dir_rows] - bc
            res[bad] = np.nan
            norms = np.maximum.reduceat(np.abs(res), starts).tolist()
        return res, norms

    def fail_non_finite(values):
        """Fails each live member with a non-finite entry in ``values``."""
        for k, ok in enumerate(np.logical_and.reduceat(np.isfinite(values), starts).tolist()):
            if live[k] and not ok:
                errors[k] = StepError(
                    f"Newton update is not finite at iteration {iters[k]}", residual=norms[k]
                )
                live[k] = False

    if batch.linear:
        # The residual is ``A v - b``, with ``b`` the old state and the traces in
        # the imposed rows, so one solve of ``W A u = W b`` settles the step.  A
        # member that does not step, or whose ``b`` is not finite, takes a zero
        # right-hand side: its block solves to zero and leaks nothing.
        b = base.copy()
        b[batch.inner] -= size.columns * bc
        direct = stepping
        if not _all_finite(b):
            finite = np.logical_and.reduceat(np.isfinite(b), starts).tolist()
            direct = [s and ok for s, ok in zip(stepping, finite)]
        if not all(direct):
            b[batch.rows(np.logical_not(direct))] = 0.0
        u = solve_spd(size.ldl, size.w * b)
        iters = [int(d) for d in direct]
    else:
        u = start
        iters = [0] * len(stepping)
    u[dir_rows] = bc  # the direct solve returns its members' traces already
    res, norms = residual(u)
    errors = {}
    live = [s and r > tol for s, r in zip(stepping, norms)]  # a NaN residual fails below
    for _ in range(scheme.max_iterations):
        if not any(live):
            break
        b = size.negw * res  # the right-hand side ``-res``, scaled by ``w``
        out = None
        if not all(live):
            out = batch.rows(np.logical_not(live))
            b[out] = 0.0
        if batch.linear:
            delta = solve_spd(size.ldl, b)
        else:
            gp = np.maximum(np.asarray(batch.flux.dg(u), dtype=float), scheme.jacobian_floor)
            gp[dir_rows] = 1.0  # so an imposed row's diagonal is 1 / 1 + 0, whatever dg is
            if not _all_finite(gp):
                # The elimination would carry a non-finite entry into the next
                # block: fail its member and solve every row out at slope 1.
                fail_non_finite(gp)
                out = batch.rows(np.logical_not(live))
                gp[out], b[out] = 1.0, 0.0
            e = size.e
            zero = ()
            if scheme.jacobian_floor <= size.gp_zero:  # only a floor near 0 lets gp vanish
                zero = np.flatnonzero(gp <= _ZERO_SLOPE * size.w)
            if len(zero):
                # At ``gp_j = 0`` column j is a unit column, so ``delta_j`` sits in
                # row j alone: row j solves as an identity row to ``z_j = 0``, and
                # ``delta_j`` comes from row j of the unscaled matrix afterwards.
                gp[zero], b[zero] = 1.0, 0.0
                e = e.copy()
                e[zero] = e[zero - 1] = 0.0  # e[-1] lies outside the matrix
            z = solve_spd_once(size.w / gp + size.kdi, e, b)
            delta = z / gp
            if len(zero):
                # The right-hand side ``-res``, 0 out of the iteration as ``b`` is.
                rhs = -res[zero] if out is None else np.where(out[zero], 0.0, -res[zero])
                delta[zero] = rhs + size.scale[zero] * op.apply(z)[zero]
        if not _all_finite(delta):
            fail_non_finite(delta)
        if not any(live):
            break
        searching = live
        frac = 1.0
        for _ in range(9):
            trial = u + delta if frac == 1.0 else u + frac * delta  # 1.0 * delta is delta
            trial_res, trial_norms = residual(trial)
            ok = [s and (tn < r * (1.0 - 1e-4) or tn <= tol)
                  for s, tn, r in zip(searching, trial_norms, norms)]
            if all(ok):
                u, res, norms = trial, trial_res, trial_norms
                break
            if any(ok):
                rows = batch.rows(ok)
                u = np.where(rows, trial, u)
                res = np.where(rows, trial_res, res)
                norms = [tn if a else r for a, tn, r in zip(ok, trial_norms, norms)]
                searching = [s and not a for s, a in zip(searching, ok)]
                if not any(searching):
                    break
            frac *= 0.5
        else:
            rows = batch.rows(searching)
            u = np.where(rows, u + 0.1 * delta, u)
            damped_res, damped_norms = residual(u)
            res = np.where(rows, damped_res, res)
            norms = [dn if s else r for s, dn, r in zip(searching, damped_norms, norms)]
        iters = list(map(add, iters, live))
        live = [was_live and r > tol for was_live, r in zip(live, norms)]

    if all(map(tol.__ge__, norms)):  # a NaN compares False; tol is a float, not an int
        return u, iters, norms, errors
    for k, r in enumerate(norms):
        if not stepping[k] or k in errors or r <= tol:
            continue
        if not math.isfinite(r):
            message = f"scaled residual is not finite after {iters[k]} iterations"
        else:
            message = (f"Newton stalled at scaled residual {r:.3e} after {iters[k]} iterations; "
                       f"newton_tol is {tol:.3e} and the rounding floor of the residual "
                       f"reaches {_rounding_floor(batch, u, base, rscale)[k]:.3e}")
        errors[k] = StepError(message, residual=r)
    return u, iters, norms, errors


def _rounding_floor(batch: _Batch, v, base, rscale) -> list:
    """Per member, the most that rounding alone can leave in a row's residual at ``v``:
    ``eps (|v| + |base| + rscale sum_j |L_ij| |G(v_j)|)`` (Oettli and Prager)."""
    op = batch.op
    sums = dataclasses.replace(op, lo=abs(op.lo), di=abs(op.di), up=abs(op.up)).apply(
        abs(np.asarray(batch.flux.g(v), dtype=float)))
    floor = np.finfo(float).eps * (abs(v) + abs(base) + rscale * sums)
    return np.maximum.reduceat(floor, batch.starts).tolist()


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
    if problem._solo is None:
        problem._solo = _Batch([problem])
    bc = problem._solo.traces([t_new])[0]
    u, iters, norms, errors = _newton(problem._solo, state, state.copy(), scheme, bc, dt, [True])
    if errors:
        raise errors[0]
    return u, iters[0], norms[0]


class _Member:
    """One problem's progress through ``_advance``: its state rows, stored values, counters.

    ``rows`` is its block's slice of the solve's concatenated state and
    ``bc_rows`` its slice of a row of traces; ``depth`` is the sub-step level
    of its outer steps (``2**depth`` sub-steps each); ``clean`` counts its
    outer steps since that level last changed.
    """

    def __init__(self, index: int, problem: ApproxProblem, n_stored: int, batch: _Batch):
        self.index = index  # position in the caller's list, named in errors
        self.problem = problem
        lay = problem.layout
        first, bc_first = int(batch.starts[index]), int(batch.bc_starts[index])
        self.rows = slice(first, first + lay.size)
        self.bc_rows = slice(bc_first, bc_first + lay.dir_local.size)
        state = problem.initial_window()
        if not np.isfinite(state).all():
            bad = problem.grid.nodes[lay.m0 + np.flatnonzero(~np.isfinite(state))]
            raise SolveError(
                f"{self.label(0.0)}: initial state is not finite at x = {bad[:5].tolist()}"
            )
        self.values = np.full((problem.grid.n, n_stored), np.nan)
        self.window = self.values[lay.m0 : lay.m1 + 1]  # a view: rows of the window
        self.window[:, 0] = state
        self.depth = self.clean = self.halvings = 0

    def label(self, t: float) -> str:
        p = self.problem
        return f"member {self.index} (eps = {p.eps:.6g}, eta = {p.eta:.6g}) at t = {t:.6g}"

    def field(self, times: np.ndarray, store_stride: int, trace_lo: np.ndarray,
              trace_hi: np.ndarray, iterations: int, worst: float) -> SpaceTimeField:
        """The member's field; ``trace_lo`` and ``trace_hi`` are the least and largest
        lifted trace the solve imposed, per entry of a row of traces, and
        ``iterations`` and ``worst`` its Newton total and largest accepted residual.

        The discrete maximum principle holds when every stored state lies
        between the extremes of the initial window and of those traces.
        """
        p = self.problem
        start = self.window[:, 0]
        hi = max(float(start.max()), float(trace_hi[self.bc_rows].max()))
        lo = min(float(start.min()), float(trace_lo[self.bc_rows].min()))
        max_ok = bool(np.nanmax(self.window) <= hi + 1e-6 and np.nanmin(self.window) >= lo - 1e-6)
        meta = {
            "eps": p.eps,
            "eta": p.eta,
            "dt": p.dt,
            "bound_K": p.bound_K,
            "newton_iterations": iterations,
            "max_scaled_residual": worst,
            "step_halvings": self.halvings,
            "max_principle_ok": max_ok,
            "store_stride": store_stride,
        }
        return SpaceTimeField(grid=p.grid, eps=p.eps, eta=p.eta, times=times.copy(),
                              values=self.values, meta=meta)


def _extrapolate(state, history):
    """``u_n``, ``2 u_n - u_(n-1)`` or ``3 (u_n - u_(n-1)) + u_(n-2)``, on one fresh array."""
    if not history:
        return state.copy()
    guess = state - history[0]
    if len(history) == 1:
        guess += state
    else:
        guess *= 3.0
        guess += history[1]
    return guess


def _substep_ends(t, t_next, nsub: int) -> np.ndarray:
    """``t + (t_next - t) * j / nsub`` for ``j = 0 .. nsub``, along a new last axis."""
    t = np.asarray(t, dtype=float)[..., None]
    return t + (np.asarray(t_next, dtype=float)[..., None] - t) * np.arange(nsub + 1) / nsub


def _advance(problems, scheme: SolverScheme, store_stride: int) -> list[SpaceTimeField]:
    """Advance the members of one solve in lockstep over their shared time lattice.

    The traces at the outer step ends are evaluated once per block of
    ``_TRACE_BLOCK`` outer steps, and those at the sub-step ends of a halved
    step once per step and level.
    """
    p0 = problems[0]
    n_outer = int(round(p0.horizon / p0.dt))
    if n_outer < 1 or abs(n_outer * p0.dt - p0.horizon) > 1e-8 * p0.horizon:
        n_outer = max(1, int(np.ceil(p0.horizon / p0.dt - 1e-12)))
    times = np.empty(1 + n_outer // store_stride + (n_outer % store_stride != 0))
    times[0] = 0.0
    batch = _Batch(problems)
    members = [_Member(i, p, times.size, batch) for i, p in enumerate(problems)]
    state = np.concatenate([m.window[:, 0] for m in members])
    history = []  # the outer states before ``state``, newest first, at most two; nonlinear only
    # The least and largest lifted trace imposed at each entry of a row of traces.
    trace_lo = np.full(int(batch.bc_sizes.sum()), np.inf)
    trace_hi = -trace_lo
    everyone, iterations, worst = [True] * len(members), [0] * len(members), [0.0] * len(members)

    def impose(bc, rows):
        """Widens the imposed extremes by the entries ``rows`` of the trace rows ``bc``."""
        np.fmin(trace_lo, np.min(bc, axis=0, initial=np.inf, where=rows), out=trace_lo)
        np.fmax(trace_hi, np.max(bc, axis=0, initial=-np.inf, where=rows), out=trace_hi)

    def substeps(v, stepping, ends, bc, guess):
        """Steps the members marked in ``stepping`` from ``v`` over the sub-steps between
        the ``ends``, with the traces ``bc`` there, one row each.  A single step starts
        Newton at ``guess`` (a linear batch needs none), sub-steps each at the current
        state.  A member sits out from the sub-step it fails in.  Returns the state,
        the mask of the members it holds a step of, and the failures."""
        nsub = len(ends) - 1
        failed = []
        for j in range(nsub):
            start = None if batch.linear else guess if nsub == 1 else v.copy()
            v, iters, res, errors = _newton(batch, v, start, scheme, bc[j], ends[j + 1] - ends[j],
                                            stepping)
            if errors:
                failed.extend((members[k], err) for k, err in errors.items())
                stepping = [s and k not in errors for k, s in enumerate(stepping)]
            if stepping is everyone:  # no member is halved, and none failed
                iterations[:] = map(add, iterations, iters)
                worst[:] = [r if r > w else w for w, r in zip(worst, res)]  # max(w, r), faster
            else:
                iterations[:] = [n + i if s else n for n, i, s in zip(iterations, iters, stepping)]
                worst[:] = [r if s and r > w else w for w, r, s in zip(worst, res, stepping)]
                if not any(stepping):
                    break
        return v, stepping, failed

    t = 0.0
    col = 0
    deepest = 0  # the largest member depth
    for step in range(n_outer):
        k = step % _TRACE_BLOCK
        if k == 0:
            stop = min(step + _TRACE_BLOCK, n_outer)
            lattice = np.arange(step, stop + 1) * p0.dt
            if stop == n_outer:
                lattice[-1] = p0.horizon
            outer_ends = _substep_ends(lattice[:-1], lattice[1:], 1)
            table = batch.traces(outer_ends[:, 1])
            impose(table, True)
            outer_ends, t_nexts = outer_ends.tolist(), lattice[1:].tolist()
        t_next = t_nexts[k]
        guess = None if batch.linear else _extrapolate(state, history)
        new = None
        # Levels ascend: a member that fails at one level retries at the next, from ``state``.
        level = 0
        while level <= deepest:
            stepping = [m.depth == level for m in members] if deepest else everyone
            if any(stepping):
                if level == 0:
                    ends, bc = outer_ends[k], table[k : k + 1]
                else:
                    ends = _substep_ends(t, t_next, 2**level).tolist()
                    bc = batch.traces(ends[1:])
                    impose(bc, np.repeat(stepping, batch.bc_sizes))
                v, stepped, failed = substeps(state, stepping, ends, bc, guess)
                if new is None and all(stepping):
                    new = v  # the rows of a member that failed are stepped again below
                else:
                    new = np.empty_like(state) if new is None else new
                    np.copyto(new, v, where=all(stepped) or batch.rows(stepped))
                for m, err in failed:
                    m.depth += 1
                    m.clean = 0
                    m.halvings += 1
                    if m.depth > _MAX_DEPTH:
                        raise SolveError(
                            f"{m.label(t)}: time step exhausted after {m.halvings} halvings; "
                            f"last step error: {err}"
                        )
                    deepest = max(deepest, m.depth)
            level += 1
        if not batch.linear:
            history = [state] + history[:1]
        state = new
        t = t_next
        if deepest:
            for m in members:
                m.clean += 1
                if m.depth > 0 and m.clean >= _RELAX_STEPS:
                    m.depth -= 1
                    m.clean = 0
            deepest = max(m.depth for m in members)
        if (step + 1) % store_stride == 0 or step == n_outer - 1:
            col += 1
            times[col] = t
            for m in members:
                m.window[:, col] = state[m.rows]

    return [m.field(times, store_stride, trace_lo, trace_hi, n, r)
            for m, n, r in zip(members, iterations, worst)]


def solve_members(
    problems,
    scheme: SolverScheme | None = None,
    *,
    store_stride: int = 1,
) -> list[SpaceTimeField]:
    """Advance lifted collar problems over [0, horizon]; one field per problem, in order.

    The problems must share one flux object, one ``dt`` and one ``horizon``;
    a ConfigError names the first that does not.  They step in lockstep on one
    block-diagonal Newton system, built once per call, and each field is
    bit-identical to solving its problem alone.  Stored time stamps sit on the
    uniform lattice ``k * dt`` regardless of internal sub-stepping: a member
    whose step fails retries it on a halved lattice (up to 10 halvings),
    together with the other members at that depth, on the same system while
    the rest sit out, and its depth relaxes after 20 clean steps.  Each
    distinct trace is evaluated once per block of outer steps, and once more
    per halved step and level.  A member's maximum principle holds when its
    window stays between the extremes of its initial window and of the lifted
    trace values the solve imposed on it.  A SolveError names the
    failing member's index, ``eps``, ``eta`` and time.
    """
    problems = list(problems)
    p0 = problems[0]
    for i, p in enumerate(problems):
        for name, same in (("flux", p.flux is p0.flux), ("dt", p.dt == p0.dt),
                           ("horizon", p.horizon == p0.horizon)):
            if not same:
                raise ConfigError(f"member {i} has another {name} than member 0; "
                                  "the members of one solve share one flux, dt and horizon")
    return _advance(problems, scheme or SolverScheme(), store_stride)


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
#: Least ratio of successive family differences that counts as decay.
_DECAY_FACTOR = 1.5


def family_levels(eps_levels, eta_levels) -> tuple[np.ndarray, np.ndarray]:
    """The collar and lift levels of a family; ConfigError unless each halves.

    A family needs at least 4 collar and 3 lift levels.
    """

    def halving(levels, label: str, minimum: int):
        arr = np.asarray(levels, dtype=float)
        if arr.size < minimum:
            raise ConfigError(f"need at least {minimum} {label} levels, got {arr.size}")
        if np.any(arr <= 0.0) or np.any(np.diff(arr) >= 0.0):
            raise ConfigError(f"{label} levels must be positive and strictly decreasing")
        ratios = arr[:-1] / arr[1:]
        if np.any(np.abs(ratios - 2.0) > 0.05):
            raise ConfigError(f"{label} levels must halve; got ratios {ratios}")
        return arr

    return halving(eps_levels, "collar", 4), halving(eta_levels, "lift", 3)


def _decays(diffs, scale: float) -> bool:
    floor = 1e-10 * max(1.0, scale)
    for a, b in zip(diffs[:-1], diffs[1:]):
        if b > floor and a / max(b, 1e-300) < _DECAY_FACTOR:
            return False
    return True


def family_members(problem: ApproxProblem, eps_levels, eta_levels) -> list[ApproxProblem]:
    """The members of a halving family in collar width and lift, on ``problem``'s grid.

    Each collar level at the least lift comes first, widest first, then each
    larger lift at the finest collar level, largest first: the order
    ``extract_limit_solution`` reads their fields in.  ConfigError unless the
    levels halve and at least 5 probe nodes clear the widest collar.
    """
    eps_arr, eta_arr = family_levels(eps_levels, eta_levels)
    if collar_decomposition(problem.grid, float(eps_arr[0])).probes(_MAX_PROBES).size < 5:
        raise ConfigError("fewer than 5 probe nodes clear of the widest collar")
    eta_min = float(eta_arr[-1])
    pairs = [(e, eta_min) for e in eps_arr] + [(eps_arr[-1], h) for h in eta_arr[:-1]]
    return [dataclasses.replace(problem, eps=float(e), eta=float(h)) for e, h in pairs]


def extract_limit_solution(fields) -> tuple[SpaceTimeField, LimitDiagnostics]:
    """The finest field of a family and its Cauchy diagnostics.

    ``fields`` are the solved ``family_members``, in their order.  Successive
    differences are measured on a fixed interior probe set (nodes clear of
    the widest collar).  The family is declared converged when both
    difference sequences decay by at least a factor 1.5 per halving;
    non-decay is reported, not raised, because the divergent-integral regime
    is expected to produce it.
    """
    n_eps = next(i for i, f in enumerate(fields) if f.eta != fields[0].eta)
    eps_fields = fields[:n_eps]
    finest = eps_fields[-1]
    eta_fields = fields[n_eps:] + [finest]
    grid = finest.grid
    probe_idx = collar_decomposition(grid, eps_fields[0].eps).probes(_MAX_PROBES)

    def sup_diffs(seq) -> list:
        return [float(np.max(np.abs(a.values[probe_idx, :] - b.values[probe_idx, :])))
                for a, b in zip(seq[:-1], seq[1:])]

    eps_diffs, eta_diffs = sup_diffs(eps_fields), sup_diffs(eta_fields)
    K = finest.meta["bound_K"]
    diag = LimitDiagnostics(
        eps_levels=[f.eps for f in eps_fields],
        eta_levels=[f.eta for f in eta_fields],
        eps_diffs=eps_diffs,
        eta_diffs=eta_diffs,
        eps_converged=_decays(eps_diffs, K),
        eta_converged=_decays(eta_diffs, K),
        probe_coords=grid.nodes[probe_idx],
    )
    return finest, diag
