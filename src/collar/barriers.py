"""Sub/supersolution barriers, built in one pass by ``build_barriers``.

``build_barriers`` turns one barrier case and the config's models into each
requested side's barrier: it builds the spatial profile, picks the
localization radius, selects the constants and checks that the grid resolves
the barrier's validity region.  ``verify_barrier_residual`` then checks the
discrete residual of each barrier; a failure there is a verdict.

Two spatial profiles are available.  The distance potential ``V`` is the
double integral of the density majorant, valid when the weighted collar
integral is finite and the density has a positive infimum; without a
closed form it is a table whose rows are computed block by block on first
read, so a barrier pays only for the distances it evaluates.  The exterior
bump ``h`` (the classical Miller construction) needs only a bounded density
and an exterior sphere, which interval and radial geometry provide exactly.

A barrier combines one profile with an anchor value of the boundary data, a
gap ``sigma``, and quadratic localization penalties; the constants are the
smallest ones satisfying the case's inequalities, times a safety factor so
that discrete verification passes at finite resolution.  The config schema
bounds every key, so the checks left here are the ones a config within those
bounds can still fail, and each raises a ``ConfigError``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ModelError, RangeError, RegimeError
from .geometry import ANNULUS, BALL, Domain, Grid
from .models import (
    BoundaryData,
    DensityModel,
    InitialData,
    Nonlinearity,
    PowerMajorant,
    TabulatedMajorant,
    _GAUSS_W,
    _GAUSS_X,
    _dyadic_pieces,
    global_bound,
    h4_integral,
)
from .operators import assemble_diffusion

#: Rows of the potential table integrated per batch, on first read; bounds the temporaries.
_TABLE_BLOCK = 16

#: Most sample times at which a timed barrier's residual is checked.
_TIME_SAMPLES = 96

#: Samples of the data per trial radius in the localization bisection.
_RADIUS_SAMPLES = 2048

#: Exterior bump: amplitude margin over the smallest admissible one, and the
#: reach of its validity region in exterior-sphere radii.
_MILLER_SAFETY = 1.05
_MILLER_REGION_FACTOR = 2.0


def _composite_integral(f, a, b: float, pieces: int = 48) -> np.ndarray:
    """Gauss quadrature over log-spaced subintervals of [a, b], per lower limit a > 0."""
    a = np.asarray(a, dtype=float).reshape(-1)
    out = np.zeros(a.shape)
    inside = a < b
    edges = np.geomspace(a[inside], b, pieces + 1, axis=-1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    x = mid[..., None] + half[..., None] * _GAUSS_X
    out[inside] = np.sum(half[..., None] * _GAUSS_W * np.asarray(f(x)), axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# Distance potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPotential:
    """Nonnegative potential of boundary distance with controlled curvature.

    ``value(d) = margin * (d * W(d) + J(d))`` where ``W(d)`` integrates the
    majorant from d to the collar cap and ``J(d)`` is the weighted integral
    from 0 to d.  Then ``V'' = -margin * majorant`` on the collar, V(0) = 0,
    and V is constant beyond the cap.  ``margin >= 1`` absorbs the radial
    first-order term of the Laplacian.

    A power-law majorant has a closed form.  Any other majorant is tabulated
    on a log grid of distances, whose rows are computed ``_TABLE_BLOCK`` at a
    time on first read: ``at_distance`` fills the blocks holding the rows
    its interpolation reads, and then interpolates.
    """

    eps_hat: float
    margin: float
    closed_form: bool
    _majorant: object
    _table_d: np.ndarray | None = None
    _table_v: np.ndarray | None = None
    _filled: np.ndarray | None = None

    def at_distance(self, d):
        d = np.clip(np.asarray(d, dtype=float), 0.0, None)
        capped = np.minimum(d, self.eps_hat)
        if self.closed_form:
            out = self.margin * self._closed_value(capped)
        else:
            # np.interp reads row j, and row j + 1 only off knot j; row 0 is 0.
            j = np.searchsorted(self._table_d, capped, side="right") - 1
            self._fill_rows(np.concatenate((j[j > 0], j[capped > self._table_d[j]] + 1)))
            out = np.interp(capped, self._table_d, self._table_v)
        return float(out) if out.ndim == 0 else out

    def _fill_rows(self, table_rows):
        # Rows 1 and up only: row 0 heads no block, and block b starts at row 1 + 16 b.
        want = np.zeros_like(self._filled)
        want[(table_rows - 1) // _TABLE_BLOCK] = True
        for block in np.flatnonzero(want & ~self._filled):
            # W by composite Gauss panels on [d, cap], J by dyadic pieces below
            # d with the same geometric-tail estimate the integral dichotomy uses.
            start = 1 + block * _TABLE_BLOCK
            d = self._table_d[start : start + _TABLE_BLOCK]
            w = _composite_integral(self._majorant, d, self.eps_hat)
            pieces, counts = _dyadic_pieces(self._majorant, d)
            rows = np.arange(d.size)
            last = pieces[rows, counts - 1]
            two = counts >= 2
            ratio = np.divide(last, pieces[rows, np.maximum(counts - 2, 0)],
                              out=np.zeros_like(last), where=two)
            r = np.minimum(ratio, 0.999)
            tail = np.where(two, last * r / (1.0 - r), 0.0)
            self._table_v[start : start + d.size] = self.margin * (d * w + pieces.sum(axis=1) + tail)
            self._filled[block] = True

    def _closed_value(self, d):
        coef, alpha = self._majorant.coef, self._majorant.alpha
        eh = self.eps_hat
        safe = np.where(d > 0.0, d, eh)
        if alpha == 1.0:
            w = coef * np.log(eh / safe)
        else:
            w = coef * (eh ** (1.0 - alpha) - safe ** (1.0 - alpha)) / (1.0 - alpha)
        j = coef * safe ** (2.0 - alpha) / (2.0 - alpha)
        return np.where(d > 0.0, safe * w + j, 0.0)


def build_boundary_potential(majorant, eps_hat: float, curvature_margin: float = 2.0) -> BoundaryPotential:
    """Construct the distance potential from a majorant of the density.

    Raises RegimeError when the weighted collar integral diverges, in which
    case no bounded potential with the required curvature exists.  A
    ``TabulatedMajorant`` is positive and finite everywhere, so its table
    rows are left to be computed on first read; any other callable has every
    row computed here, so one that is not positive and finite fails here.
    """
    verdict = h4_integral(majorant, eps_hat)
    if not verdict.finite:
        raise RegimeError(
            "weighted collar integral diverges; the distance potential is unbounded"
        )
    if isinstance(majorant, PowerMajorant):
        return BoundaryPotential(eps_hat, curvature_margin, True, majorant)
    ds = np.concatenate(([0.0], np.geomspace(eps_hat * 1e-9, eps_hat, 1025)))
    blocks = np.zeros(len(range(1, ds.size, _TABLE_BLOCK)), dtype=bool)
    pot = BoundaryPotential(eps_hat, curvature_margin, False, majorant, ds, np.zeros_like(ds), blocks)
    if not isinstance(majorant, TabulatedMajorant):
        pot.at_distance(ds)
    return pot


# ---------------------------------------------------------------------------
# Exterior bump
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MillerBarrier:
    """Exponential bump from the exterior sphere condition.

    Centered at the exterior point ``center`` at distance R from the anchor,
    so the bump vanishes at the anchor, is positive elsewhere in the domain,
    and its Laplacian stays below -1 on the validity region.
    """

    center: float
    radius: float
    dim: int
    amplitude: float

    @property
    def steepness(self) -> float:
        """``N / R^2``, twice the bound that makes the Laplacian negative outside the sphere."""
        return self.dim / self.radius**2

    def evaluate(self, x):
        s = np.abs(np.asarray(x, dtype=float) - self.center)
        a, r = self.steepness, self.radius
        out = self.amplitude * (math.exp(-a * r * r) - np.exp(-a * s * s))
        return float(out) if out.ndim == 0 else out


def build_miller_barrier(domain: Domain, x0: float, radius: float) -> MillerBarrier:
    """Exterior bump at the boundary point ``x0`` with exterior sphere radius R.

    The amplitude is raised until the Laplacian is below -1 over distances up
    to ``_MILLER_REGION_FACTOR * R`` from the exterior center.  ``radius`` is
    the collar cap; each check names the config keys that fix it.
    """
    at_lo = abs(x0 - domain.lo) < abs(x0 - domain.hi)
    if domain.kind == ANNULUS and at_lo and radius > domain.lo + 1e-9 * domain.width:
        raise ConfigError(
            f"the inner boundary admits exterior spheres only up to r_in = {domain.lo}, "
            f"and the collar cap is {radius}; set collar_cap <= r_in or anchor = right"
        )
    n = domain.dim
    a = n / radius**2

    s = np.linspace(radius, _MILLER_REGION_FACTOR * radius, 4097)
    bracket = (4.0 * a * a * s * s - 2.0 * a * n) * np.exp(-a * s * s)
    gmin = float(np.min(bracket))
    if not gmin >= np.finfo(float).tiny:  # positive, but e^(-4N) underflows
        raise ConfigError(
            f"the exterior bump underflows in dim = {n}; lower dim or take a potential case"
        )
    center = x0 - radius if at_lo else x0 + radius
    return MillerBarrier(float(center), float(radius), n, _MILLER_SAFETY / gmin)


# ---------------------------------------------------------------------------
# Constant selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierConstants:
    case: str
    side: str
    M: float
    lam: float | None
    beta: float | None
    safety: float

    def as_dict(self) -> dict:
        """The fields, with ``lam`` under its artifact key ``lambda``."""
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        return out


def select_barrier_constants(
    case: str, side: str, flux: Nonlinearity, *, inf_rho: float, sup_rho: float, delta: float,
    phi_scale: float, eta_cap: float, bound_K: float, dim: int, pot_edge: float,
    safety: float = 1.05,
) -> BarrierConstants:
    """Smallest constants satisfying the chosen case's inequalities, with margin.

    ``phi_scale`` is the boundary-data scale entering the rules: the sup norm
    for time-localized barriers, the anchor magnitude for stationary ones.
    ``pot_edge`` is the spatial profile's value at the lateral edge of the
    localization ball, which the rules of ``miller-timed`` and of the upper
    ``potential-stationary`` barrier divide by.

    Time-localized cases bound the time derivative through the derivative
    floor ``flux.alpha0``, so they demand a nondegenerate flux; a degenerate
    flux takes a stationary case (``potential-stationary`` or
    ``miller-stationary``).
    """
    timed = case.endswith("timed")
    potential_case = case.startswith("potential")
    alpha0 = flux.alpha0
    if timed and alpha0 <= 0.0:
        raise RegimeError(
            "time-localized barriers divide by the flux derivative floor; "
            "with a degenerate flux use barrier_case = potential-stationary or "
            "miller-stationary, or a nondegenerate flux"
        )
    if potential_case and not (inf_rho > 0.0):
        raise RegimeError("distance-potential barriers require a density bounded below")
    if not potential_case and not np.isfinite(sup_rho):
        raise RegimeError("exterior-bump barriers require a bounded density")

    d2 = delta**2
    K = bound_K
    if side == "lower":
        top = phi_scale + eta_cap if timed else phi_scale
        num = float(flux.g(top) - flux.g(-K))
    else:
        num = float(flux.g(K) - flux.g(-phi_scale))
    num = max(num, 0.0)

    def need_edge() -> float:
        if pot_edge <= 0.0:
            raise ConfigError(
                f"case {case}/{side} divides by the profile value {pot_edge} at the edge "
                "of the localization ball, which must be positive"
            )
        return pot_edge

    lam: float | None = None
    beta: float | None = None
    if case == "potential-timed":
        beta = lam = num / d2
        M = 2.0 * beta * dim / inf_rho + 2.0 * lam * delta / alpha0
    elif case == "miller-timed":
        lam = num / d2
        M = max(2.0 * lam * delta * sup_rho / alpha0, num / need_edge())
    elif case == "potential-stationary":
        if side == "lower":
            beta = num / d2
            M = 2.0 * beta * dim / inf_rho
        else:
            M = num / need_edge()
    else:  # miller-stationary
        beta = num / d2
        M = 2.0 * beta * dim

    return BarrierConstants(
        case=case,
        side=side,
        M=safety * M,
        lam=None if lam is None else safety * lam,
        beta=None if beta is None else safety * beta,
        safety=safety,
    )


def select_localization_radius(
    case: str,
    phi: BoundaryData,
    flux: Nonlinearity,
    anchor: tuple[float, float | None],
    sigma: float,
    eta: float,
    cap: float,
    *,
    initial: InitialData | None = None,
    domain: Domain | None = None,
) -> float:
    """Largest localization radius keeping the data oscillation below sigma.

    Time-localized barriers control the oscillation of the lifted boundary
    flux over the time window; stationary ones control the deviation of the
    lifted initial data from the anchor value over the spatial ball, and
    need ``initial`` and ``domain``.  Found by bisection on sampled data.
    """
    x0, t0 = anchor
    if case.endswith("timed"):
        target = float(flux.g(phi.phi(x0, t0) + eta))

        def deviation(delta: float) -> float:
            ts = np.linspace(max(0.0, t0 - delta), min(phi.horizon, t0 + delta), _RADIUS_SAMPLES)
            vals = np.asarray(flux.g(phi.phi(x0, ts) + eta))
            return float(np.max(np.abs(vals - target)))

    else:
        target = float(flux.g(phi.phi(x0, 0.0) + eta))

        def deviation(delta: float) -> float:
            xs = domain.into(x0, np.linspace(0.0, delta, _RADIUS_SAMPLES))
            vals = np.asarray(flux.g(initial.u0(xs) + eta))
            return float(np.max(np.abs(vals - target)))

    if deviation(cap) <= sigma:
        return cap
    lo, hi = 1e-6 * cap, cap
    if deviation(lo) > sigma:
        raise ModelError(
            "data oscillates above sigma at every radius; increase sigma or smooth the data"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if deviation(mid) <= sigma:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Barrier assembly and discrete verification
# ---------------------------------------------------------------------------


@dataclass
class Barrier:
    """One sub- or supersolution barrier with its validity region."""

    domain: Domain
    anchor_x: float
    anchor_t: float | None
    delta: float
    sigma: float
    constants: BarrierConstants
    potential: BoundaryPotential | MillerBarrier
    flux: Nonlinearity
    base_level: float
    t_window: tuple[float, float]

    @property
    def case(self) -> str:
        return self.constants.case

    @property
    def side(self) -> str:
        return self.constants.side

    def argument(self, x, t: float | None = None):
        """``G`` of the barrier value at nodes ``x`` and time ``t`` (ignored if stationary)."""
        c = self.constants
        if isinstance(self.potential, MillerBarrier):
            profile = self.potential.evaluate(x)
        else:
            profile = self.potential.at_distance(self.domain.distance(x))
        s = -1.0 if self.side == "lower" else 1.0
        arg = self.base_level + s * (self.sigma + c.M * profile)
        if c.lam is not None:
            arg = arg + s * c.lam * (t - self.anchor_t) ** 2
        if c.beta is not None:
            arg = arg + s * c.beta * (np.asarray(x, float) - self.anchor_x) ** 2
        return arg

    def evaluate(self, x, t: float | None = None):
        """Barrier value at nodes ``x`` and time ``t`` (ignored if stationary)."""
        return self.flux.g_inv(self.argument(x, t))

    def region_node_mask(self, grid: Grid) -> np.ndarray:
        near = np.abs(grid.nodes - self.anchor_x) <= self.delta * (1.0 + 1e-12)
        return near & (grid.steps_from_boundary > 0)


def build_barriers(
    case: str, sides: tuple[str, ...], grid: Grid, rho: DensityModel, flux: Nonlinearity,
    phi: BoundaryData, initial: InitialData, *, anchor: str, t0: float, sigma: float,
    eta: float, eta_cap: float, safety: float, curvature_margin: float, dt: float,
) -> list[Barrier]:
    """One barrier of ``case`` per side, its region checked on ``grid`` at time step ``dt``.

    ``anchor`` is ``left`` or ``right``, the end of the domain the barriers
    sit at; a ball's one boundary is its outer sphere.  ``t0`` is the anchor
    time of a time-localized case, which a stationary case ignores.  Raises a
    ConfigError when the config admits no such barrier on this grid or flux table.
    """
    domain = grid.domain
    x0 = domain.lo if anchor == "left" and domain.kind != BALL else domain.hi
    timed = case.endswith("timed")
    t0 = t0 if timed else None
    cap = min(domain.collar_cap, 0.49 * domain.width, t0 if timed else np.inf)
    delta = select_localization_radius(
        case, phi, flux, (x0, t0), sigma, eta, cap, initial=initial, domain=domain
    )
    if case.startswith("potential"):
        potential = build_boundary_potential(rho.majorant, domain.collar_cap, curvature_margin)
        pot_edge = float(potential.at_distance(delta))
    else:
        potential = build_miller_barrier(domain, x0, domain.collar_cap)
        pot_edge = float(potential.evaluate(domain.into(x0, delta)))

    phi_sup = phi.sup_norm(domain)
    inputs = dict(
        inf_rho=rho.inf_on(grid), sup_rho=rho.sup_on(grid) if rho.is_bounded else np.inf,
        delta=delta, phi_scale=phi_sup if timed else abs(float(phi.phi(x0, 0.0))),
        eta_cap=eta_cap, bound_K=global_bound(initial.sup_norm(grid), phi_sup, eta_cap),
        dim=domain.dim, pot_edge=pot_edge, safety=safety,
    )
    K, (lo, hi) = inputs["bound_K"], flux.g_inv(flux.g_range)
    if not lo <= -K <= K <= hi:  # the constants read G on [-K, K]; past a table's knots it is flat
        raise ConfigError(f"flux table covers [{lo:.6g}, {hi:.6g}], not [-K, K] for K = {K:.6g}")
    built = []
    for side in sides:
        barrier = Barrier(
            domain=domain, anchor_x=float(x0), anchor_t=t0, delta=float(delta),
            sigma=float(sigma), constants=select_barrier_constants(case, side, flux, **inputs),
            potential=potential, flux=flux,
            base_level=float(flux.g(phi.phi(x0, t0 if timed else 0.0) + eta)),
            t_window=(t0 - delta, min(t0 + delta, phi.horizon)) if timed else (0.0, phi.horizon),
        )
        idx = check_barrier_region(barrier, grid, dt)
        if np.all(np.isfinite(flux.g_range)):  # a table flux: the residual check inverts G on
            # the region and two nodes either side, and the time term peaks at a window end
            arg = barrier.argument(grid.nodes[max(idx[0] - 2, 0) : idx[-1] + 3],
                                   np.array(barrier.t_window)[:, None])
            try:
                flux.g_inv(arg)
            except RangeError:
                raise ConfigError(f"the {side} barrier takes G on [{np.min(arg):.6g}, "
                                  f"{np.max(arg):.6g}], past the flux table's values "
                                  f"[{flux.g_range[0]:.6g}, {flux.g_range[1]:.6g}]") from None
        built.append(barrier)
    return built


@dataclass
class ResidualReport:
    """One-sided discrete residual check of a barrier over its region."""

    side: str
    case: str
    verdict: bool
    max_residual: float
    min_residual: float
    tolerance: float
    c_res: float
    h: float
    dt: float
    n_nodes: int
    n_times: int
    worst_x: float
    worst_t: float | None

    def as_dict(self) -> dict:
        """The fields, with the verdict written as ``"pass"`` or ``"fail"``."""
        return {**asdict(self), "verdict": "pass" if self.verdict else "fail"}


def check_barrier_region(barrier: Barrier, grid: Grid, dt: float) -> np.ndarray:
    """Interior grid nodes of the barrier's region; ConfigError if the check cannot resolve it.

    The residual check needs at least 10 such nodes and, for a time-localized
    barrier, a time window wider than its ``±2 dt`` stencil.
    """
    idx = np.nonzero(barrier.region_node_mask(grid))[0]
    idx = idx[(idx >= 1) & (idx <= grid.n - 2)]
    if idx.size < 10:
        raise ConfigError(
            f"validity region covers only {idx.size} grid nodes; need at least 10"
        )
    t_lo, t_hi = barrier.t_window
    if barrier.anchor_t is not None and t_hi - 2 * dt <= t_lo + 2 * dt:
        raise ConfigError("time window too narrow for the requested time step")
    return idx


def verify_barrier_residual(
    barrier: Barrier,
    grid: Grid,
    rho,
    dt: float,
) -> ResidualReport:
    """Evaluate the discrete evolution residual of a barrier over its region.

    The residual is ``rho * dw/dt - Lap_h[G(w)]`` with centered differences
    in space and time.  A lower barrier passes when the maximum stays below a
    tolerance proportional to ``h + dt`` (an upper barrier mirrors this); the
    proportionality constant is estimated from the barrier's own higher
    differences so the check accepts discretization error on the safe side
    only.  Failures are verdicts, not errors.

    The barrier is evaluated once, on the region nodes and two nodes either
    side, at every sample time and its ``±dt`` and ``±2 dt`` neighbours.  The
    worst point is the first extreme residual, earliest time first.
    """
    idx = check_barrier_region(barrier, grid, dt)
    a, b = max(int(idx[0]) - 2, 0), min(int(idx[-1]) + 2, grid.n - 1)
    op = assemble_diffusion(grid).window(a, b)
    xs = grid.nodes[a : b + 1]
    j = idx - a

    timed = barrier.anchor_t is not None
    if timed:
        t_lo, t_hi = barrier.t_window
        lo, hi = t_lo + 2 * dt, t_hi - 2 * dt
        n_t = min(_TIME_SAMPLES, max(10, int((hi - lo) / dt)))
        ts = np.linspace(lo, hi, n_t)
        times = np.stack((ts - 2 * dt, ts - dt, ts, ts + dt, ts + 2 * dt))
        w = np.asarray(barrier.evaluate(xs, times[..., None]))
        w_now = w[2]
        wj = w[..., j]
        dwdt = (wj[3] - wj[1]) / (2.0 * dt)
        d3t = (wj[4] - 2 * wj[3] + 2 * wj[1] - wj[0]) / (2.0 * dt**3)
        d3t_scale = float(np.max(np.abs(d3t)))
    else:
        ts = np.array([0.0])
        w_now = np.asarray(barrier.evaluate(xs))[None, :]
        dwdt = 0.0
        d3t_scale = 0.0

    rho_vals = np.asarray(rho.rho(grid.nodes[idx]), dtype=float)
    gw = np.asarray(barrier.flux.g(w_now))
    res = rho_vals * dwdt - op.apply(gw)[:, j]

    k = j[(idx >= 2) & (idx <= grid.n - 3)]
    d4_scale = 0.0
    if k.size:
        d4 = (gw[:, k - 2] - 4 * gw[:, k - 1] + 6 * gw[:, k]
              - 4 * gw[:, k + 1] + gw[:, k + 2]) / grid.h**4
        d4_scale = float(np.max(np.abs(d4)))

    i_hi, i_lo = np.argmax(res), np.argmin(res)
    max_res, min_res = float(res.flat[i_hi]), float(res.flat[i_lo])
    t_w, n_w = np.unravel_index(i_hi if barrier.side == "lower" else i_lo, res.shape)

    est_space = grid.h**2 * d4_scale / 12.0
    est_time = float(np.max(rho_vals)) * dt**2 * d3t_scale / 6.0
    c_res = 1.0 + (est_space + est_time) / (grid.h + dt)
    tol = c_res * (grid.h + dt)
    verdict = max_res <= tol if barrier.side == "lower" else min_res >= -tol
    return ResidualReport(
        side=barrier.side,
        case=barrier.case,
        verdict=bool(verdict),
        max_residual=max_res,
        min_residual=min_res,
        tolerance=tol,
        c_res=c_res,
        h=grid.h,
        dt=dt,
        n_nodes=int(idx.size),
        n_times=int(ts.size),
        worst_x=float(grid.nodes[idx[n_w]]),
        worst_t=float(ts[t_w]) if timed else None,
    )
