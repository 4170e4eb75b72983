"""Sub/supersolution barrier families with explicit constant rules.

Two spatial profiles are available.  The distance potential ``V`` is the
double integral of the density majorant, valid when the weighted collar
integral is finite and the density has a positive infimum.  The exterior
bump ``h`` (the classical Miller construction) needs only a bounded density
and an exterior sphere, which interval and radial geometry provide exactly.

A barrier combines one profile with an anchor value of the boundary data, a
gap ``sigma``, and quadratic localization penalties; the constants are the
smallest ones satisfying the case's inequalities, times a safety factor so
that discrete verification passes at finite resolution.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import CASES
from .errors import ConfigError, GeometryError, ModelError, RegimeError
from .geometry import ANNULUS, Domain, Grid
from .models import (
    BoundaryData,
    InitialData,
    Nonlinearity,
    PowerMajorant,
    _GAUSS_W,
    _GAUSS_X,
    _dyadic_pieces,
    h4_integral,
)
from .operators import assemble_diffusion

SIDES = ("lower", "upper")


#: Rows of the potential table integrated per batch; bounds the temporaries.
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
    """

    eps_hat: float
    margin: float
    closed_form: bool
    _power: PowerMajorant | None
    _table_d: np.ndarray | None
    _table_v: np.ndarray | None

    def at_distance(self, d):
        d = np.clip(np.asarray(d, dtype=float), 0.0, None)
        capped = np.minimum(d, self.eps_hat)
        if self.closed_form:
            out = self.margin * self._closed_value(capped)
        else:
            out = np.interp(capped, self._table_d, self._table_v)
        return float(out) if out.ndim == 0 else out

    def _closed_value(self, d):
        coef, alpha = self._power.coef, self._power.alpha
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
    case no bounded potential with the required curvature exists.
    """
    if curvature_margin < 1.0:
        raise ConfigError(f"curvature margin must be >= 1, got {curvature_margin}")
    verdict = h4_integral(majorant, eps_hat)
    if not verdict.finite:
        raise RegimeError(
            "weighted collar integral diverges; the distance potential is unbounded"
        )
    if isinstance(majorant, PowerMajorant):
        return BoundaryPotential(
            eps_hat=eps_hat,
            margin=curvature_margin,
            closed_form=True,
            _power=majorant,
            _table_d=None,
            _table_v=None,
        )

    # Tabulate d * W(d) + J(d) on a log grid, a block of rows per pass: W by
    # composite Gauss panels on [d, cap], J by dyadic pieces below d with the
    # same geometric-tail estimate the integral dichotomy uses.
    ds = np.concatenate(([0.0], np.geomspace(eps_hat * 1e-9, eps_hat, 1025)))
    vals = np.zeros_like(ds)
    for start in range(1, ds.size, _TABLE_BLOCK):
        d = ds[start : start + _TABLE_BLOCK]
        w = _composite_integral(majorant, d, eps_hat)
        pieces, counts = _dyadic_pieces(majorant, d)
        rows = np.arange(d.size)
        last = pieces[rows, counts - 1]
        two = counts >= 2
        ratio = np.divide(last, pieces[rows, np.maximum(counts - 2, 0)],
                          out=np.zeros_like(last), where=two)
        r = np.minimum(ratio, 0.999)
        tail = np.where(two, last * r / (1.0 - r), 0.0)
        vals[start : start + d.size] = curvature_margin * (d * w + pieces.sum(axis=1) + tail)
    return BoundaryPotential(
        eps_hat=eps_hat,
        margin=curvature_margin,
        closed_form=False,
        _power=None,
        _table_d=ds,
        _table_v=vals,
    )


# ---------------------------------------------------------------------------
# Exterior bump
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MillerBarrier:
    """Exponential bump from the exterior sphere condition.

    Centered at the exterior point ``center`` with ``|anchor - center| = R``,
    so the bump vanishes at the anchor, is positive elsewhere in the domain,
    and its Laplacian stays below -1 on the validity region.
    """

    domain: Domain
    anchor: float
    center: float
    radius: float
    steepness: float
    amplitude: float
    inward_sign: float
    region_reach: float

    def evaluate(self, x):
        s = np.abs(np.asarray(x, dtype=float) - self.center)
        a, r = self.steepness, self.radius
        out = self.amplitude * (math.exp(-a * r * r) - np.exp(-a * s * s))
        return float(out) if out.ndim == 0 else out

    def at_offset(self, offset):
        """Bump value at the in-domain point ``offset`` away from the anchor."""
        return self.evaluate(self.anchor + self.inward_sign * np.asarray(offset, dtype=float))

    def profile_laplacian(self, s):
        """Exact Laplacian of the bump at distance ``s`` from the center."""
        a, n = self.steepness, self.domain.dim
        s = np.asarray(s, dtype=float)
        out = self.amplitude * (2.0 * a * n - 4.0 * a * a * s * s) * np.exp(-a * s * s)
        return float(out) if out.ndim == 0 else out


def build_miller_barrier(
    domain: Domain,
    x0: float,
    radius: float,
    *,
    steepness: float | None = None,
) -> MillerBarrier:
    """Exterior bump at boundary point ``x0`` with exterior sphere radius R.

    The steepness must exceed ``N / (2 R^2)`` for the Laplacian to be
    negative outside the sphere; the default is twice that bound.  The
    amplitude is raised until the Laplacian is below -1 over distances up to
    ``_MILLER_REGION_FACTOR * R`` from the exterior center.
    """
    pts = domain.boundary_points()
    tol = 1e-9 * domain.width
    if not any(abs(x0 - b) <= tol for b in pts):
        raise GeometryError(f"{x0} is not a boundary point of the domain")
    if radius <= 0.0:
        raise GeometryError("exterior sphere radius must be positive")
    at_lo = abs(x0 - domain.lo) <= tol
    if domain.kind == ANNULUS and at_lo and radius > domain.lo + tol:
        raise GeometryError(
            f"inner boundary admits exterior spheres only up to radius {domain.lo}"
        )
    n = domain.dim
    a = n / radius**2 if steepness is None else float(steepness)
    if a <= n / (2.0 * radius**2) * (1.0 + 1e-9):
        raise GeometryError(
            f"steepness {a} must exceed N/(2 R^2) = {n / (2 * radius ** 2)}"
        )
    inward = 1.0 if at_lo else -1.0
    center = x0 - inward * radius

    s = np.linspace(radius, _MILLER_REGION_FACTOR * radius, 4097)
    bracket = (4.0 * a * a * s * s - 2.0 * a * n) * np.exp(-a * s * s)
    gmin = float(np.min(bracket))
    if gmin <= 0.0:
        raise GeometryError("Laplacian sign requirement fails on the region")
    return MillerBarrier(
        domain=domain,
        anchor=float(x0),
        center=float(center),
        radius=float(radius),
        steepness=a,
        amplitude=_MILLER_SAFETY / gmin,
        inward_sign=inward,
        region_reach=_MILLER_REGION_FACTOR * radius,
    )


# ---------------------------------------------------------------------------
# Constant selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierParams:
    """Inputs to the constant rules of one barrier case.

    ``phi_scale`` is the boundary-data scale entering the rules: the sup norm
    for time-localized barriers, the anchor magnitude for stationary ones.
    ``pot_edge`` is the spatial profile's value at the lateral edge of the
    localization ball (needed where the lateral bound leans on the profile).
    """

    inf_rho: float
    sup_rho: float
    alpha0: float
    delta: float
    phi_scale: float
    eta_cap: float
    bound_K: float
    dim: int
    pot_edge: float | None = None


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


def _validate_case_side(case: str, side: str):
    if case not in CASES:
        raise ConfigError(f"unknown barrier case {case!r}; choose from {CASES}")
    if side not in SIDES:
        raise ConfigError(f"unknown barrier side {side!r}; choose from {SIDES}")


def select_barrier_constants(
    case: str,
    side: str,
    flux: Nonlinearity,
    params: BarrierParams,
    safety: float = 1.05,
) -> BarrierConstants:
    """Smallest constants satisfying the chosen case's inequalities, with margin.

    Time-localized cases bound the time derivative through the derivative
    floor of the flux, so they demand a nondegenerate flux; a degenerate flux
    takes a stationary case (``potential-stationary`` or ``miller-stationary``).
    """
    _validate_case_side(case, side)
    timed = case.endswith("timed")
    potential_case = case.startswith("potential")
    if timed and params.alpha0 <= 0.0:
        raise RegimeError(
            "time-localized barriers divide by the flux derivative floor; "
            "with a degenerate flux use barrier_case = potential-stationary or "
            "miller-stationary, or a nondegenerate flux"
        )
    if potential_case and not (params.inf_rho > 0.0):
        raise RegimeError("distance-potential barriers require a density bounded below")
    if not potential_case and not np.isfinite(params.sup_rho):
        raise RegimeError("exterior-bump barriers require a bounded density")

    d2 = params.delta**2
    K = params.bound_K
    if side == "lower":
        top = params.phi_scale + params.eta_cap if timed else params.phi_scale
        num = float(flux.g(top) - flux.g(-K))
    else:
        num = float(flux.g(K) - flux.g(-params.phi_scale))
    num = max(num, 0.0)

    def need_edge() -> float:
        if params.pot_edge is None or params.pot_edge <= 0.0:
            raise ConfigError(f"case {case}/{side} needs the profile value at the ball edge")
        return params.pot_edge

    lam: float | None = None
    beta: float | None = None
    if case == "potential-timed":
        beta = lam = num / d2
        M = 2.0 * beta * params.dim / params.inf_rho + 2.0 * lam * params.delta / params.alpha0
    elif case == "miller-timed":
        lam = num / d2
        M = max(
            2.0 * lam * params.delta * params.sup_rho / params.alpha0,
            num / need_edge(),
        )
    elif case == "potential-stationary":
        if side == "lower":
            beta = num / d2
            M = 2.0 * beta * params.dim / params.inf_rho
        else:
            M = num / need_edge()
    else:  # miller-stationary
        beta = num / d2
        M = 2.0 * beta * params.dim

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
    lifted initial data from the anchor value over the spatial ball.  Found
    by bisection on sampled data.
    """
    _validate_case_side(case, "lower")
    x0, t0 = anchor
    if sigma <= 0.0:
        raise ConfigError("sigma must be positive")

    if case.endswith("timed"):
        if t0 is None:
            raise ConfigError("time-localized barriers need an anchor time")
        target = float(flux.g(phi.phi(x0, t0) + eta))

        def deviation(delta: float) -> float:
            ts = np.linspace(max(0.0, t0 - delta), min(phi.horizon, t0 + delta), _RADIUS_SAMPLES)
            vals = np.asarray(flux.g(phi.phi(x0, ts) + eta))
            return float(np.max(np.abs(vals - target)))

    else:
        if initial is None or domain is None:
            raise ConfigError("stationary localization needs the initial data and domain")
        target = float(flux.g(phi.phi(x0, 0.0) + eta))
        inward = 1.0 if abs(x0 - domain.lo) < abs(x0 - domain.hi) else -1.0

        def deviation(delta: float) -> float:
            xs = x0 + inward * np.linspace(0.0, delta, _RADIUS_SAMPLES)
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

    case: str
    side: str
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
    def sign(self) -> float:
        return -1.0 if self.side == "lower" else 1.0

    def spatial_profile(self, x):
        if isinstance(self.potential, MillerBarrier):
            return self.potential.evaluate(x)
        return self.potential.at_distance(self.domain.distance(x))

    def flux_argument(self, x, t: float | None):
        s = self.sign
        arg = self.base_level + s * (self.sigma + self.constants.M * self.spatial_profile(x))
        if self.constants.lam is not None:
            if t is None:
                raise ConfigError("time-localized barrier evaluated without a time")
            arg = arg + s * self.constants.lam * (t - self.anchor_t) ** 2
        if self.constants.beta is not None:
            arg = arg + s * self.constants.beta * (np.asarray(x, float) - self.anchor_x) ** 2
        return arg

    def evaluate(self, x, t: float | None = None):
        """Barrier value at nodes ``x`` and time ``t`` (ignored if stationary)."""
        return self.flux.g_inv(self.flux_argument(x, t))

    def region_node_mask(self, grid: Grid) -> np.ndarray:
        near = np.abs(grid.nodes - self.anchor_x) <= self.delta * (1.0 + 1e-12)
        return near & (grid.steps_from_boundary > 0)


def build_barrier(
    case: str,
    side: str,
    domain: Domain,
    anchor: tuple[float, float | None],
    sigma: float,
    eta: float,
    constants: BarrierConstants,
    potential: BoundaryPotential | MillerBarrier,
    flux: Nonlinearity,
    phi: BoundaryData,
    delta: float,
) -> Barrier:
    """Assemble the barrier evaluator for one case, side, and anchor."""
    _validate_case_side(case, side)
    if (case, side) != (constants.case, constants.side):
        raise ConfigError("constants were selected for a different case or side")
    x0, t0 = anchor
    tol = 1e-9 * domain.width
    if not any(abs(x0 - b) <= tol for b in domain.boundary_points()):
        raise ConfigError(f"anchor {x0} must be a boundary point")
    if isinstance(potential, MillerBarrier) and delta > potential.radius * (1.0 + 1e-12):
        raise ConfigError("localization radius exceeds the exterior-bump validity radius")

    timed = case.endswith("timed")
    horizon = phi.horizon
    if timed:
        if t0 is None or not (0.0 < t0 <= horizon):
            raise ConfigError(f"anchor time must lie in (0, {horizon}]")
        window = (t0 - delta, min(t0 + delta, horizon))
        base = float(flux.g(phi.phi(x0, t0) + eta))
    else:
        t0 = None
        window = (0.0, horizon)
        base = float(flux.g(phi.phi(x0, 0.0) + eta))

    return Barrier(
        case=case,
        side=side,
        domain=domain,
        anchor_x=float(x0),
        anchor_t=t0,
        delta=float(delta),
        sigma=float(sigma),
        constants=constants,
        potential=potential,
        flux=flux,
        base_level=base,
        t_window=window,
    )


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
    flux: Nonlinearity,
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
    gw = np.asarray(flux.g(w_now))
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
