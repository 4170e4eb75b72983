"""Duality, uniqueness, boundary-attainment, and ordering diagnostics.

The uniqueness machinery tests pairs of trajectories against the potential
of a fixed interior source: the potential solves the discrete Poisson
problem with zero trace on the interface, its boundary flux is controlled
exactly by the source mass (the conservative stencil telescopes), and the
weighted functional of two convergent approximations of the same problem
must vanish within quadrature plus solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, HypothesisError, ShapeError, SourceError
from .geometry import CORE, Grid, NodeClassification, collar_decomposition
from .models import BoundaryData, Nonlinearity
from .operators import assemble_diffusion
from .solver import SpaceTimeField, _identity_rows
from .tridiagonal import solve_tridiagonal


# ---------------------------------------------------------------------------
# Duality potential
# ---------------------------------------------------------------------------


@dataclass
class DualityPotential:
    """Poisson potential of an interior source, zero on the interface."""

    grid: Grid
    eps: float
    psi: np.ndarray
    normal_derivatives: np.ndarray
    flux_sum: float
    source_integral: float

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "flux_sum": self.flux_sum,
            "source_integral": self.source_integral,
            "flux_defect": abs(self.flux_sum - self.source_integral),
            "min_interior_psi": float(np.nanmin(self.psi[self.psi > 0]))
            if np.any(self.psi > 0)
            else 0.0,
            "normal_derivatives": [float(v) for v in self.normal_derivatives],
        }


def check_duality_source(grid: Grid, eps: float, source) -> NodeClassification:
    """The collar classification at ``eps``; SourceError unless ``source`` fits it."""
    f = np.asarray(source, dtype=float)
    if f.shape != (grid.n,):
        raise SourceError(f"source shape {f.shape} does not match the grid ({grid.n},)")
    if np.any(f < 0.0):
        raise SourceError("source must be nonnegative")
    if not np.any(f > 0.0):
        raise SourceError("source must not vanish identically")
    cls = collar_decomposition(grid, eps)
    inside = np.zeros(grid.n, dtype=bool)
    inside[cls.probes()] = True
    if not np.all(inside[f > 0.0]):
        raise SourceError("source support must lie strictly inside the core at this collar level")
    return cls


def solve_duality_potential(grid: Grid, eps: float, source: np.ndarray) -> DualityPotential:
    """Solve the discrete Poisson problem driven by a nonnegative source.

    The source must be nonnegative, not identically zero, and supported
    strictly inside the core at this collar level.  One-sided normal
    derivatives are reported at the interface nodes; the flux integral uses
    the conservative face fluxes, which balance the source mass exactly.
    """
    f = np.asarray(source, dtype=float)
    cls = check_duality_source(grid, eps, f)
    m0, m1 = cls.window
    op = assemble_diffusion(grid)
    bands = tuple(band[m0 : m1 + 1].copy() for band in (op.lo, op.di, op.up))
    rhs = -f[m0 : m1 + 1]
    _identity_rows(bands, rhs, cls.interface - m0)
    psi = np.full(grid.n, np.nan)
    psi[m0 : m1 + 1] = solve_tridiagonal(*bands, rhs)

    h = grid.h
    normal_derivs = []
    flux_sum = 0.0
    for i, neighbor in zip(cls.interface, cls.inner_neighbours):
        normal_derivs.append(-(psi[neighbor] - psi[i]) / h)
        flux_sum += op.face_areas[min(i, neighbor)] * abs(psi[neighbor] - psi[i]) / h

    source_integral = float(np.sum(f * op.volumes))
    return DualityPotential(
        grid=grid,
        eps=eps,
        psi=psi,
        normal_derivatives=np.array(normal_derivs),
        flux_sum=float(flux_sum),
        source_integral=source_integral,
    )


def unit_bump_source(grid: Grid, center: float | None = None, width: float | None = None) -> np.ndarray:
    """Smooth compactly supported nonnegative source of unit discrete mass."""
    dom = grid.domain
    c = 0.5 * (dom.lo + dom.hi) if center is None else float(center)
    w = 0.25 * dom.width if width is None else float(width)
    x = grid.nodes
    s = np.clip(np.abs(x - c) / w, 0.0, 1.0)
    f = np.where(s < 1.0, np.cos(0.5 * np.pi * s) ** 2, 0.0)
    op = assemble_diffusion(grid)
    mass = float(np.sum(f * op.volumes))
    if mass <= 0.0:
        raise SourceError("bump has no mass on this grid; widen it")
    return f / mass


# ---------------------------------------------------------------------------
# Uniqueness functional
# ---------------------------------------------------------------------------


def uniqueness_functional(
    u1: SpaceTimeField,
    u2: SpaceTimeField,
    source: np.ndarray,
    flux: Nonlinearity,
) -> float:
    """Space-time integral of ``[G(u1) - G(u2)] * source`` by trapezoid rule.

    For two convergent approximations of the same problem the value must
    vanish within quadrature plus solver tolerance; a persistent gap is the
    uniqueness alarm.
    """
    if not u1.same_grid(u2):
        raise ShapeError("fields live on different grids")
    if not u1.times_match(u2):
        raise ShapeError("fields store different time stamps")
    f = np.asarray(source, dtype=float)
    if f.shape != (u1.grid.n,):
        raise ShapeError("source shape does not match the grid")
    support = f > 0.0
    if np.any(np.isnan(u1.values[support, :])) or np.any(np.isnan(u2.values[support, :])):
        raise ShapeError("source support leaves a field's computational window")

    op = assemble_diffusion(u1.grid)
    gap = np.asarray(flux.g(u1.values[support, :])) - np.asarray(flux.g(u2.values[support, :]))
    space = (f[support] * op.volumes[support]) @ gap
    return float(np.trapezoid(space, u1.times))


# ---------------------------------------------------------------------------
# Boundary attainment
# ---------------------------------------------------------------------------


@dataclass
class AttainmentReport:
    """Per-level sup of the gap to the boundary data near the interface."""

    eps_levels: list
    sups: list
    tau: float
    threshold: float
    attained: bool
    probe_offsets: list = field(default_factory=list)

    def csv_rows(self):
        return list(zip(self.eps_levels, self.sups))


def check_attainment_levels(eps_list) -> None:
    """ConfigError unless there are at least 4 collar levels, strictly decreasing."""
    if len(eps_list) < 4:
        raise ConfigError(f"need at least 4 collar levels, got {len(eps_list)}")
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise ConfigError("collar levels must be strictly decreasing")


def boundary_attainment(
    fields: list[SpaceTimeField],
    phi: BoundaryData,
    tau: float,
    *,
    threshold: float = 0.05,
) -> AttainmentReport:
    """Measure how each collar level tracks the boundary data late in time.

    For each field the gap ``|u - phi|`` is measured one node inside the
    strongly imposed interface row (the row itself trivially equals the
    lifted data) over stored times in ``[tau, horizon]``.  The verdict is
    "attained" when the sups decay monotonically across levels and the
    finest one is below the threshold.  ``probe_offsets`` holds each level's
    largest probe distance from the boundary.
    """
    eps_list = [f.eps for f in fields]
    check_attainment_levels(eps_list)
    horizon = float(min(f.times[-1] for f in fields))
    if not (0.0 < tau < horizon):
        raise ConfigError(f"tau must lie in (0, {horizon})")

    sups = []
    offsets = []
    for f in fields:
        grid = f.grid
        cls = collar_decomposition(grid, f.eps)
        rows = cls.interface
        if rows.size == 0:
            raise ShapeError(f"collar level {f.eps} has no interface rows to probe")
        tmask = f.times >= tau - 1e-12
        level_sup = 0.0
        level_offset = 0.0
        for i, probe in zip(rows, cls.inner_neighbours):
            b = grid.domain.nearest_boundary_point(grid.nodes[i])
            target = np.asarray(phi.phi(b, f.times[tmask]))
            gap = np.abs(f.values[probe, tmask] - target)
            level_sup = max(level_sup, float(np.max(gap)))
            level_offset = max(level_offset, float(grid.distances[probe]))
        sups.append(level_sup)
        offsets.append(level_offset)

    monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(sups[:-1], sups[1:]))
    attained = monotone and sups[-1] < threshold
    return AttainmentReport(
        eps_levels=eps_list,
        sups=sups,
        tau=tau,
        threshold=threshold,
        attained=attained,
        probe_offsets=offsets,
    )


# ---------------------------------------------------------------------------
# Ordering checks
# ---------------------------------------------------------------------------


@dataclass
class OrderingVerdict:
    passed: bool
    worst_gap: float
    worst_x: float | None
    worst_t: float | None
    detail: str = ""


def comparison_check(
    u_low: SpaceTimeField,
    u_high: SpaceTimeField,
    *,
    tau: float,
    eps_range: list[float],
    tol: float = 1e-8,
) -> OrderingVerdict:
    """Discrete comparison: ordered interface data must order the core values.

    First certifies the hypothesis (ordering at the interface nodes of every
    level in ``eps_range`` for times past tau); a violated hypothesis raises
    HypothesisError rather than returning a failed verdict.
    """
    if not (u_low.same_grid(u_high) and u_low.times_match(u_high)):
        raise ShapeError("comparison requires a shared grid and time stamps")
    grid = u_low.grid
    tmask = u_low.times > tau
    if not np.any(tmask):
        raise ConfigError("no stored times past tau")
    for e in eps_range:
        rows = collar_decomposition(grid, e).interface
        gap = u_low.values[rows][:, tmask] - u_high.values[rows][:, tmask]
        if np.nanmax(gap) > tol:
            raise HypothesisError(
                f"interface ordering fails at collar level {e}: gap {np.nanmax(gap):.3e}"
            )

    core = collar_decomposition(grid, max(eps_range)).labels == CORE
    both = core & u_low.mask & u_high.mask
    gap = u_low.values[both, :] - u_high.values[both, :]
    worst = float(np.nanmax(gap))
    if worst <= tol:
        return OrderingVerdict(True, worst, None, None, "core ordering holds")
    flat = np.nanargmax(gap)
    i, j = np.unravel_index(flat, gap.shape)
    xs = grid.nodes[both]
    return OrderingVerdict(
        False,
        worst,
        float(xs[i]),
        float(u_low.times[j]),
        "core ordering violated",
    )


def maximality_check(
    candidate: SpaceTimeField,
    alternates: list[SpaceTimeField],
    *,
    tol: float = 1e-6,
) -> OrderingVerdict:
    """The lifted-limit candidate must dominate every admissible variation."""
    worst = -np.inf
    worst_x = worst_t = None
    for alt in alternates:
        if not (candidate.same_grid(alt) and candidate.times_match(alt)):
            raise ShapeError("maximality requires shared grids and time stamps")
        both = candidate.mask & alt.mask
        gap = alt.values[both, :] - candidate.values[both, :]
        g = float(np.nanmax(gap))
        if g > worst:
            worst = g
            flat = np.nanargmax(gap)
            i, j = np.unravel_index(flat, gap.shape)
            worst_x = float(candidate.grid.nodes[both][i])
            worst_t = float(candidate.times[j])
    return OrderingVerdict(
        passed=bool(worst <= tol),
        worst_gap=worst,
        worst_x=worst_x,
        worst_t=worst_t,
        detail="candidate dominates" if worst <= tol else "an alternate exceeds the candidate",
    )
