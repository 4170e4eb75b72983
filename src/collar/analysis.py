"""Duality and boundary-attainment diagnostics.

The duality potential solves the discrete Poisson problem driven by a fixed
interior source, with zero trace on the interface; its boundary flux is
controlled exactly by the source mass, because the conservative stencil
telescopes.  The attainment report measures how closely each collar level
tracks the boundary data one node inside its interface late in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, SourceError
from .geometry import Grid, NodeClassification, collar_decomposition
from .models import BoundaryData
from .operators import assemble_diffusion
from .solver import SpaceTimeField
from .tridiagonal import solve_spd_once


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
    Scaled by the cell volumes to ``-K psi = V f``, with ``K = V L`` and
    identity interface rows, the matrix is symmetric positive definite.
    """
    f = np.asarray(source, dtype=float)
    cls = check_duality_source(grid, eps, f)
    m0, m1 = cls.window
    op = assemble_diffusion(grid)
    w, iface = slice(m0, m1 + 1), cls.interface - m0
    vol = op.volumes[w]
    d, e, rhs = -vol * op.di[w], -vol * op.up[w], vol * f[w]
    d[iface], rhs[iface] = 1.0, 0.0
    e[iface] = e[iface - 1] = 0.0  # e[-1] lies outside the matrix
    psi = np.full(grid.n, np.nan)
    psi[w] = solve_spd_once(d, e, rhs)

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
    largest probe distance from the boundary.  The levels are checked by
    ``check_attainment_levels`` when their members are built, and ``tau``
    by the config schema.
    """
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
        eps_levels=[f.eps for f in fields],
        sups=sups,
        tau=tau,
        threshold=threshold,
        attained=attained,
        probe_offsets=offsets,
    )

