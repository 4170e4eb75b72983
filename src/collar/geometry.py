"""Bounded domains with exact boundary distance, grids, and collar masks.

Geometry is restricted to 1-D intervals and radially symmetric balls and
annuli, reduced to a single coordinate (position, respectively radius).  On
these shapes the distance to the boundary is exact and the Laplacian reduces
to ``u'' + (N-1)/r u'``, which is all the rest of the package needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ResolutionError

INTERVAL = "interval"
BALL = "radial-ball"
ANNULUS = "radial-annulus"

_KINDS = (INTERVAL, BALL, ANNULUS)

#: Smallest admissible node count for a grid.
MIN_NODES = 16

#: Node classification codes used in collar masks.
EXTERIOR, COLLAR, INTERFACE, CORE = 0, 1, 2, 3


@dataclass(frozen=True)
class Domain:
    """Interval, ball, or annulus described by its 1-D reduced coordinate.

    ``lo`` and ``hi`` bound the reduced coordinate (endpoints for an
    interval, radii for the radial kinds; a ball has ``lo == 0``).
    ``collar_cap`` is the largest collar width the boundary machinery may
    use; it defaults to a quarter of the domain width.
    """

    kind: str
    lo: float
    hi: float
    dim: int
    collar_cap: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if not (self.lo < self.hi):
            raise DomainError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.kind == INTERVAL and self.dim != 1:
            raise DomainError("an interval is one-dimensional")
        if self.kind != INTERVAL and self.dim < 2:
            raise DomainError(f"{self.kind} requires dimension >= 2")
        if self.kind == BALL and self.lo != 0.0:
            raise DomainError("a ball starts at radius 0")
        if self.kind == ANNULUS and self.lo <= 0.0:
            raise DomainError("an annulus needs 0 < r_in < r_out")
        if not (0.0 < self.collar_cap < 0.5 * self.width):
            raise DomainError(
                f"collar cap {self.collar_cap} must lie in (0, {0.5 * self.width})"
            )

    @classmethod
    def interval(cls, a: float, b: float, collar_cap: float | None = None) -> "Domain":
        cap = 0.25 * (b - a) if collar_cap is None else collar_cap
        return cls(INTERVAL, float(a), float(b), 1, float(cap))

    @classmethod
    def ball(cls, r_out: float, dim: int, collar_cap: float | None = None) -> "Domain":
        cap = 0.25 * r_out if collar_cap is None else collar_cap
        return cls(BALL, 0.0, float(r_out), int(dim), float(cap))

    @classmethod
    def annulus(
        cls, r_in: float, r_out: float, dim: int, collar_cap: float | None = None
    ) -> "Domain":
        cap = 0.25 * (r_out - r_in) if collar_cap is None else collar_cap
        return cls(ANNULUS, float(r_in), float(r_out), int(dim), float(cap))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def boundary_points(self) -> tuple[float, ...]:
        """Reduced coordinates of the boundary components.

        The center of a ball is a regular point, not boundary.
        """
        if self.kind == BALL:
            return (self.hi,)
        return (self.lo, self.hi)

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        tol = 1e-12 * max(1.0, self.width)
        return (x >= self.lo - tol) & (x <= self.hi + tol)

    def distance(self, x):
        """Exact distance from ``x`` (reduced coordinate) to the boundary set."""
        x = np.asarray(x, dtype=float)
        if not np.all(self.contains(x)):
            bad = np.asarray(x)[~self.contains(x)]
            raise DomainError(f"point {bad.flat[0]} outside the closed domain")
        if self.kind == BALL:
            d = self.hi - x
        else:
            d = np.minimum(x - self.lo, self.hi - x)
        d = np.maximum(d, 0.0)
        return float(d) if np.isscalar(x) or d.ndim == 0 else d

    def into(self, b, distances) -> np.ndarray:
        """Points ``distances`` into the domain from boundary points ``b``, broadcast.

        ``b + d`` at the lower end of an interval or annulus, else ``b - d``.
        """
        b = np.asarray(b, dtype=float)
        up = (b == self.lo) & (self.kind != BALL)
        return np.where(up, b + distances, b - distances)

    def nearest_boundary_point(self, x):
        """Boundary coordinate closest to ``x`` (ties go to the outer side)."""
        x = np.asarray(x, dtype=float)
        if self.kind == BALL:
            out = np.full_like(x, self.hi)
        else:
            out = np.where(x - self.lo < self.hi - x, self.lo, self.hi)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the closed reduced coordinate, boundary nodes included."""

    domain: Domain
    nodes: np.ndarray
    h: float
    distances: np.ndarray = field(repr=False, default=None)
    steps_from_boundary: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.nodes.size

    def interior_indices(self) -> np.ndarray:
        return np.nonzero(self.steps_from_boundary > 0)[0]

    def index_of(self, x: float) -> int:
        """Index of the node nearest to coordinate ``x``."""
        i = int(round((float(x) - self.domain.lo) / self.h))
        return min(max(i, 0), self.n - 1)


def build_grid(domain: Domain, node_count: int) -> Grid:
    """Uniform grid with ``node_count`` nodes covering the closed domain.

    On a radial domain the cell volumes of the ``r^(N-1)`` metric must be
    normal doubles: the first cell, the smallest, must not underflow and
    ``hi^N`` must not overflow, or the stencil divides by zero or infinity.
    """
    if node_count < MIN_NODES:
        raise ConfigError(f"node_count {node_count} below minimum {MIN_NODES}")
    h = domain.width / (node_count - 1)
    if domain.dim > 1:
        n, lo = domain.dim, np.float64(domain.lo)
        with np.errstate(all="ignore"):
            first = ((lo + 0.5 * h) ** n - lo**n) / n
            top = np.float64(domain.hi) ** n
        if not (first >= np.finfo(float).tiny and np.isfinite(top)):
            raise ConfigError(
                f"dim = {n} is too large for a radial grid of {node_count} nodes: "
                "its cell volumes do not fit a double; lower dim"
            )
    nodes = np.linspace(domain.lo, domain.hi, int(node_count))
    d = domain.distance(nodes)
    steps = np.rint(d / h).astype(int)
    return Grid(domain=domain, nodes=nodes, h=h, distances=d, steps_from_boundary=steps)


@dataclass(frozen=True)
class NodeClassification:
    """Partition of grid nodes into exterior/collar/interface/core at one level.

    ``labels[i]`` is one of the module-level codes; the index arrays are the
    sorted node indices per class.  The interface is snapped to the grid node
    nearest to distance ``eps`` from the boundary: the boundary nodes at ``eps = 0``.
    """

    eps: float
    labels: np.ndarray

    @property
    def interface(self) -> np.ndarray:
        return np.nonzero(self.labels == INTERFACE)[0]

    @property
    def core(self) -> np.ndarray:
        return np.nonzero(self.labels == CORE)[0]

    @property
    def computational(self) -> np.ndarray:
        """Interface plus core nodes, the unknowns of a collar-level solve."""
        return np.nonzero(self.labels >= INTERFACE)[0]

    @property
    def window(self) -> tuple[int, int]:
        """First and last computational node; every node between them is one."""
        comp = self.computational
        return int(comp[0]), int(comp[-1])

    @property
    def inner_neighbours(self) -> np.ndarray:
        """The node one step into the core from each interface node, which ends the window."""
        iface = self.interface
        return np.where(iface == self.window[0], iface + 1, iface - 1)

    def probes(self, limit: int | None = None) -> np.ndarray:
        """Nodes two or more steps inside the interface, thinned to at most ``limit``."""
        deep = self.labels == CORE
        deep[self.inner_neighbours] = False
        idx = np.flatnonzero(deep)
        if limit is not None and idx.size > limit:
            idx = idx[:: -(-idx.size // limit)]
        return idx


def collar_decomposition(grid: Grid, eps: float) -> NodeClassification:
    """Classify nodes into collar (d < eps), interface (d ~ eps), core (d > eps).

    Requires ``eps = 0`` (no collar; the boundary nodes are the interface) or
    ``2h <= eps <= collar_cap``.  ``eps`` snaps to the nearest multiple of the
    spacing, so levels chosen as such multiples classify without ambiguity.
    """
    h = grid.h
    cap = grid.domain.collar_cap
    if not eps >= 0.0:
        raise ConfigError(f"collar width {eps} must be >= 0")
    if 0.0 < eps < 2.0 * h * (1.0 - 1e-12):
        raise ResolutionError(f"eps {eps} below 2h = {2 * h}: collar unresolved")
    if eps > cap * (1.0 + 1e-12):
        raise ConfigError(f"eps {eps} exceeds the collar cap {cap}")
    m = int(round(eps / h))
    steps = grid.steps_from_boundary
    labels = np.full(grid.n, CORE, dtype=int)
    labels[steps == 0] = EXTERIOR
    labels[(steps > 0) & (steps < m)] = COLLAR
    labels[steps == m] = INTERFACE
    return NodeClassification(eps=float(eps), labels=labels)
