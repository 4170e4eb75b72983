import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collar.errors import ConfigError, DomainError, ResolutionError
from collar.geometry import (
    BALL,
    COLLAR,
    CORE,
    EXTERIOR,
    INTERFACE,
    Domain,
    build_grid,
    collar_decomposition,
)


class TestDistance:
    def test_interval_interior_point(self):
        dom = Domain.interval(0.0, 1.0)
        assert dom.distance(0.3) == pytest.approx(0.3)

    def test_interval_boundary_point_is_zero(self):
        dom = Domain.interval(0.0, 1.0)
        assert dom.distance(1.0) == 0.0

    def test_annulus_radial_point(self):
        dom = Domain.annulus(1.0, 2.0, dim=2)
        assert dom.distance(1.75) == pytest.approx(0.25)

    def test_ball_distance_from_outer_boundary(self):
        dom = Domain.ball(1.0, dim=2)
        assert dom.distance(0.9) == pytest.approx(0.1)
        assert dom.distance(0.0) == pytest.approx(1.0)

    def test_outside_raises(self):
        dom = Domain.interval(0.0, 1.0)
        with pytest.raises(DomainError):
            dom.distance(1.5)

    def test_lipschitz_along_grid(self):
        grid = build_grid(Domain.interval(-1.0, 2.0), 97)
        jumps = np.abs(np.diff(grid.distances))
        assert np.all(jumps <= grid.h + 1e-14)


@st.composite
def domains(draw):
    kind = draw(st.sampled_from(["interval", "ball", "annulus"]))
    lo = 0.0 if kind == "ball" else draw(st.floats(-1e3 if kind == "interval" else 1e-3, 1e3))
    hi = lo + draw(st.floats(1e-3, 1e3))
    cap = draw(st.floats(0.01, 0.49)) * (hi - lo)
    if kind == "interval":
        return Domain.interval(lo, hi, collar_cap=cap)
    dim = draw(st.integers(2, 5))
    return Domain.ball(hi, dim, cap) if kind == "ball" else Domain.annulus(lo, hi, dim, cap)


@settings(max_examples=300, deadline=None)
@given(domains(), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_into_steps_distance_d_inside(dom, fractions):
    ds = np.r_[0.0, fractions, 1.0] * dom.collar_cap
    bounds = np.array(dom.boundary_points())[:, None]
    pts = dom.into(bounds, ds)
    assert pts.shape == (1 if dom.kind == BALL else 2, ds.size)
    assert np.all((pts >= dom.lo) & (pts <= dom.hi))
    # b + d rounds at the scale of the point, which exceeds |b| when a lower
    # end near 0 has a wide collar.
    scale = np.maximum(1.0, np.maximum(np.abs(bounds), np.abs(pts)))
    assert np.all(np.abs(dom.distance(pts) - ds) <= 4 * np.spacing(scale))


class TestDomainValidation:
    def test_bad_endpoints(self):
        with pytest.raises(DomainError):
            Domain.interval(1.0, 0.0)

    def test_radial_needs_dim_two(self):
        with pytest.raises(DomainError):
            Domain.ball(1.0, dim=1)

    def test_annulus_radii_ordered(self):
        with pytest.raises(DomainError):
            Domain.annulus(0.0, 2.0, dim=2)

    def test_collar_cap_below_half_width(self):
        with pytest.raises(DomainError):
            Domain.interval(0.0, 1.0, collar_cap=0.5)
        Domain.interval(0.0, 1.0, collar_cap=0.49)

    def test_default_cap_is_quarter_width(self):
        assert Domain.interval(0.0, 2.0).collar_cap == pytest.approx(0.5)


class TestGrid:
    def test_minimum_node_count(self):
        with pytest.raises(ConfigError):
            build_grid(Domain.interval(0.0, 1.0), 11)

    def test_spacing(self):
        grid = build_grid(Domain.interval(0.0, 1.0), 101)
        assert grid.h == pytest.approx(0.01)
        assert np.all(np.diff(grid.nodes) > 0)
        assert np.max(np.abs(np.diff(grid.nodes) - grid.h)) <= 1e-12 * grid.h

    def test_ball_grid_covers_radius(self):
        grid = build_grid(Domain.ball(2.0, dim=3), 201)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 2.0
        assert grid.h == pytest.approx(0.01)


class TestCollarDecomposition:
    def test_worked_interval_partition(self):
        dom = Domain.interval(0.0, 1.0, collar_cap=0.25)
        grid = build_grid(dom, 21)  # h = 0.05
        cls = collar_decomposition(grid, 0.2)
        assert set(np.round(grid.nodes[cls.interface], 10)) == {0.2, 0.8}
        assert np.all(grid.distances[cls.labels == COLLAR] < 0.2)
        assert np.all(grid.distances[cls.core] > 0.2)

    def test_matches_documented_example_spacing(self):
        # h = 0.1, eps = 0.2: collar {0.1}, interface {0.2}, core 0.3..0.7,
        # mirrored on the right.
        dom = Domain.interval(0.0, 2.0)
        grid = build_grid(dom, 21)  # h = 0.1
        cls = collar_decomposition(grid, 0.2)
        left_collar = [x for x in grid.nodes[cls.labels == COLLAR] if x < 1.0]
        assert left_collar == [pytest.approx(0.1)]
        assert sorted(np.round(grid.nodes[cls.interface], 10)) == [0.2, 1.8]

    def test_unresolved_collar(self):
        grid = build_grid(Domain.interval(0.0, 1.0), 21)  # h = 0.05
        with pytest.raises(ResolutionError):
            collar_decomposition(grid, 0.05)

    def test_ball_interface_radius(self):
        grid = build_grid(Domain.ball(1.0, dim=2), 21)  # h = 0.05
        cls = collar_decomposition(grid, 0.1)
        assert list(np.round(grid.nodes[cls.interface], 10)) == [0.9]

    def test_partition_is_exhaustive(self):
        grid = build_grid(Domain.interval(0.0, 1.0), 41)
        cls = collar_decomposition(grid, 0.1)
        interior = np.count_nonzero(grid.steps_from_boundary > 0)
        n_collar = np.count_nonzero(cls.labels == COLLAR)
        assert n_collar + len(cls.interface) + len(cls.core) == interior
        labels = cls.labels
        assert set(labels) <= {EXTERIOR, COLLAR, INTERFACE, CORE}

    @pytest.mark.parametrize("eps_pair", [(0.05, 0.1), (0.1, 0.2), (0.05, 0.2)])
    def test_core_nesting(self, eps_pair):
        eps1, eps2 = eps_pair
        grid = build_grid(Domain.interval(0.0, 1.0), 81)
        core1 = set(collar_decomposition(grid, eps1).core)
        core2 = set(collar_decomposition(grid, eps2).core)
        assert core2 <= core1

    def test_eps_above_cap_rejected(self):
        grid = build_grid(Domain.interval(0.0, 1.0), 81)
        with pytest.raises(ConfigError):
            collar_decomposition(grid, 0.3)


DOMAINS = {
    "interval": Domain.interval(0.0, 1.0),
    "ball": Domain.ball(1.0, dim=3),
    "annulus": Domain.annulus(1.0, 2.0, dim=2),
}


class TestCollarLevels:
    @pytest.mark.parametrize("kind", DOMAINS)
    def test_eps_zero_interface_is_the_boundary(self, kind):
        grid = build_grid(DOMAINS[kind], 41)
        cls = collar_decomposition(grid, 0.0)
        assert np.array_equal(cls.interface, np.flatnonzero(grid.distances == 0.0))
        assert not np.any(cls.labels == COLLAR)
        assert cls.window == (0, grid.n - 1)

    @pytest.mark.parametrize("kind", DOMAINS)
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_window_and_inner_neighbours(self, kind, eps):
        grid = build_grid(DOMAINS[kind], 41)  # h = 0.025
        cls = collar_decomposition(grid, eps)
        lo, hi = cls.window
        assert np.array_equal(cls.computational, np.arange(lo, hi + 1))
        # The solver relies on this: imposed rows end the window, whose first row
        # on a ball is its free centre.
        ends = [hi] if kind == "ball" else [lo, hi]
        assert cls.interface.tolist() == ends
        inner = cls.inner_neighbours
        assert inner.size == cls.interface.size == len(DOMAINS[kind].boundary_points())
        assert np.all(np.abs(inner - cls.interface) == 1)
        assert np.all(cls.labels[inner] == CORE)
        assert np.all(grid.distances[inner] > grid.distances[cls.interface])

    @pytest.mark.parametrize("kind", DOMAINS)
    def test_probes_lie_two_steps_inside(self, kind):
        grid = build_grid(DOMAINS[kind], 81)  # h = 0.0125
        cls = collar_decomposition(grid, 0.1)
        deep = np.flatnonzero(grid.steps_from_boundary >= 10)
        assert np.array_equal(cls.probes(), deep)
        thinned = cls.probes(7)
        assert thinned.size <= 7
        assert thinned[0] == deep[0] and set(thinned) <= set(deep)

    @pytest.mark.parametrize("eps", [-0.1, np.nan])
    def test_negative_or_nan_eps_rejected(self, eps):
        grid = build_grid(Domain.interval(0.0, 1.0), 41)
        with pytest.raises(ConfigError, match="collar width"):
            collar_decomposition(grid, eps)
