import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collar import barriers
from collar.errors import ModelError, RangeError
from collar.geometry import Domain, build_grid
from collar.models import (
    BoundaryData,
    DensityModel,
    InitialData,
    Nonlinearity,
    PowerMajorant,
    TabulatedMajorant,
    check_hypotheses,
    global_bound,
    h4_integral,
)

GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(32)


def table_majorant_oracle(xs, vals, dom):
    # The worst tabulated value at each boundary distance, one side at a time.
    etas = np.linspace(0.0, dom.collar_cap, 513)
    sides = []
    for b in dom.boundary_points():
        inward = 1.0 if b == dom.lo else -1.0
        sides.append(np.interp(b + inward * etas, xs, vals))
    return np.max(sides, axis=0)


def dyadic_quadrature_oracle(alpha: float, eps_hat: float, levels: int = 200):
    """Independent integrator for the weighted collar integral of eta**-alpha.

    Integrates ``eta * eta**-alpha`` over dyadic pieces with Gauss rules and
    extrapolates the exactly geometric tail.  Returns None when the pieces
    fail to shrink (divergence).
    """
    hi = eps_hat
    pieces = []
    for _ in range(levels):
        lo = 0.5 * hi
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid + half * GAUSS_X
        pieces.append(half * float(np.dot(GAUSS_W, x ** (1.0 - alpha))))
        hi = lo
    ratio = pieces[-1] / pieces[-2]
    if ratio >= 1.0 - 1e-13:
        return None
    return sum(pieces) + pieces[-1] * ratio / (1.0 - ratio)


def test_gauss_table_is_leggauss_16_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(barriers._GAUSS_X, x)
    assert np.array_equal(barriers._GAUSS_W, w)


class TestIntegralDichotomy:
    def test_alpha_zero_closed_form_and_quadrature(self):
        res = h4_integral(PowerMajorant(1.0, 0.0), 1.0)
        assert res.finite and res.method == "closed-form"
        assert res.value == pytest.approx(0.5, rel=1e-12)
        assert res.value == pytest.approx(dyadic_quadrature_oracle(0.0, 1.0), rel=1e-10)

    def test_alpha_two_divergent(self):
        # The admissible exponent range is open at 2.
        res = h4_integral(PowerMajorant(1.0, 2.0), 1.0)
        assert not res.finite
        assert dyadic_quadrature_oracle(2.0, 1.0) is None

    def test_alpha_one(self):
        res = h4_integral(PowerMajorant(1.0, 1.0), 1.0)
        assert res.finite
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.value == pytest.approx(dyadic_quadrature_oracle(1.0, 1.0), rel=1e-10)

    @pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 1.99, 2.0, 2.5, 3.0])
    def test_power_sweep_matches_threshold_predicate(self, alpha):
        res = h4_integral(PowerMajorant(1.0, alpha), 1.0)
        assert res.finite == (alpha < 2.0)
        if res.finite:
            assert res.value == pytest.approx(1.0 / (2.0 - alpha), rel=1e-12)

    def test_scaled_majorant(self):
        res = h4_integral(PowerMajorant(3.0, 1.0), 0.5)
        assert res.value == pytest.approx(3.0 * 0.5, rel=1e-12)

    def test_nonpositive_majorant_rejected(self):
        # Only the two majorant kinds are integrated, and a table is positive.
        with pytest.raises(ModelError, match="PowerMajorant or a TabulatedMajorant"):
            h4_integral(lambda e: e - 1.0, 1.0)
        with pytest.raises(ModelError, match="positive and finite"):
            TabulatedMajorant(knots=np.array([0.0, 1.0]), values=np.array([-1.0, 0.0]))


class TestDensityModel:
    def test_power_law_flags(self):
        dom = Domain.interval(0.0, 1.0)
        assert not DensityModel.power_law(1.0, dom).is_bounded
        assert DensityModel.power_law(-1.0, dom).is_bounded
        assert DensityModel.power_law(0.0, dom).is_bounded
        assert DensityModel.power_law(1.5, dom).majorant_dominates  # it is its own majorant

    def test_power_law_values(self):
        dom = Domain.interval(0.0, 1.0)
        rho = DensityModel.power_law(2.0, dom)
        assert rho.rho(0.1) == pytest.approx(100.0)
        assert rho.rho(0.9) == pytest.approx(100.0)  # distance symmetric

    def test_majorant_dominates_tabulated(self):
        dom = Domain.interval(0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 33)
        vals = 1.0 + np.sin(3.0 * xs) ** 2
        rho = DensityModel.from_table(xs, vals, dom)
        etas = np.linspace(1e-4, dom.collar_cap, 57)
        for b, inward in ((0.0, 1.0), (1.0, -1.0)):
            pts = b + inward * etas
            assert np.all(rho.rho(pts) <= np.asarray(rho.majorant(etas)) + 1e-12)

    @pytest.mark.parametrize("dom", [Domain.interval(-0.5, 1.5, collar_cap=0.7),
                                     Domain.annulus(1.0, 2.0, dim=2)], ids=["interval", "annulus"])
    def test_table_majorant_matches_per_side_loop(self, dom):
        xs = np.linspace(dom.lo, dom.hi, 41)
        vals = 1.0 + 0.3 * np.sin(5.0 * xs) ** 2 + 0.1 * xs
        majorant = DensityModel.from_table(xs, vals, dom).majorant
        assert np.array_equal(majorant.knots, np.linspace(0.0, dom.collar_cap, 513))
        assert np.array_equal(majorant.values, table_majorant_oracle(xs, vals, dom))

    def test_spike_between_majorant_knots_is_not_dominated(self):
        # The spike peaks midway between two of the majorant's 513 knots, where
        # the majorant reads the density's base value 1.  Dyadic samples of the
        # collar miss it too.
        dom = Domain.interval(0.0, 1.0, collar_cap=0.4)
        peak = 0.1 + 0.4 / 1024
        rho = DensityModel.from_table([0.0, peak - 1e-5, peak, peak + 1e-5, 1.0],
                                      [1.0, 1.0, 3.0, 1.0, 1.0], dom)
        assert rho.rho(peak) - rho.majorant(peak) == pytest.approx(2.0)
        assert not rho.majorant_dominates
        report = check_hypotheses(rho, Nonlinearity.linear(1.0), BoundaryData.constant(0.0),
                                  InitialData.constant(0.0), build_grid(dom, 33))
        assert report.h4_majorant_dominates is False

    # Table knots sit on multiples of 1/4096 from the inner boundary and values
    # on multiples of 1/8, so every majorant knot and every table knot's
    # distance from a boundary point is one of 8193 dense distances, exactly.
    @given(st.sampled_from([Domain.interval(0.0, 1.0), Domain.annulus(1.0, 2.0, dim=2)]),
           st.lists(st.integers(1, 4095), min_size=1, max_size=12, unique=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_dominance_is_the_dense_sample_verdict(self, dom, steps, data):
        coords = dom.lo + np.array([0, *sorted(steps), 4096]) / 4096
        eighths = data.draw(st.lists(st.integers(1, 64), min_size=coords.size,
                                     max_size=coords.size))
        rho = DensityModel.from_table(coords, np.array(eighths) / 8.0, dom)
        etas = np.linspace(0.0, dom.collar_cap, 8193)
        near = np.asarray(rho.rho(dom.into(np.array(dom.boundary_points())[:, None], etas)))
        gap = near - rho.majorant(etas)
        assert rho.majorant_dominates == (not np.any(gap > 1e-9 * near))

    def test_table_requires_increasing_coordinates(self):
        dom = Domain.interval(0.0, 1.0)
        with pytest.raises(ModelError):
            DensityModel.from_table([0.0, 0.5, 0.4], [1.0, 1.0, 1.0], dom)

    @pytest.mark.parametrize("values", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]]],
                             ids=["short", "long", "2d"])
    def test_table_requires_one_value_per_coordinate(self, values):
        with pytest.raises(ModelError, match="one value per coordinate"):
            DensityModel.from_table([0.0, 0.5, 1.0], values, Domain.interval(0.0, 1.0))

    @pytest.mark.parametrize("dom, coords", [
        (Domain.interval(0.0, 2.0), [0.0, 0.5, 1.0]),
        (Domain.interval(0.0, 1.0), [1e-6, 0.5, 1.0]),
        (Domain.ball(1.0, dim=3), [0.1, 0.5, 1.0]),
        (Domain.annulus(1.0, 2.0, dim=2), [1.0, 1.5, 2.0 - 1e-9]),
    ], ids=["short-of-b", "short-of-a", "ball-centre", "annulus-outer"])
    def test_table_must_cover_the_domain(self, dom, coords):
        # np.interp would hold the last tabulated value out to the boundary.
        with pytest.raises(ModelError, match=r"density table covers \[.*\], not the whole domain"):
            DensityModel.from_table(coords, [1.0, 1.0, 1.0], dom)

    def test_table_ends_within_rounding_of_the_boundary_cover_it(self):
        dom = Domain.interval(0.0, 2.0)
        rho = DensityModel.from_table([1e-13, 1.0, 2.0 - 1e-13], [1.0, 2.0, 3.0], dom)
        assert rho.rho(2.0) == pytest.approx(3.0)



#: Inputs a piecewise-linear majorant rejects: its interpolant must be positive
#: and finite at every distance, so no potential table row can see it fail.
BAD_MAJORANTS = {
    "knots-2d": ([[0.0, 0.5]], [[1.0, 1.0]], "strictly increasing"),
    "knots-empty": ([], [], "strictly increasing"),
    "knots-repeated": ([0.0, 0.5, 0.5], [1.0, 1.0, 1.0], "strictly increasing"),
    "knots-decreasing": ([0.0, 0.5, 0.4], [1.0, 1.0, 1.0], "strictly increasing"),
    "knots-nan": ([0.0, np.nan, 1.0], [1.0, 1.0, 1.0], "strictly increasing"),
    "knots-infinite": ([-np.inf, 0.5], [1.0, 2.0], "strictly increasing"),
    "values-short": ([0.0, 0.5, 1.0], [1.0, 1.0], "one value per knot"),
    "values-2d": ([0.0, 0.5], [[1.0, 1.0]], "one value per knot"),
    "value-zero": ([0.0, 0.5], [1.0, 0.0], "positive and finite"),
    "value-negative": ([0.0, 0.5], [-1.0, 1.0], "positive and finite"),
    "value-nan": ([0.0, 0.5], [1.0, np.nan], "positive and finite"),
    "value-infinite": ([0.0, 0.5], [np.inf, 1.0], "positive and finite"),
}


class TestTabulatedMajorant:
    @pytest.mark.parametrize("knots, values, message", BAD_MAJORANTS.values(),
                             ids=BAD_MAJORANTS.keys())
    def test_bad_input_rejected(self, knots, values, message):
        with pytest.raises(ModelError, match=message):
            TabulatedMajorant(knots=np.array(knots), values=np.array(values))


class TestNonlinearity:
    def test_porous_medium_basics(self):
        G = Nonlinearity.porous_medium(2.0)
        assert G.g(3.0) == pytest.approx(9.0)
        assert G.g(-3.0) == pytest.approx(-9.0)
        assert G.dg(0.0) == 0.0
        assert G.alpha0 == 0.0  # degenerate at the origin

    def test_linear_floor(self):
        assert Nonlinearity.linear(2.0).alpha0 == pytest.approx(2.0)

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_porous_medium(self, y):
        G = Nonlinearity.porous_medium(2.0)
        assert abs(G.g(G.g_inv(y)) - y) <= 1e-10 * max(1.0, abs(y))

    @given(st.floats(-4.0, 4.0), st.floats(1e-6, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_strict_monotonicity(self, s, gap):
        G = Nonlinearity.porous_medium(3.0)
        assert G.g(s) < G.g(s + gap)

    def test_table_roundtrip_and_range(self):
        u = np.linspace(-2.0, 2.0, 41)
        G = Nonlinearity.from_table(u, u + 0.2 * u**3)
        ys = np.linspace(G.g_range[0], G.g_range[1], 101)
        assert np.max(np.abs(G.g(G.g_inv(ys)) - ys)) <= 1e-10
        with pytest.raises(RangeError):
            G.g_inv(G.g_range[1] + 1.0)


class TestCheckHypotheses:
    def test_heat_baseline_all_pass(self):
        dom = Domain.interval(0.0, 1.0)
        grid = build_grid(dom, 64)
        report = check_hypotheses(
            DensityModel.constant(1.0, dom),
            Nonlinearity.linear(1.0),
            BoundaryData.constant(0.0, horizon=1.0),
            InitialData.sine(dom, 1.0),
            grid,
        )
        assert report.core_ok
        assert report.h4.finite
        assert report.h5_nondegenerate
        assert report.compat_initial_boundary  # sine vanishes at the ends
        assert report.h4_majorant_dominates
        # A linear flux increases on the whole line, which JSON writes as null.
        assert report.evidence["h2"]["increasing_on"] == [None, None]
        json.dumps(report.evidence, allow_nan=False)

    def test_degenerate_flux_fails_h5(self):
        dom = Domain.interval(0.0, 1.0)
        grid = build_grid(dom, 64)
        report = check_hypotheses(
            DensityModel.constant(1.0, dom),
            Nonlinearity.porous_medium(2.0),
            BoundaryData.constant(0.0, horizon=1.0),
            InitialData.sine(dom, 1.0),
            grid,
        )
        assert report.h2_flux_monotone
        assert not report.h5_nondegenerate

    def test_degenerate_time_dependent_note_names_the_floor_key(self):
        dom = Domain.interval(0.0, 1.0)
        report = check_hypotheses(
            DensityModel.constant(1.0, dom),
            Nonlinearity.porous_medium(2.0),
            BoundaryData.sine(0.6, 0.15, 0.5, horizon=1.0),
            InitialData.constant(0.3),
            build_grid(dom, 64),
        )
        assert not report.positivity_route
        assert any("[boundary] positivity_floor" in note for note in report.notes)

    def test_divergent_density_flags_regime(self):
        dom = Domain.interval(0.0, 1.0)
        grid = build_grid(dom, 64)
        report = check_hypotheses(
            DensityModel.power_law(3.0, dom),
            Nonlinearity.linear(1.0),
            BoundaryData.constant(1.0, horizon=1.0),
            InitialData.constant(1.0),
            grid,
        )
        assert not report.h4.finite
        assert any("uniqueness-without-boundary" in note for note in report.notes)

    def test_positivity_route(self):
        dom = Domain.interval(0.0, 1.0)
        grid = build_grid(dom, 64)
        report = check_hypotheses(
            DensityModel.constant(1.0, dom),
            Nonlinearity.porous_medium(2.0),
            BoundaryData.constant(0.5, horizon=1.0, positivity_floor=0.4),
            InitialData.constant(0.5),
            grid,
        )
        assert report.positivity_route

    def test_infinite_initial_node_fails_h3(self):
        dom = Domain.interval(0.0, 1.0)
        grid = build_grid(dom, 65)
        node = grid.nodes[32]
        report = check_hypotheses(
            DensityModel.constant(1.0, dom),
            Nonlinearity.linear(1.0),
            BoundaryData.constant(0.0, horizon=1.0),
            InitialData(lambda x: np.where(np.asarray(x) == node, np.inf, 0.0)),
            grid,
        )
        assert not report.h3_initial_bounded and not report.core_ok
        assert report.evidence["h3"]["sup"] is None
        json.dumps(report.evidence, allow_nan=False)

    @pytest.mark.parametrize("knots, data, monotone", [
        # G is flat below 0, where no state goes: h2 holds on the data.
        ([0.0, 1.0, 2.0], 0.5, True),
        # G is flat above 5, and the data reach 6.
        ([-5.0, 0.0, 5.0], 6.0, False),
        ([-5.0, 0.0, 5.0], 5.0, True),
    ], ids=["flat-below-the-data", "data-above-the-knots", "data-at-the-last-knot"])
    def test_table_flux_is_judged_on_the_data_range(self, knots, data, monotone):
        dom = Domain.interval(0.0, 1.0)
        report = check_hypotheses(
            DensityModel.constant(1.0, dom),
            Nonlinearity.from_table(knots, [2.0 * k for k in knots]),
            BoundaryData.constant(data, horizon=1.0),
            InitialData.constant(data),
            build_grid(dom, 33),
        )
        assert report.h2_flux_monotone is monotone
        assert report.evidence["h2"]["increasing_on"] == [knots[0], knots[-1]]
        assert report.evidence["h2"]["data_range"] == [data, data]

    def test_flux_must_vanish_at_zero(self):
        dom = Domain.interval(0.0, 1.0)
        report = check_hypotheses(
            DensityModel.constant(1.0, dom),
            Nonlinearity.from_table([-1.0, 1.0], [-0.5, 1.5]),
            BoundaryData.constant(0.5, horizon=1.0),
            InitialData.constant(0.5),
            build_grid(dom, 33),
        )
        assert not report.h2_flux_monotone
        assert report.evidence["h2"]["g_at_zero"] == 0.5

    def test_constant_sine_trace_is_not_time_dependent(self):
        # With frequency 0 the sine trace is its offset at every time.
        dom = Domain.interval(0.0, 1.0)
        report = check_hypotheses(
            DensityModel.constant(1.0, dom),
            Nonlinearity.porous_medium(2.0),
            BoundaryData.sine(0.6, 0.15, 0.0, horizon=1.0),
            InitialData.constant(0.6),
            build_grid(dom, 64),
        )
        assert report.compat_initial_boundary
        assert report.notes == []


class TestDataObjects:
    def test_global_bound(self):
        assert global_bound(1.0, 0.5, 0.1) == pytest.approx(1.1)

    def test_boundary_kinds(self):
        dom = Domain.interval(0.0, 1.0)
        ramp = BoundaryData.ramp(0.5, 1.0, horizon=2.0)
        assert ramp.phi(0.0, 1.5) == pytest.approx(2.0)
        assert ramp.time_dependent
        sided = BoundaryData.sided(1.0, -1.0, dom, horizon=1.0)
        assert sided.phi(0.0, 0.3) == pytest.approx(1.0)
        assert sided.phi(1.0, 0.3) == pytest.approx(-1.0)
        with pytest.raises(ModelError, match="two boundary points"):
            BoundaryData.sided(1.0, -1.0, Domain.ball(1.0, dim=3))
        sine = BoundaryData.sine(0.5, 0.25, 1.0, horizon=1.0)
        assert sine.sup_norm(dom) == pytest.approx(0.75, abs=1e-3)
        assert sine.time_dependent
        assert not BoundaryData.sine(0.5, 0.25, 0.0, horizon=1.0).time_dependent
        assert not BoundaryData.sine(0.5, 0.0, 1.0, horizon=1.0).time_dependent

    @given(st.sampled_from(["constant", "ramp", "sine", "sided"]),
           st.sampled_from([Domain.interval(-0.5, 1.5), Domain.ball(1.0, dim=3),
                            Domain.annulus(1.0, 2.0, dim=2)]),
           st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
           st.floats(1e-3, 1e2))
    @settings(max_examples=200, deadline=None)
    def test_sup_norm_is_the_sampled_sup_bit_for_bit(self, kind, dom, a, horizon):
        assume(kind != "sided" or len(dom.boundary_points()) == 2)  # a ball has one
        phi = {
            "constant": lambda: BoundaryData.constant(a[0], horizon),
            "ramp": lambda: BoundaryData.ramp(a[0], a[1], horizon),
            "sine": lambda: BoundaryData.sine(a[0], a[1], a[2] / 100.0, horizon),
            "sided": lambda: BoundaryData.sided(a[0], a[1], dom, horizon),
        }[kind]()
        ts = np.linspace(0.0, horizon, 512)
        sampled = float(max(np.max(np.abs(phi.phi(b, ts))) for b in dom.boundary_points()))
        assert phi.sup_norm(dom).hex() == sampled.hex()
        lo, hi = phi.extremes(dom)
        values = [phi.phi(b, ts) for b in dom.boundary_points()]
        assert (lo, hi) == (float(np.min(values)), float(np.max(values)))

    def test_initial_sup_norm(self):
        dom = Domain.interval(0.0, 1.0)
        grid = build_grid(dom, 129)
        assert InitialData.sine(dom, 0.7).sup_norm(grid) == pytest.approx(0.7, abs=1e-3)
