import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collar.barriers import (
    BarrierConstants,
    build_barriers,
    build_boundary_potential,
    build_miller_barrier,
    select_barrier_constants,
    select_localization_radius,
    verify_barrier_residual,
)
from collar.errors import ConfigError, ModelError, RangeError, RegimeError
from collar.geometry import COLLAR, Domain, build_grid, collar_decomposition
from collar.models import (
    BoundaryData,
    DensityModel,
    InitialData,
    Nonlinearity,
    PowerMajorant,
    TabulatedMajorant,
    h4_integral,
)
from collar.operators import assemble_diffusion

_GX, _GW = np.polynomial.legendre.leggauss(16)


# Reference for the potential table: the per-point integrations, one distance
# at a time, that the blocked quadrature passes replace.
def _loop_composite(f, a, b, pieces=48):
    if b <= a:
        return 0.0
    edges = np.geomspace(a, b, pieces + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + half[:, None] * _GX[None, :]
    return float(np.sum(half[:, None] * _GW[None, :] * np.asarray(f(x))))


def _loop_dyadic(f, upper, n_pieces=60):
    pieces = []
    hi = upper
    for _ in range(n_pieces):
        lo = 0.5 * hi
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid + half * _GX
        fx = np.asarray(f(x), dtype=float)
        if np.any(~np.isfinite(fx)) or np.any(fx <= 0.0):
            raise ModelError("majorant must be positive and finite on (0, cap]")
        pieces.append(half * float(np.dot(_GW, x * fx)))
        hi = lo
        if pieces[-1] < 1e-300:
            break
    return np.array(pieces)


def _loop_value(f, d, eps_hat, margin):
    if d <= 0.0:
        return 0.0
    w = _loop_composite(f, d, eps_hat)
    pieces = _loop_dyadic(f, d)
    tail = 0.0
    if pieces.size >= 2:
        r = min(float(pieces[-1] / pieces[-2]), 0.999)
        tail = pieces[-1] * r / (1.0 - r)
    return margin * (d * w + float(pieces.sum()) + tail)


def _loop_h4_value(f, eps_hat):
    pieces = _loop_dyadic(f, eps_hat)
    if pieces.size < 8:
        return float(pieces.sum())
    r = float(np.max(pieces[1:][-8:] / pieces[:-1][-8:]))
    return float(pieces.sum() + pieces[-1] * r / (1.0 - r))


def _assert_table_matches_loop(majorant, eps_hat, margin=2.0, stride=1):
    pot = build_boundary_potential(majorant, eps_hat, curvature_margin=margin)
    # An odd stride visits every position within the table's row blocks.
    rows = np.unique(np.r_[np.arange(0, pot._table_d.size, stride), pot._table_d.size - 1])
    expected = [_loop_value(majorant, pot._table_d[i], eps_hat, margin) for i in rows]
    np.testing.assert_allclose(pot.at_distance(pot._table_d[rows]), expected, rtol=1e-13, atol=0.0)


def _certify_table_density():
    # The density table the certify-table benchmark workload draws, on its domain.
    dom = Domain.interval(0.0, 2.0, collar_cap=0.6)
    xs = np.linspace(0.0, 2.0, 81)
    rho = 1.0 + 0.2 * np.sin(0.5 * np.pi * xs) + 0.05 * np.cos(np.pi * xs)
    return DensityModel.from_table(xs, rho, dom)


@st.composite
def piecewise_linear_majorants(draw):
    n = draw(st.integers(2, 10))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    values = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    knots = np.concatenate(([0.0], np.cumsum(gaps)))
    span = draw(st.floats(0.1, 2.0))
    return TabulatedMajorant(knots=span * knots / knots[-1], values=np.array(values))


class TestBoundaryPotential:
    def test_constant_majorant_closed_form(self):
        # majorant 1, cap 1, margin 1: value d - d^2/2, curvature -1.
        pot = build_boundary_potential(PowerMajorant(1.0, 0.0), 1.0, curvature_margin=1.0)
        ds = np.linspace(0.0, 1.0, 33)
        assert np.max(np.abs(pot.at_distance(ds) - (ds - 0.5 * ds**2))) <= 1e-12
        assert pot.at_distance(1.0) == pytest.approx(0.5)
        dd = 1e-5
        curv = (pot.at_distance(0.4 + dd) - 2 * pot.at_distance(0.4) + pot.at_distance(0.4 - dd)) / dd**2
        assert curv == pytest.approx(-1.0, abs=1e-5)

    def test_log_majorant_closed_form(self):
        pot = build_boundary_potential(PowerMajorant(1.0, 1.0), 1.0, curvature_margin=1.0)
        ds = np.array([0.1, 0.3, 0.7, 1.0])
        expected = ds * (1.0 - np.log(ds))
        assert np.max(np.abs(pot.at_distance(ds) - expected)) <= 1e-12
        assert pot.at_distance(1.0) == pytest.approx(1.0)

    def test_divergent_majorant_rejected(self):
        with pytest.raises(RegimeError):
            build_boundary_potential(PowerMajorant(1.0, 3.0), 1.0)

    def test_vanishes_at_boundary(self):
        # Limit sampling at 1e-2, 1e-4, 1e-6 of the cap, decreasing to 0.
        pot = build_boundary_potential(PowerMajorant(1.0, 1.5), 1.0, curvature_margin=1.0)
        vals = pot.at_distance(np.array([1e-2, 1e-4, 1e-6]))
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-2 * pot.at_distance(1.0)
        assert pot.at_distance(0.0) == 0.0

    def test_positive_on_geometric_sample(self):
        pot = build_boundary_potential(PowerMajorant(2.0, 0.5), 0.5)
        ds = 0.5 * 2.0 ** (-np.arange(1, 21, dtype=float))
        assert np.all(pot.at_distance(ds) > 0.0)

    def test_numeric_table_matches_closed_form(self):
        pot_num = build_boundary_potential(lambda e: e**-1.2, 0.5, curvature_margin=1.0)
        pot_cf = build_boundary_potential(PowerMajorant(1.0, 1.2), 0.5, curvature_margin=1.0)
        ds = np.linspace(1e-4, 0.5, 61)
        rel = np.abs(pot_num.at_distance(ds) - pot_cf.at_distance(ds)) / pot_cf.at_distance(ds)
        # Table interpolation limits the numeric path, not the quadrature.
        assert np.max(rel) <= 1e-4

    def test_table_matches_loop_on_certify_density(self):
        _assert_table_matches_loop(_certify_table_density().majorant, 0.6)

    # At alpha = 1.9 the dyadic pieces decay slowly, so the geometric tail
    # carries a visible share of J(d).
    @pytest.mark.parametrize("alpha", [1.2, 1.9])
    def test_table_matches_loop_on_power_callable(self, alpha):
        _assert_table_matches_loop(lambda e: e**-alpha, 0.5, margin=1.0, stride=7)

    @given(piecewise_linear_majorants(), st.floats(0.05, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_table_matches_loop_on_piecewise_linear(self, majorant, eps_hat):
        _assert_table_matches_loop(majorant, eps_hat, stride=31)

    @given(piecewise_linear_majorants(), st.floats(0.05, 1.0), st.data())
    @settings(max_examples=25, deadline=None)
    def test_rows_filled_on_read_match_the_full_table(self, majorant, eps_hat, data):
        full = build_boundary_potential(majorant, eps_hat)
        full.at_distance(full._table_d)
        assert full._filled.all()
        exponents = data.draw(st.lists(st.floats(-10.0, 0.5), max_size=30))
        queries = np.concatenate(([0.0, eps_hat, 1.5 * eps_hat, 10.0 * eps_hat], majorant.knots,
                                  eps_hat * 10.0 ** np.array(exponents)))
        queries = np.array(data.draw(st.permutations(queries)))
        cuts = sorted(data.draw(st.lists(st.integers(0, queries.size), max_size=5)))
        lazy = build_boundary_potential(majorant, eps_hat)
        for part in np.split(queries, cuts):
            assert np.array_equal(lazy.at_distance(part), full.at_distance(part))

    def test_underflowing_pieces_stop_early(self):
        # Pieces drop below 1e-300 after a few halvings; past that point the
        # majorant is zero, which must not count against it.
        f = lambda e: np.where(e > 1e-25, 1e-280 * e**2, 0.0)  # noqa: E731
        _assert_table_matches_loop(f, 0.6, stride=7)
        verdict = h4_integral(f, 0.6)
        assert verdict.finite
        assert verdict.value == pytest.approx(_loop_h4_value(f, 0.6), rel=1e-13)
        first = lambda e: np.full(np.shape(e), 1e-299)  # noqa: E731
        verdict = h4_integral(first, 0.6)
        assert verdict.detail == "pieces vanished early"
        assert verdict.value == pytest.approx(_loop_h4_value(first, 0.6), rel=1e-13)

    def test_non_positive_majorant_in_used_range_rejected(self):
        # Zero only below 1e-20: the integral check on [0, cap] never looks
        # there, but the table's smallest distances do.
        f = lambda e: np.where(e > 1e-20, 1.0, 0.0)  # noqa: E731
        assert h4_integral(f, 0.6).finite
        with pytest.raises(ModelError):
            _loop_dyadic(f, 0.6e-9)
        with pytest.raises(ModelError):
            build_boundary_potential(f, 0.6)
        with pytest.raises(ModelError):
            h4_integral(lambda e: np.where(e > 1e-3, 1.0, -1.0), 0.6)

    @pytest.mark.parametrize(
        "domain",
        [
            Domain.interval(0.0, 1.0),
            Domain.ball(1.0, dim=2),
            Domain.annulus(1.0, 2.0, dim=3),
        ],
    )
    def test_discrete_laplacian_dominates_density(self, domain):
        # With margin 2 the discrete Laplacian of the composed potential
        # stays below -rho at every collar node.
        grid = build_grid(domain, 161)
        rho = DensityModel.power_law(0.5, domain)
        pot = build_boundary_potential(rho.majorant, domain.collar_cap, curvature_margin=2.0)
        op = assemble_diffusion(grid)
        vals = pot.at_distance(grid.distances)
        lap = op.apply(vals)
        cls = collar_decomposition(grid, domain.collar_cap)
        idx = np.concatenate([np.flatnonzero(cls.labels == COLLAR), cls.interface])
        idx = idx[(idx >= 1) & (idx <= grid.n - 2)]
        bound = -np.asarray(rho.rho(grid.nodes[idx])) + 10.0 * grid.h
        assert np.all(lap[idx] <= bound + 1e-9)


def _bump_laplacian(mb, dim, s):
    """Exact Laplacian of the bump at distance ``s`` from its center."""
    a = mb.steepness
    return mb.amplitude * (2.0 * a * dim - 4.0 * a * a * s * s) * np.exp(-a * s * s)


class TestMillerBarrier:
    def test_bump_laplacian_worked_value(self):
        dom = Domain.ball(3.0, dim=2)
        mb = build_miller_barrier(dom, 3.0, radius=1.0)
        assert mb.steepness == 2.0  # N / R^2
        # Unscaled profile Laplacian at unit distance from the center:
        # (2aN - 4 a^2 s^2) e^{-a s^2} = -8 e^{-2}.
        unscaled = _bump_laplacian(mb, 2, 1.0) / mb.amplitude
        assert unscaled == pytest.approx(-8.0 * math.exp(-2.0), rel=1e-12)
        # Amplitude is raised until the whole region, out to 2R, meets -1.
        s = np.linspace(mb.radius, 2.0 * mb.radius, 1001)
        assert np.max(_bump_laplacian(mb, 2, s)) <= -1.0

    def test_vanishes_at_anchor_positive_inside(self):
        dom = Domain.interval(0.0, 1.0)
        mb = build_miller_barrier(dom, 0.0, radius=0.25)
        assert mb.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)
        xs = np.linspace(0.01, 1.0, 50)
        assert np.all(mb.evaluate(xs) > 0.0)

    def test_annulus_inner_radius_bound(self):
        dom = Domain.annulus(0.2, 1.2, dim=2)
        with pytest.raises(ConfigError, match="set collar_cap <= r_in or anchor = right"):
            build_miller_barrier(dom, 0.2, radius=0.5)
        build_miller_barrier(dom, 0.2, radius=0.2)

    def test_discrete_laplacian_below_minus_one(self):
        dom = Domain.interval(0.0, 2.0)
        grid = build_grid(dom, 401)
        mb = build_miller_barrier(dom, 0.0, radius=0.5)
        op = assemble_diffusion(grid)
        lap = op.apply(mb.evaluate(grid.nodes))
        region = (grid.nodes <= 0.5) & (np.arange(grid.n) >= 1)
        assert np.all(lap[region] <= -1.0 + 10.0 * grid.h)

    def test_radial_discrete_laplacian_below_minus_one(self):
        dom = Domain.ball(1.0, dim=3)
        grid = build_grid(dom, 401)
        mb = build_miller_barrier(dom, 1.0, radius=0.3)
        op = assemble_diffusion(grid)
        lap = op.apply(mb.evaluate(grid.nodes))
        region = (np.abs(grid.nodes - 1.0) <= 0.3) & (np.arange(grid.n) <= grid.n - 2)
        assert np.all(lap[region] <= -1.0 + 10.0 * grid.h)


def _timed_params(**overrides):
    return dict(inf_rho=1.0, sup_rho=1.0, delta=0.5, phi_scale=1.0, eta_cap=0.1,
                bound_K=1.1, dim=1, pot_edge=0.35) | overrides


class TestConstantSelection:
    def test_worked_potential_timed_lower(self):
        G = Nonlinearity.linear(1.0)
        c = select_barrier_constants("potential-timed", "lower", G, **_timed_params())
        # beta = lambda = (G(1.1) - G(-1.1)) / 0.25 = 8.8, M = 26.4, then 1.05x.
        assert c.beta == pytest.approx(8.8 * 1.05, rel=1e-12)
        assert c.lam == pytest.approx(8.8 * 1.05, rel=1e-12)
        assert c.M == pytest.approx(26.4 * 1.05, rel=1e-12)

    def test_stationary_pointwise_rule(self):
        G = Nonlinearity.linear(1.0)
        c = select_barrier_constants("potential-stationary", "lower", G, **_timed_params())
        beta_raw = (1.0 + 1.1) / 0.25
        assert c.beta == pytest.approx(beta_raw * 1.05, rel=1e-12)
        assert c.M == pytest.approx(2.0 * beta_raw * 1.05, rel=1e-12)
        assert c.lam is None

    def test_miller_timed_rules(self):
        G = Nonlinearity.linear(1.0)
        c = select_barrier_constants("miller-timed", "upper", G, **_timed_params(sup_rho=2.0))
        num = 1.1 + 1.0
        lam_raw = num / 0.25
        assert c.lam == pytest.approx(lam_raw * 1.05, rel=1e-12)
        assert c.M == pytest.approx(max(2 * lam_raw * 0.5 * 2.0, num / 0.35) * 1.05, rel=1e-12)
        assert c.beta is None

    def test_degenerate_timed_rejected(self):
        G = Nonlinearity.porous_medium(2.0)
        with pytest.raises(RegimeError, match="barrier_case = potential-stationary"):
            select_barrier_constants("miller-timed", "lower", G, **_timed_params())

    def test_potential_case_needs_positive_infimum(self):
        G = Nonlinearity.linear(1.0)
        with pytest.raises(RegimeError):
            select_barrier_constants("potential-timed", "lower", G, **_timed_params(inf_rho=0.0))

    def test_miller_case_needs_bounded_density(self):
        G = Nonlinearity.linear(1.0)
        with pytest.raises(RegimeError):
            select_barrier_constants("miller-stationary", "lower", G,
                                     **_timed_params(sup_rho=np.inf))

    @pytest.mark.parametrize("bump", ["phi_scale", "eta_cap", "bound_K"])
    def test_monotone_in_data_scales(self, bump):
        G = Nonlinearity.linear(1.0)
        base = _timed_params()
        bigger = _timed_params(**{bump: base[bump] + 0.5})
        for side in ("lower", "upper"):
            c0 = select_barrier_constants("potential-timed", side, G, **base)
            c1 = select_barrier_constants("potential-timed", side, G, **bigger)
            assert c1.M >= c0.M - 1e-12
            assert c1.beta >= c0.beta - 1e-12
            assert c1.lam >= c0.lam - 1e-12


#: The config values of the worked timed example, as ``barrier-certify`` passes them.
WORKED = dict(anchor="left", t0=0.5, sigma=0.1, eta=0.0, eta_cap=0.1, safety=1.05,
              curvature_margin=2.0, dt=1e-3)


def worked_barriers(case="potential-timed", sides=("lower", "upper"), flux=None, **overrides):
    """The grid, density and barriers of the worked example: constant data on [0, 2].

    A timed case localizes to radius 0.5 (the anchor time), a stationary one
    to 0.6 (the collar cap); ``K`` is 1.1.
    """
    dom = Domain.interval(0.0, 2.0, collar_cap=0.6)
    grid = build_grid(dom, 201)
    rho = DensityModel.constant(1.0, dom)
    flux = flux or Nonlinearity.linear(1.0)
    phi = BoundaryData.constant(1.0, horizon=1.0)
    u0 = InitialData.constant(1.0)
    built = build_barriers(case, sides, grid, rho, flux, phi, u0, **(WORKED | overrides))
    return grid, rho, built


def _weakened(barrier, factor=100.0):
    c = barrier.constants
    return dataclasses.replace(barrier, constants=dataclasses.replace(c, M=c.M / factor))


def _constant_stationary():
    # M = 0 and no penalties: the barrier is constant in space and time.
    grid, rho, (b,) = worked_barriers("potential-stationary", ("lower",))
    flat = BarrierConstants("potential-stationary", "lower", M=0.0, lam=None, beta=None,
                            safety=1.0)
    return grid, rho, dataclasses.replace(b, constants=flat)


class TestBuildBarrier:
    def test_anchor_exactness(self):
        _, _, built = worked_barriers()
        for b, sign in zip(built, (-1.0, 1.0)):
            # All penalty terms vanish at the anchor.
            assert b.evaluate(0.0, 0.5) == pytest.approx(1.0 + sign * 0.1, rel=1e-12)

    def test_lower_edge_below_minus_K(self):
        _, _, (b,) = worked_barriers(sides=("lower",))
        for t in (0.1, 0.5, 0.9):
            assert b.evaluate(0.5, t) <= -1.1 + 1e-9
        # The time edges also sit below -K.
        assert b.evaluate(0.25, 0.0) <= -1.1 + 1e-9

    def test_lower_below_upper_on_region(self):
        grid, _, (bl, bu) = worked_barriers()
        xs = grid.nodes[bl.region_node_mask(grid)]
        for t in np.linspace(0.05, 0.95, 7):
            assert np.all(bl.evaluate(xs, t) <= bu.evaluate(xs, t) + 1e-12)


class TestLocalizationRadius:
    def test_constant_data_gives_cap(self):
        G = Nonlinearity.linear(1.0)
        phi = BoundaryData.constant(1.0, horizon=1.0)
        d = select_localization_radius("potential-timed", phi, G, (0.0, 0.5), 0.1, 0.0, 0.5)
        assert d == pytest.approx(0.5)

    def test_oscillating_data_shrinks_radius(self):
        G = Nonlinearity.linear(1.0)
        phi = BoundaryData.sine(0.0, 1.0, 1.0, horizon=1.0)
        d = select_localization_radius("potential-timed", phi, G, (0.0, 0.5), 0.1, 0.0, 0.5)
        assert 0.0 < d < 0.5
        # Oscillation of the lifted flux stays within sigma on the window.
        ts = np.linspace(0.5 - d, 0.5 + d, 512)
        target = G.g(phi.phi(0.0, 0.5))
        assert np.max(np.abs(G.g(phi.phi(0.0, ts)) - target)) <= 0.1 + 1e-9

    def test_stationary_uses_initial_modulus(self):
        dom = Domain.interval(0.0, 1.0)
        G = Nonlinearity.linear(1.0)
        phi = BoundaryData.constant(0.0, horizon=1.0)
        u0 = InitialData.sine(dom, 1.0)
        d = select_localization_radius(
            "potential-stationary", phi, G, (0.0, None), 0.1, 0.0, 0.25,
            initial=u0, domain=dom,
        )
        # sin(pi x) <= 0.1 requires x <= asin(0.1)/pi.
        assert d == pytest.approx(math.asin(0.1) / math.pi, rel=1e-3)


# Reference for the residual check: one sample time at a time, the barrier
# evaluated on every grid node, with a running worst point.
def _loop_residual(barrier, grid, rho, flux, dt, time_samples=96):
    op = assemble_diffusion(grid)
    idx = np.nonzero(barrier.region_node_mask(grid))[0]
    idx = idx[(idx >= 1) & (idx <= grid.n - 2)]
    timed = barrier.anchor_t is not None
    if timed:
        t_lo, t_hi = barrier.t_window
        lo, hi = t_lo + 2 * dt, t_hi - 2 * dt
        n_t = min(time_samples, max(10, int((hi - lo) / dt)))
        ts = np.linspace(lo, hi, n_t)
    else:
        ts = np.array([0.0])
    rho_vals = np.asarray(rho.rho(grid.nodes[idx]), dtype=float)
    x = grid.nodes
    max_res, min_res = -np.inf, np.inf
    worst_x, worst_t = float(grid.nodes[idx[0]]), None
    d4_scale = d3t_scale = 0.0
    for t in ts:
        w_now = np.asarray(barrier.evaluate(x, float(t) if timed else None))
        gw = np.asarray(flux.g(w_now))
        lap = op.apply(gw)
        if timed:
            w_plus = np.asarray(barrier.evaluate(x, t + dt))
            w_minus = np.asarray(barrier.evaluate(x, t - dt))
            dwdt = (w_plus[idx] - w_minus[idx]) / (2.0 * dt)
            w_pp = np.asarray(barrier.evaluate(x, t + 2 * dt))
            w_mm = np.asarray(barrier.evaluate(x, t - 2 * dt))
            d3t = (w_pp[idx] - 2 * w_plus[idx] + 2 * w_minus[idx] - w_mm[idx]) / (2.0 * dt**3)
            d3t_scale = max(d3t_scale, float(np.max(np.abs(d3t))))
        else:
            dwdt = 0.0
        res = rho_vals * dwdt - lap[idx]
        inner = idx[(idx >= 2) & (idx <= grid.n - 3)]
        if inner.size:
            d4 = (gw[inner - 2] - 4 * gw[inner - 1] + 6 * gw[inner]
                  - 4 * gw[inner + 1] + gw[inner + 2]) / grid.h**4
            d4_scale = max(d4_scale, float(np.max(np.abs(d4))))
        i_hi = int(np.argmax(res))
        if res[i_hi] > max_res:
            max_res = float(res[i_hi])
            if barrier.side == "lower":
                worst_x, worst_t = float(grid.nodes[idx[i_hi]]), float(t) if timed else None
        i_lo = int(np.argmin(res))
        if res[i_lo] < min_res:
            min_res = float(res[i_lo])
            if barrier.side == "upper":
                worst_x, worst_t = float(grid.nodes[idx[i_lo]]), float(t) if timed else None
    est_space = grid.h**2 * d4_scale / 12.0
    est_time = float(np.max(rho_vals)) * dt**2 * d3t_scale / 6.0
    c_res = 1.0 + (est_space + est_time) / (grid.h + dt)
    tol = c_res * (grid.h + dt)
    verdict = max_res <= tol if barrier.side == "lower" else min_res >= -tol
    return {
        "side": barrier.side, "case": barrier.case,
        "verdict": "pass" if verdict else "fail",
        "max_residual": max_res, "min_residual": min_res, "tolerance": tol,
        "c_res": c_res, "h": grid.h, "dt": dt, "n_nodes": int(idx.size),
        "n_times": int(ts.size), "worst_x": worst_x, "worst_t": worst_t,
    }


def _assert_residual_matches_loop(barrier, grid, rho, dt=1e-3):
    rep = verify_barrier_residual(barrier, grid, rho, dt).as_dict()
    assert rep == _loop_residual(barrier, grid, rho, barrier.flux, dt)
    return rep


class TestResidualVerification:
    def test_worked_configuration_passes(self):
        grid, rho, built = worked_barriers()
        for b in built:
            rep = verify_barrier_residual(b, grid, rho, 1e-3)
            assert rep.verdict, rep.as_dict()

    def test_underscaled_amplitude_fails(self):
        grid, rho, (b,) = worked_barriers(sides=("lower",))
        rep = verify_barrier_residual(_weakened(b), grid, rho, 1e-3)
        assert not rep.verdict
        assert rep.max_residual > rep.tolerance

    def test_constant_barrier_residual_zero(self):
        grid, rho, b = _constant_stationary()
        rep = verify_barrier_residual(b, grid, rho, 1e-3)
        assert rep.max_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict

    def test_miller_stationary_passes(self):
        grid, rho, built = worked_barriers("miller-stationary")
        for b in built:
            rep = verify_barrier_residual(b, grid, rho, 1e-3)
            assert rep.verdict, rep.as_dict()

    def test_report_serializes(self):
        grid, rho, (b,) = worked_barriers(sides=("lower",))
        d = verify_barrier_residual(b, grid, rho, 1e-3).as_dict()
        assert d["verdict"] == "pass"
        assert {"max_residual", "tolerance", "h", "dt"} <= set(d)


class TestResidualMatchesLoop:
    """The one-pass residual check reproduces the per-sample loop exactly."""

    def test_worked_potential_timed(self):
        grid, rho, built = worked_barriers()
        for b in built:
            rep = _assert_residual_matches_loop(b, grid, rho)
            assert rep["verdict"] == "pass"

    def test_underscaled_worst_point(self):
        grid, rho, (b,) = worked_barriers(sides=("lower",))
        rep = _assert_residual_matches_loop(_weakened(b), grid, rho)
        assert rep["verdict"] == "fail"
        # The first sample time, at the node where the weakened penalty bites.
        assert (rep["worst_x"], rep["worst_t"]) == (0.39, 0.002)

    def test_constant_stationary(self):
        grid, rho, b = _constant_stationary()
        rep = _assert_residual_matches_loop(b, grid, rho)
        assert rep["worst_t"] is None

    def test_miller_stationary(self):
        grid, rho, built = worked_barriers("miller-stationary")
        for b in built:
            _assert_residual_matches_loop(b, grid, rho)

    def test_radial_ball(self):
        dom = Domain.ball(1.0, dim=2, collar_cap=0.4)
        grid = build_grid(dom, 161)
        rho = DensityModel.power_law(0.5, dom)
        phi = BoundaryData.sine(1.0, 0.2, 1.0, horizon=1.0)
        built = build_barriers("potential-timed", ("lower", "upper"), grid, rho,
                               Nonlinearity.linear(1.0), phi, InitialData.constant(1.0),
                               **(WORKED | dict(sigma=0.15)))
        for b in built:
            assert b.anchor_x == 1.0  # a ball's one boundary, whichever end is asked for
            assert 0.1 < b.delta < 0.4  # the sine trace shrinks the radius below the cap
            _assert_residual_matches_loop(b, grid, rho)

    def test_slab_clipped_at_either_end(self):
        for anchor in ("left", "right"):
            grid, rho, (b,) = worked_barriers(sides=("lower",), anchor=anchor)
            idx = np.nonzero(b.region_node_mask(grid))[0]
            assert (1 if anchor == "left" else grid.n - 2) in idx
            _assert_residual_matches_loop(b, grid, rho)


def test_certify_fills_only_the_table_blocks_it_reads():
    # The certify-table workload's problem.  Its barriers read the potential
    # at d = 0, at node distances h = 0.0025 and up, and at the localization
    # radius; 754 of the table's 1025 rows lie below h.
    rho = _certify_table_density()
    grid = build_grid(rho.domain, 801)
    built = build_barriers("potential-timed", ("lower", "upper"), grid, rho,
                           Nonlinearity.linear(1.0), BoundaryData.sine(1.0, 0.035, 0.5),
                           InitialData.constant(1.0), **WORKED)
    pot = built[0].potential
    assert built[1].potential is pot and pot._filled.size == 65
    assert pot._filled.sum() <= 2  # what `collar validate` builds: the edge value at delta
    for b in built:
        assert verify_barrier_residual(b, grid, rho, WORKED["dt"]).verdict
    assert pot._filled.sum() <= 16


def test_residual_reads_only_the_region_slab():
    # The wide identity table covers the region's flux arguments but not
    # those far from the anchor, where the quadratic penalty grows; the
    # check must not evaluate the barrier there.
    G = Nonlinearity.from_table([-14.0, 14.0], [-14.0, 14.0])
    grid, rho, (b,) = worked_barriers(sides=("lower",), flux=G)
    with pytest.raises(RangeError):
        b.evaluate(grid.nodes, 0.5)
    rep = verify_barrier_residual(b, grid, rho, 1e-3)
    assert rep.verdict, rep.as_dict()
