import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from collar import solver
from collar.analysis import comparison_check
from collar.config import parse_config
from collar.errors import ConfigError, LinearSolveError, ShapeError, SolveError, StepError
from collar.experiments import run_experiment
from collar.geometry import Domain, build_grid
from collar.models import BoundaryData, DensityModel, InitialData, Nonlinearity
from collar.solver import (
    ApproxProblem,
    SolverScheme,
    blend_initial_data,
    collar_cutoff,
    extract_limit_solution,
    family_members,
    flux_balance_defect,
    solve_members,
    step_implicit,
)
from collar.tridiagonal import factor_tridiagonal, solve_factored, solve_tridiagonal

DOM = Domain.interval(0.0, 1.0)
RHO1 = DensityModel.constant(1.0, DOM)
LIN = Nonlinearity.linear(1.0)


def generic(flux: Nonlinearity) -> Nonlinearity:
    """The same flux under a kind that does not take the prefactored linear path."""
    return Nonlinearity("generic", flux.g, flux.dg, flux.g_inv, flux.alpha0)


def solve_one(p: ApproxProblem, scheme=None, store_stride=1):
    """``p`` solved as the only member of its solve."""
    return solve_members([p], scheme, store_stride=store_stride)[0]


def heat_problem(nodes=129, horizon=0.1, dt=1e-3, eps=0.0, eta=0.0, eta_cap=0.1):
    return ApproxProblem(
        grid=build_grid(DOM, nodes),
        rho=RHO1,
        flux=LIN,
        phi=BoundaryData.constant(0.0, horizon=max(horizon, 1.0)),
        initial=InitialData.sine(DOM, 1.0),
        eps=eps,
        eta=eta,
        eta_cap=eta_cap,
        horizon=horizon,
        dt=dt,
    )


def solve_family(p: ApproxProblem, eps_levels, eta_levels, store_stride=1):
    """The finest field and diagnostics of ``p``'s family, solved as one solve."""
    members = family_members(p, eps_levels, eta_levels)
    return extract_limit_solution(solve_members(members, store_stride=store_stride))


def loop_flux_balance_defect(fieldobj, problem: ApproxProblem) -> float:
    """Oracle for ``flux_balance_defect``: the same defect, one stored time at a time."""
    lay = problem.layout
    op = problem.operator
    m0, m1 = lay.m0, lay.m1
    free = lay.free_local + m0
    vol = op.volumes
    rho_vals = np.asarray(problem.rho.rho(problem.grid.nodes[free]))
    h = problem.grid.h
    worst = 0.0
    for j in range(fieldobj.times.size - 1):
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


class TestBlend:
    def test_equal_values_blend_to_constant(self):
        grid = build_grid(DOM, 65)
        out = blend_initial_data(
            InitialData.constant(0.3), BoundaryData.constant(0.3, 1.0), 0.125, grid
        )
        assert np.max(np.abs(out - 0.3)) <= 1e-14

    def test_doubled_core_untouched(self):
        grid = build_grid(DOM, 65)  # h = 0.015625
        out = blend_initial_data(
            InitialData.sine(DOM, 1.0), BoundaryData.constant(0.0, 1.0), 0.2, grid
        )
        i = grid.index_of(0.5)  # distance 0.5 >= 2 eps
        assert out[i] == pytest.approx(np.sin(np.pi * 0.5), abs=1e-14)

    def test_interface_takes_boundary_trace(self):
        grid = build_grid(DOM, 65)
        eps = 0.125
        out = blend_initial_data(
            InitialData.constant(1.0), BoundaryData.constant(0.0, 1.0), eps, grid
        )
        i = grid.index_of(eps)
        assert out[i] == pytest.approx(0.0, abs=1e-14)

    def test_cutoff_profile_bounds(self):
        d = np.linspace(0.0, 1.0, 101)
        z = collar_cutoff(d, 0.2)
        assert np.all((0.0 <= z) & (z <= 1.0))
        assert np.all(z[d <= 0.2] == 0.0)
        assert np.all(z[d >= 0.4] == 1.0)


class TestStepImplicit:
    def test_linear_needs_one_newton_iteration(self):
        p = heat_problem()
        u = p.initial_window()
        _, iters, res = step_implicit(u, p, SolverScheme(), t_new=p.dt, dt=p.dt)
        assert iters == 1
        assert res <= 1e-10

    def test_constant_state_is_fixed_point(self):
        p = ApproxProblem(
            grid=build_grid(DOM, 65), rho=RHO1, flux=Nonlinearity.porous_medium(2.0),
            phi=BoundaryData.constant(0.4, horizon=1.0), initial=InitialData.constant(0.4),
            eps=0.125, eta=0.0, eta_cap=0.1, horizon=0.1, dt=1e-2,
        )
        u = p.initial_window()
        out, _, _ = step_implicit(u, p, SolverScheme(), t_new=p.dt, dt=p.dt)
        assert np.max(np.abs(out - u)) <= 1e-12

    def test_porous_medium_single_step_oracle(self):
        # u = x^2 / (12 (T - t)) solves the quadratic-flux equation exactly.
        T = 1.0
        grid = build_grid(DOM, 256)

        def exact(x, t):
            return np.asarray(x, float) ** 2 / (12.0 * (T - np.asarray(t, float)))

        p = ApproxProblem(
            grid=grid, rho=RHO1, flux=Nonlinearity.porous_medium(2.0),
            phi=BoundaryData(exact, horizon=T),
            initial=InitialData(lambda x: exact(x, 0.0)),
            eps=0.0, eta=0.0, eta_cap=0.0, horizon=0.5, dt=1e-4,
        )
        u = exact(grid.nodes, 0.1)
        out, _, _ = step_implicit(u, p, SolverScheme(), t_new=0.1 + 1e-4, dt=1e-4)
        assert np.max(np.abs(out - exact(grid.nodes, 0.1 + 1e-4))) < 1e-4

    def test_newton_failure_raises_step_error(self):
        p = ApproxProblem(
            grid=build_grid(DOM, 65), rho=RHO1, flux=Nonlinearity.porous_medium(4.0),
            phi=BoundaryData.constant(0.0, horizon=10.0),
            initial=InitialData.sine(DOM, 1.0),
            eps=0.0, eta=0.0, eta_cap=0.0, horizon=10.0, dt=5.0,
        )
        u = p.initial_window()
        with pytest.raises(StepError):
            step_implicit(u, p, SolverScheme(max_iterations=2), t_new=5.0, dt=5.0)


class TestSolve:
    def test_heat_closed_form_value(self):
        fld = solve_one(heat_problem(nodes=129, horizon=0.1, dt=1e-4), store_stride=100)
        mid = fld.grid.index_of(0.5)
        assert fld.values[mid, -1] == pytest.approx(np.exp(-np.pi**2 * 0.1), abs=1e-3)

    def test_constant_data_stays_lifted_constant(self):
        p = ApproxProblem(
            grid=build_grid(DOM, 65), rho=DensityModel.power_law(0.5, DOM),
            flux=Nonlinearity.porous_medium(2.0),
            phi=BoundaryData.constant(0.3, horizon=1.0), initial=InitialData.constant(0.3),
            eps=0.125, eta=0.05, eta_cap=0.1, horizon=0.2, dt=1e-2,
        )
        fld = solve_one(p)
        window = fld.values[fld.mask, :]
        assert np.max(np.abs(window - 0.35)) <= 1e-9

    def test_maximum_principle_metadata(self):
        fld = solve_one(heat_problem(horizon=0.05), store_stride=10)
        assert fld.meta["max_principle_ok"]
        K = fld.meta["bound_K"]
        assert np.nanmax(np.abs(fld.values)) <= K + 1e-6

    def test_lift_monotonicity(self):
        fields = [
            solve_one(heat_problem(nodes=65, horizon=0.05, dt=1e-3, eta=eta), store_stride=5)
            for eta in (0.025, 0.05, 0.1)
        ]
        for lower, higher in zip(fields[:-1], fields[1:]):
            gap = lower.values[lower.mask, :] - higher.values[higher.mask, :]
            assert np.max(gap) <= 1e-8

    def test_flux_balance(self):
        p = heat_problem(nodes=65, horizon=0.02, dt=1e-3)
        fld = solve_one(p, store_stride=1)
        assert flux_balance_defect(fld, p) <= 1e-12
        assert flux_balance_defect(fld, p) == loop_flux_balance_defect(fld, p)

    def test_flux_balance_radial_collar(self):
        dom = Domain.ball(1.0, dim=2)
        p = ApproxProblem(
            grid=build_grid(dom, 81), rho=DensityModel.constant(2.0, dom),
            flux=Nonlinearity.porous_medium(2.0),
            phi=BoundaryData.constant(0.5, horizon=1.0),
            initial=InitialData.constant(0.2),
            eps=0.05, eta=0.0, eta_cap=0.1, horizon=0.05, dt=2e-3,
        )
        fld = solve_one(p, store_stride=1)
        assert flux_balance_defect(fld, p) <= 1e-10
        assert flux_balance_defect(fld, p) == loop_flux_balance_defect(fld, p)

    def test_flux_balance_non_finite_defect_is_nan(self):
        p = heat_problem(nodes=65, horizon=0.02, dt=1e-3)
        fld = solve_one(p, store_stride=1)
        fld.values[p.grid.index_of(0.5), 7] = np.nan
        assert math.isnan(flux_balance_defect(fld, p))

    def test_flux_balance_refuses_strided_fields(self):
        # At stride 4 the stored pairs span four steps of mass change, which
        # used to be compared with one step's boundary flux.
        p = heat_problem(nodes=65, horizon=0.02, dt=1e-3)
        with pytest.raises(ShapeError, match="store_stride = 4"):
            flux_balance_defect(solve_one(p, store_stride=4), p)

    def test_time_stamps_on_lattice(self):
        fld = solve_one(heat_problem(nodes=65, horizon=0.01, dt=1e-3), store_stride=2)
        assert fld.times[0] == 0.0
        assert fld.times[-1] == pytest.approx(0.01, abs=1e-12)
        assert np.all(np.diff(fld.times) > 0)

    def test_trajectory_csv_roundtrip(self, tmp_path):
        fld = solve_one(heat_problem(nodes=65, horizon=0.01, dt=1e-3), store_stride=5)
        path = tmp_path / "traj.csv"
        fld.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (fld.times.size, fld.grid.n + 1)
        assert np.allclose(data[:, 0], fld.times)


class TestLimitExtraction:
    def test_heat_family_converges_to_exact(self):
        p = heat_problem(nodes=81, horizon=0.05, dt=1e-3)  # h = 0.0125
        finest, diag = solve_family(p, [0.2, 0.1, 0.05, 0.025], [0.1, 0.05, 0.025],
                                    store_stride=10)
        assert diag.converged, diag.as_dict()
        # The finest member still carries its lift; compare inside it.
        mid = finest.grid.index_of(0.5)
        exact = np.exp(-np.pi**2 * 0.05)
        assert abs(finest.values[mid, -1] - exact) <= 0.03

    def test_constant_family_differences_track_lift(self):
        p = ApproxProblem(
            grid=build_grid(DOM, 81), rho=RHO1, flux=LIN,
            phi=BoundaryData.constant(0.2, horizon=1.0), initial=InitialData.constant(0.2),
            eps=0.2, eta=0.1, eta_cap=0.1, horizon=0.02, dt=1e-3,
        )
        finest, diag = solve_family(p, [0.2, 0.1, 0.05, 0.025], [0.1, 0.05, 0.025],
                                    store_stride=4)
        assert diag.converged
        assert diag.eps_diffs == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert diag.eta_diffs == pytest.approx([0.05, 0.025], abs=1e-12)

    def test_family_validation(self):
        p = heat_problem(nodes=81)
        with pytest.raises(ConfigError):
            family_members(p, [0.2, 0.1, 0.05], [0.1, 0.05, 0.025])
        with pytest.raises(ConfigError):
            family_members(p, [0.2, 0.1, 0.05, 0.025], [0.1, 0.03])


class TestDecayRule:
    def test_divergence_reported_not_raised(self):
        from collar.solver import LimitDiagnostics, _decays

        assert _decays([0.1, 0.05, 0.02], scale=1.0)
        assert not _decays([0.1, 0.09, 0.085], scale=1.0)
        assert _decays([0.1, 1e-14, 5e-15], scale=1.0)  # floor absorbs noise
        diag = LimitDiagnostics(
            eps_levels=[0.2, 0.1, 0.05, 0.025], eta_levels=[0.1, 0.05, 0.025],
            eps_diffs=[0.1, 0.09, 0.085], eta_diffs=[0.05, 0.025],
            eps_converged=False, eta_converged=True,
            probe_coords=np.linspace(0.3, 0.7, 5),
        )
        assert not diag.converged
        assert diag.as_dict()["eps_converged"] is False


def random_tridiagonal(rng, n, dominance):
    lo = rng.uniform(-1.0, 1.0, n)
    up = rng.uniform(-1.0, 1.0, n)
    di = dominance * (2.0 + rng.uniform(0.0, 1.0, n)) * rng.choice([-1.0, 1.0], n)
    return lo, di, up, rng.standard_normal(n)


class TestTridiagonal:
    @pytest.mark.parametrize("n", [2, 3, 17, 801])
    def test_matches_solve_banded_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            lo, di, up, rhs = random_tridiagonal(rng, n, dominance=1.0)
            ab = np.zeros((3, n))
            ab[0, 1:], ab[1], ab[2, :-1] = up[:-1], di, lo[1:]
            assert np.array_equal(solve_tridiagonal(lo, di, up, rhs), solve_banded((1, 1), ab, rhs))

    @pytest.mark.parametrize("dominance", [1.0, 0.2])  # 0.2 forces row interchanges
    def test_factored_solve_matches_direct_solve(self, dominance):
        rng = np.random.default_rng(7)
        lo, di, up, rhs = random_tridiagonal(rng, 64, dominance)
        lu = factor_tridiagonal(lo, di, up)
        for b in (rhs, 2.0 * rhs):
            assert np.array_equal(solve_factored(lu, b), solve_tridiagonal(lo, di, up, b))

    def test_inputs_left_untouched(self):
        lo, di, up, rhs = random_tridiagonal(np.random.default_rng(3), 9, dominance=1.0)
        before = [a.copy() for a in (lo, di, up, rhs)]
        solve_tridiagonal(lo, di, up, rhs)
        solve_factored(factor_tridiagonal(lo, di, up), rhs)
        assert all(np.array_equal(a, b) for a, b in zip((lo, di, up, rhs), before))

    def test_singular_system_raises_typed_error(self):
        lo, di, up = np.ones(4), np.ones(4), np.array([1.0, 0.0, 1.0, 1.0])  # rows 0, 1 equal
        with pytest.raises(LinearSolveError) as err:
            solve_tridiagonal(lo, di, up, np.ones(4))
        assert err.value.info > 0
        assert isinstance(err.value, StepError)  # the stepper halves and retries on it
        with pytest.raises(LinearSolveError):
            factor_tridiagonal(lo, di, up)


def radial_heat_problem(nodes=65, dt=2e-3, horizon=0.04):
    dom = Domain.ball(1.0, dim=2)
    return ApproxProblem(
        grid=build_grid(dom, nodes), rho=DensityModel.power_law(0.5, dom), flux=LIN,
        phi=BoundaryData.sine(0.2, 0.1, 2.0, horizon=1.0), initial=InitialData.constant(0.4),
        eps=0.125, eta=0.025, eta_cap=0.1, horizon=horizon, dt=dt,
    )


class TestPrefactoredLinearPath:
    @pytest.mark.parametrize("make", [heat_problem, radial_heat_problem])
    def test_bit_identical_to_generic_path(self, make):
        p = make()
        fast = solve_one(p)
        slow = solve_one(dataclasses.replace(p, flux=generic(p.flux)))
        assert np.array_equal(fast.values, slow.values, equal_nan=True)
        assert fast.meta["newton_iterations"] == slow.meta["newton_iterations"]

    def test_linear_flux_skips_per_iteration_solves(self, monkeypatch):
        import collar.solver as solver

        calls = []

        def counted(*args):
            calls.append(args)
            return solve_tridiagonal(*args)

        monkeypatch.setattr(solver, "solve_tridiagonal", counted)
        solve_one(heat_problem(horizon=0.01))
        assert calls == []
        solve_one(dataclasses.replace(heat_problem(horizon=0.01), flux=generic(LIN)))
        assert len(calls) == 10

    def test_factor_cache_keyed_by_step_and_floor(self):
        p = radial_heat_problem()
        u = p.initial_window()
        runs = [(p.dt, SolverScheme()), (p.dt / 2, SolverScheme()),
                (p.dt / 2, SolverScheme(jacobian_floor=1.25)), (p.dt, SolverScheme())]
        reused = [step_implicit(u, p, sch, t_new=dt, dt=dt)[0] for dt, sch in runs]
        fresh = [step_implicit(u, dataclasses.replace(p), sch, t_new=dt, dt=dt)[0]
                 for dt, sch in runs]
        for a, b in zip(reused, fresh):
            assert np.array_equal(a, b)
        assert not np.array_equal(reused[0], reused[1])
        assert not np.array_equal(reused[1], reused[2])


class TestNonFinite:
    def test_nan_initial_data_raises_before_stepping(self):
        p = dataclasses.replace(heat_problem(), initial=InitialData.constant(float("nan")))
        with pytest.raises(SolveError, match="not finite"):
            solve_one(p)

    @pytest.mark.parametrize("field, value", [("dt", math.inf), ("dt", math.nan),
                                              ("dt", 0.0), ("horizon", math.inf)])
    def test_time_step_and_horizon_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ConfigError, match="positive and finite"):
            dataclasses.replace(heat_problem(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("newton_tol", math.inf), ("newton_tol", math.nan), ("newton_tol", 0.0),
        ("max_iterations", 0), ("jacobian_floor", math.nan), ("jacobian_floor", math.inf),
        ("jacobian_floor", -1e-8),
    ])
    def test_scheme_settings_out_of_range_raise(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SolverScheme(**{field: value})

    def test_nan_state_raises_step_error(self):
        p = heat_problem()
        u = p.initial_window()
        u[10] = np.nan
        with pytest.raises(StepError, match="not finite"):
            step_implicit(u, p, SolverScheme(), t_new=p.dt, dt=p.dt)

    def test_nan_update_raises_step_error(self):
        nan_slope = Nonlinearity(
            "nan-slope", LIN.g, lambda u: np.full(np.shape(u), np.nan), LIN.g_inv, 0.0
        )
        p = dataclasses.replace(heat_problem(), flux=nan_slope)
        u = p.initial_window()
        with pytest.raises(StepError, match="update is not finite"):
            step_implicit(u, p, SolverScheme(), t_new=p.dt, dt=p.dt)

    def test_nan_boundary_data_fails_the_solve(self):
        nan_trace = BoundaryData(
            lambda x, t: np.where(np.asarray(t) > 0.005, np.nan, 0.0) + 0.0 * np.asarray(x),
            horizon=1.0,
        )
        p = dataclasses.replace(heat_problem(horizon=0.01), phi=nan_trace)
        with pytest.raises(SolveError):
            solve_one(p)


@st.composite
def max_principle_problems(draw, alphas=st.floats(0.0, 3.0)):
    m = draw(st.one_of(st.just(None), st.floats(1.5, 3.0)))
    rho = (DensityModel.constant(draw(st.floats(0.5, 2.0)), DOM) if draw(st.booleans())
           else DensityModel.power_law(draw(alphas), DOM))
    phi = BoundaryData.sine(draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.3)),
                            draw(st.floats(0.5, 3.0)), horizon=1.0)
    initial = InitialData.sine(DOM, draw(st.floats(-1.0, 1.0)), draw(st.integers(1, 3)),
                               offset=draw(st.floats(0.0, 0.5)))
    nodes = draw(st.sampled_from([17, 25, 33]))
    return ApproxProblem(
        grid=build_grid(DOM, nodes), rho=rho,
        flux=LIN if m is None else Nonlinearity.porous_medium(m), phi=phi, initial=initial,
        eps=draw(st.sampled_from([0.0, 0.125, 0.25])), eta=draw(st.floats(0.0, 0.1)),
        eta_cap=0.1, horizon=0.1, dt=draw(st.sampled_from([5e-3, 1e-2, 2e-2])),
    )


#: Power-law exponents whose collar integral is finite (alpha < 2) or divergent.
ALPHA_REGIMES = {"finite": st.floats(0.0, 1.9), "divergent": st.floats(2.0, 3.0)}


class TestProperties:
    @given(max_principle_problems())
    @settings(max_examples=40, deadline=None)
    def test_maximum_principle(self, p):
        fld = solve_one(p)
        assert fld.meta["max_principle_ok"], fld.meta
        if p.flux.kind == "linear":
            slow = solve_one(dataclasses.replace(p, flux=generic(p.flux)))
            assert np.array_equal(fld.values, slow.values, equal_nan=True)

    @given(max_principle_problems(), st.floats(0.0, 0.1), st.floats(0.0, 0.1))
    @settings(max_examples=40, deadline=None)
    def test_lift_monotonicity(self, p, eta_a, eta_b):
        lo, hi = solve_members([dataclasses.replace(p, eta=min(eta_a, eta_b)),
                                dataclasses.replace(p, eta=max(eta_a, eta_b))])
        finite = np.isfinite(lo.values) & np.isfinite(hi.values)
        assert np.all(lo.values[finite] <= hi.values[finite] + 1e-8)

    @pytest.mark.parametrize("regime", ALPHA_REGIMES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_flux_balance_within_newton_budget(self, regime, data):
        # Weighted by rho * volume and summed over the free rows, the Newton
        # residual telescopes to the defect of the step.  The defect uses the
        # flux at the end of a stored step, so a halved step is left out.
        p = data.draw(max_principle_problems(ALPHA_REGIMES[regime]))
        scheme = SolverScheme()
        fld = solve_one(p, scheme)
        assume(fld.meta["step_halvings"] == 0)
        free = p.layout.free_local + p.layout.m0
        weights = p.rho.rho(p.grid.nodes[free]) * p.operator.volumes[free]
        defect = flux_balance_defect(fld, p)
        assert defect <= scheme.newton_tol * np.sum(weights)
        assert defect == loop_flux_balance_defect(fld, p)

    @pytest.mark.parametrize("regime", ALPHA_REGIMES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_ordered_lifts_pass_comparison(self, regime, data):
        p = data.draw(max_principle_problems(ALPHA_REGIMES[regime]))
        etas = sorted(data.draw(st.lists(st.floats(0.0, 0.1), min_size=2, max_size=2)))
        low, high = solve_members([dataclasses.replace(p, eta=eta) for eta in etas])
        levels = [e for e in (0.125, 0.25) if e >= p.eps]
        verdict = comparison_check(low, high, tau=p.horizon / 2, eps_range=levels)
        assert verdict.passed, verdict


def reference_solve(p: ApproxProblem, scheme: SolverScheme, store_stride: int = 1,
                    predict: bool = True):
    """One problem stepped alone, as the solver did before members were batched.

    With ``predict``, each unhalved outer step starts Newton at the
    extrapolation of the last outer states, in the solver's operation order;
    without it, at the current state.  Returns ``(times, values, meta)``, with
    the Newton iterations, the largest accepted scaled residual and the
    halvings in ``meta``.
    """
    lay, op, tol = p.layout, p._window_op, scheme.newton_tol

    def extrapolate(state, history):
        if not (predict and history):
            return state.copy()
        guess = state - history[0]
        if len(history) == 1:
            guess += state
        else:
            guess *= 3.0
            guess += history[1]
        return guess

    def step(state, start, t_new, dt):
        t_bc = t_new if p.phi.time_dependent else 0.0
        bc = np.asarray(p.phi.phi(lay.dir_points, t_bc), dtype=float) + p.eta
        u = start
        u[lay.dir_local] = bc
        scale = dt / p._rho_w

        def residual(v):
            res = (v - state) - scale * op.apply(np.asarray(p.flux.g(v)))
            res[lay.dir_local] = v[lay.dir_local] - bc
            return res, float(np.abs(res).max())

        res, norm = residual(u)
        iters = 0
        while norm > tol and iters < scheme.max_iterations:
            gp = np.maximum(np.asarray(p.flux.dg(u), dtype=float), scheme.jacobian_floor)
            lo, up = np.zeros_like(gp), np.zeros_like(gp)
            lo[1:] = -scale[1:] * op.lo[1:] * gp[:-1]
            up[:-1] = -scale[:-1] * op.up[:-1] * gp[1:]
            di = 1.0 - scale * op.di * gp
            lo[lay.dir_local] = up[lay.dir_local] = 0.0
            di[lay.dir_local] = 1.0
            delta = solve_tridiagonal(lo, di, up, -res)
            if not np.isfinite(delta).all():
                raise StepError("Newton update is not finite")
            frac = 1.0
            for _ in range(9):
                trial_res, trial_norm = residual(u + frac * delta)
                if trial_norm < norm * (1.0 - 1e-4) or trial_norm <= tol:
                    u, res, norm = u + frac * delta, trial_res, trial_norm
                    break
                frac *= 0.5
            else:
                u = u + 0.1 * delta
                res, norm = residual(u)
            iters += 1
        if not math.isfinite(norm) or norm > tol:
            raise StepError("Newton did not converge")
        return u, iters, norm

    n_outer = int(round(p.horizon / p.dt))
    if n_outer < 1 or abs(n_outer * p.dt - p.horizon) > 1e-8 * p.horizon:
        n_outer = max(1, int(np.ceil(p.horizon / p.dt - 1e-12)))
    u = p.initial_window()
    times, stored = [0.0], [u]
    depth = clean = total_iters = halvings = 0
    worst = 0.0
    history = []  # the outer states before ``u``, newest first
    t = 0.0
    for k in range(n_outer):
        t_next = p.horizon if k == n_outer - 1 else (k + 1) * p.dt
        while True:
            try:
                v = u
                nsub = 2**depth
                for j in range(nsub):
                    a = t + (t_next - t) * j / nsub
                    b = t + (t_next - t) * (j + 1) / nsub
                    start = extrapolate(u, history) if nsub == 1 else v.copy()
                    v, it, res = step(v, start, b, b - a)
                    total_iters += it
                    worst = max(worst, res)
                break
            except StepError:
                depth, clean, halvings = depth + 1, 0, halvings + 1
                if depth > 10:
                    raise SolveError("time step exhausted") from None
        history = [u] + history[:1]
        u, t = v, t_next
        clean += 1
        if depth > 0 and clean >= 20:
            depth, clean = depth - 1, 0
        if (k + 1) % store_stride == 0 or k == n_outer - 1:
            times.append(t)
            stored.append(u)
    values = np.full((p.grid.n, len(times)), np.nan)
    values[lay.m0 : lay.m1 + 1] = np.column_stack(stored)
    meta = {"newton_iterations": total_iters, "max_scaled_residual": worst,
            "step_halvings": halvings}
    return np.array(times), values, meta


def assert_members_match_alone(make, scheme=None, store_stride=1):
    """``solve_members(make())`` equals each member solved alone and the reference.

    ``make`` builds fresh problems for every solve, so a flux that counts its
    calls starts afresh each time.
    """
    scheme = scheme or SolverScheme()
    batch = solve_members(make(), scheme, store_stride=store_stride)
    for k, fld in enumerate(batch):
        alone = solve_one(make()[k], scheme, store_stride=store_stride)
        times, values, meta = reference_solve(make()[k], scheme, store_stride)
        assert np.array_equal(fld.values, alone.values, equal_nan=True), k
        assert np.array_equal(fld.times, alone.times)
        assert fld.meta == alone.meta
        assert np.array_equal(fld.values, values, equal_nan=True), k
        assert np.array_equal(fld.times, times)
        assert {key: fld.meta[key] for key in meta} == meta
    return batch


BALL = Domain.ball(1.0, dim=2)


@functools.cache
def pme(m: float) -> Nonlinearity:
    """One porous-medium flux per exponent, so members built apart can share a solve."""
    return Nonlinearity.porous_medium(m)


def pme_problem(nodes, m=3.0, dom=DOM, eps=0.0, dt=0.5, horizon=2.0, flux=None, **kw):
    args = dict(
        grid=build_grid(dom, nodes), rho=DensityModel.constant(1.0, dom),
        flux=flux or pme(m),
        phi=BoundaryData.constant(1.0, horizon=max(horizon, 1.0)),
        initial=InitialData.constant(0.0), eps=eps, eta=0.0, eta_cap=0.1,
        horizon=horizon, dt=dt,
    )
    args.update(kw)
    return ApproxProblem(**args)


def nan_above(flux: Nonlinearity, cap: float) -> Nonlinearity:
    """``flux`` with a NaN value above ``cap``, as if it overflowed there."""

    def g(u):
        u = np.asarray(u, dtype=float)
        return np.where(u > cap, np.nan, flux.g(u))

    return Nonlinearity("nan-above", g, flux.dg, flux.g_inv, flux.alpha0)


def nan_jacobian_first(flux: Nonlinearity, calls: int, cap: float) -> Nonlinearity:
    """``flux`` whose derivative is NaN above ``cap`` on its first ``calls`` evaluations."""
    seen = []

    def dg(u):
        seen.append(None)
        out = np.asarray(flux.dg(u), dtype=float)
        return np.where(np.asarray(u) > cap, np.nan, out) if len(seen) <= calls else out

    return Nonlinearity("nan-jacobian-first", flux.g, dg, flux.g_inv, flux.alpha0)


def nan_once_members(m, horizon):
    """Three members; the middle one's trace is NaN on its third evaluation.

    So its residual is NaN from the start of that step while the others
    iterate; the next block is a ball whose free centre row meets the NaN trace.
    """
    calls = []

    def trace(x, t):
        calls.append(None)
        return np.asarray(x, float) * 0.0 + (np.nan if len(calls) == 3 else 0.2)

    flux = LIN if m is None else Nonlinearity.porous_medium(m)
    nan_once = BoundaryData(trace, horizon=1.0)
    return [pme_problem(n, dom=dom, flux=flux, dt=1e-3, horizon=horizon, phi=phi)
            for n, dom, phi in ((33, DOM, BoundaryData.sine(0.2, 0.1, 2.0)),
                                (17, DOM, nan_once),
                                (21, BALL, BoundaryData.sine(0.2, 0.1, 2.0)))]


def inject_zero_pivot(monkeypatch, when):
    """Arms one zero pivot at the first ``_newton`` call for which ``when(batch,
    t_new, dt, stepping)`` returns a row, and raises it in the next linear solve.

    Returns a log: the row, the ``stepping`` masks of the ``_newton`` calls
    from the armed one on, and the number of those calls when it fired.
    """
    newton, log = solver._newton, {"row": None, "masks": [], "fired_in": None}

    def spy(batch, state, start, scheme, t_new, dt, stepping):
        if log["row"] is None:
            log["row"] = when(batch, t_new, dt, stepping)
        if log["row"] is not None:
            log["masks"].append(list(stepping))
        return newton(batch, state, start, scheme, t_new, dt, stepping)

    def singular_once(lo, di, up, rhs):
        if log["row"] is not None and log["fired_in"] is None:
            log["fired_in"] = len(log["masks"])
            raise LinearSolveError("zero pivot", info=log["row"] + 1)  # LAPACK counts from 1
        return solve_tridiagonal(lo, di, up, rhs)

    monkeypatch.setattr(solver, "_newton", spy)
    monkeypatch.setattr(solver, "solve_tridiagonal", singular_once)
    return log


def assert_match(fields, alone, members):
    for k in members:
        assert np.array_equal(fields[k].values, alone[k].values, equal_nan=True), k
        assert fields[k].meta == alone[k].meta, k


class TestBatchedMembers:
    def test_only_one_member_halves(self):
        # Porous-medium m = 3 at dt = 0.5 from u0 = 0 to a trace of 1: the
        # 65-node member needs five halvings, the coarser ones none.
        fields = assert_members_match_alone(lambda: [pme_problem(n) for n in (17, 33, 65)])
        assert [f.meta["step_halvings"] for f in fields] == [0, 0, 5]

    def test_one_block_system_per_solve(self, monkeypatch):
        built, batch = [], solver._Batch

        def counted(problems):
            built.append(len(problems))
            return batch(problems)

        monkeypatch.setattr(solver, "_Batch", counted)
        fields = solve_members([pme_problem(n) for n in (17, 33, 65)])
        assert [f.meta["step_halvings"] for f in fields] == [0, 0, 5]
        assert built == [3]

    def test_member_failing_mid_substeps_leaves_its_level_stepping(self, monkeypatch):
        # Members 1 and 2 are equal and halve together; a zero pivot fails
        # member 2 in a sub-step that is neither the first nor the last of a
        # halved step, and member 1 steps on through the next sub-step.
        def make():
            return [pme_problem(n) for n in (17, 65, 65)]

        def mid_substep(batch, t_new, dt, stepping):
            ends = np.array([t_new - dt, t_new]) / 0.5  # in outer steps
            if stepping[1] and stepping[2] and np.all(np.abs(ends - np.round(ends)) > 1e-9):
                return int(batch.starts[2])
            return None

        alone = [solve_one(p) for p in make()]
        log = inject_zero_pivot(monkeypatch, mid_substep)
        fields = solve_members(make())
        assert log["fired_in"] == 1
        assert log["masks"][:2] == [[False, True, True], [False, True, False]]
        assert fields[2].meta["step_halvings"] == alone[2].meta["step_halvings"] + 1
        assert_match(fields, alone, (0, 1))

    def test_zero_pivot_in_a_member_sitting_out_fails_nobody(self, monkeypatch):
        # Member 0 sits out while member 1 sub-steps; the zero pivot is in its block.
        def make():
            return [pme_problem(33), pme_problem(65)]

        def sitting_out(batch, t_new, dt, stepping):
            return 0 if stepping == [False, True] else None

        alone = [solve_one(p) for p in make()]
        log = inject_zero_pivot(monkeypatch, sitting_out)
        fields = solve_members(make())
        assert log["fired_in"] == 1
        assert [f.meta["step_halvings"] for f in fields] == [0, 5]
        assert_match(fields, alone, (0, 1))

    def test_member_backtracking_through_nan_flux_values(self):
        # The middle member's Newton trials overshoot into NaN flux values and
        # its line search backs off; its neighbours, under the mirrored trace,
        # stay below those values and step as under the plain flux.
        def make():
            flux = nan_above(pme(3.0), 1.05)
            below = BoundaryData.constant(-1.0, horizon=2.0)
            return [pme_problem(33, flux=flux, phi=below), pme_problem(65, flux=flux),
                    pme_problem(17, flux=flux, phi=below)]

        fields = assert_members_match_alone(make)
        plain = solve_members([dataclasses.replace(p, flux=pme(3.0)) for p in make()])
        for k in (0, 2):
            assert np.array_equal(fields[k].values, plain[k].values)

    def test_non_finite_jacobian_fails_its_member_alone(self):
        # Only the middle member's trace lies above the Jacobian's NaN cap.
        def make():
            flux = nan_jacobian_first(pme(2.0), 1, cap=0.75)
            low = BoundaryData.constant(0.5, horizon=1.0)
            return [pme_problem(33, flux=flux, dt=0.05, horizon=0.2, phi=low),
                    pme_problem(17, flux=flux, dt=0.05, horizon=0.2),
                    pme_problem(25, flux=flux, dt=0.05, horizon=0.2, phi=low)]

        fields = assert_members_match_alone(make)
        assert [f.meta["step_halvings"] for f in fields] == [0, 1, 0]

    @pytest.mark.parametrize("owner, offset", [(0, -1), (1, 0)])  # either side of a block edge
    def test_zero_pivot_maps_to_the_member_owning_its_row(self, monkeypatch, owner, offset):
        def make():
            return [pme_problem(n, m=2.0, dt=0.05, horizon=0.2) for n in (17, 33, 25)]

        alone = [solve_one(p) for p in make()]
        row = make()[0].layout.size + offset
        calls = []

        def singular_once(lo, di, up, rhs):
            calls.append(None)
            if len(calls) == 1:
                raise LinearSolveError("zero pivot", info=row + 1)  # LAPACK counts from 1
            return solve_tridiagonal(lo, di, up, rhs)

        monkeypatch.setattr(solver, "solve_tridiagonal", singular_once)
        fields = solve_members(make())
        assert [f.meta["step_halvings"] for f in fields] == [int(k == owner) for k in range(3)]
        assert_match(fields, alone, {0, 1, 2} - {owner})

    @pytest.mark.parametrize("call", [1, 30, 200])
    def test_zero_pivot_in_a_member_not_iterating_fails_nobody(self, monkeypatch, call):
        # Member 0 stays at its zero trace with a zero residual, so alone it
        # makes no linear solve; a zero pivot in its block is not its failure.
        def make():
            return [pme_problem(17, phi=BoundaryData.constant(0.0, horizon=2.0)), pme_problem(65)]

        alone = [solve_one(p) for p in make()]
        assert alone[0].meta["newton_iterations"] == 0
        calls = []

        def singular_at_row_0(lo, di, up, rhs):
            calls.append(None)
            if len(calls) == call:
                raise LinearSolveError("zero pivot", info=1)
            return solve_tridiagonal(lo, di, up, rhs)

        monkeypatch.setattr(solver, "solve_tridiagonal", singular_at_row_0)
        fields = solve_members(make())
        assert len(calls) > call
        assert_match(fields, alone, (0, 1))

    @pytest.mark.parametrize("m", [None, 2.0])  # prefactored and assembled Jacobians
    def test_non_finite_residual_fails_its_member_alone(self, m):
        fields = assert_members_match_alone(lambda: nan_once_members(m, horizon=0.01))
        assert [f.meta["step_halvings"] for f in fields] == [0, 1, 0]

    @pytest.mark.parametrize("m", [None, 2.0])
    def test_halved_member_relaxes_after_clean_steps(self, m):
        # 30 outer steps: the middle member halves at the third and steps at
        # depth 1 until 20 clean steps bring it back to depth 0.
        fields = assert_members_match_alone(lambda: nan_once_members(m, horizon=0.03))
        assert [f.meta["step_halvings"] for f in fields] == [0, 1, 0]

    def test_free_ball_centre_row_starts_a_block(self):
        def make():
            ball = dict(dom=BALL, m=2.0, dt=5e-3, horizon=0.05,
                        rho=DensityModel.power_law(0.5, BALL),
                        phi=BoundaryData.sine(0.3, 0.1, 1.0, horizon=1.0))
            return [pme_problem(17, m=2.0, dt=5e-3, horizon=0.05), pme_problem(33, **ball),
                    pme_problem(25, eps=0.125, **ball), pme_problem(21, **ball)]

        assert 0 not in make()[1].layout.dir_local
        assert_members_match_alone(make)

    def test_linear_members_share_one_factored_system(self):
        def make():
            return [heat_problem(nodes=65, horizon=0.02), radial_heat_problem(dt=1e-3, horizon=0.02),
                    heat_problem(nodes=33, horizon=0.02, eps=0.125, eta=0.05)]

        assert_members_match_alone(make, store_stride=3)

    @pytest.mark.parametrize("name, other", [("flux", generic(LIN)), ("dt", 2e-3),
                                             ("horizon", 0.04)], ids=["flux", "dt", "horizon"])
    def test_members_that_differ_are_rejected(self, name, other):
        # One solve steps one flux on one time lattice; a member off it is a caller's mistake.
        p = heat_problem(nodes=33, horizon=0.02)
        odd = dataclasses.replace(p, **{name: other})
        with pytest.raises(ConfigError, match=rf"member 2 has another {name} than member 0"):
            solve_members([p, dataclasses.replace(p, eta=0.05), odd])

    def test_factor_cache_stays_bounded(self):
        batch = solver._Batch([heat_problem(), radial_heat_problem()])
        for k in range(10):
            batch.linear_factors(1e-3 * (1 + k), 1e-8)
        assert len(batch._lu) == solver._LU_CACHE

    def test_index_sets_equal_numpy_set_operations(self):
        problems = [pme_problem(17), pme_problem(33, eps=0.125), pme_problem(21, dom=BALL),
                    pme_problem(25, dom=BALL, eps=0.25)]
        for p in problems:
            old = np.setdiff1d(np.arange(p.layout.size), p.layout.dir_local)
            assert np.array_equal(p.layout.free_local, old)
            assert p.layout.free_local.dtype == old.dtype
        for members in (problems[:1], problems[2:3], problems, problems[::-1]):
            batch = solver._Batch(members)
            ends = batch.starts + batch.sizes - 1
            for new, old in ((batch._lo_zero, np.union1d(batch.dir, batch.starts)),
                             (batch._up_zero, np.union1d(batch.dir, ends))):
                assert np.array_equal(new, old) and new.dtype == old.dtype

    def test_solve_error_names_the_failing_member(self):
        nan_trace = BoundaryData(
            lambda x, t: np.where(np.asarray(t) > 0.005, np.nan, 0.0) + 0.0 * np.asarray(x),
            horizon=1.0,
        )
        good = heat_problem(horizon=0.01)
        bad = dataclasses.replace(good, phi=nan_trace, eps=0.125, eta=0.05)
        with pytest.raises(SolveError, match=r"member 2 \(eps = 0.125, eta = 0.05\) at t = 0.005"):
            solve_members([good, good, bad])


@st.composite
def member_sets(draw):
    m = draw(st.one_of(st.none(), st.floats(1.5, 3.0)))
    flux = LIN if m is None else Nonlinearity.porous_medium(m)
    traces = [BoundaryData.sine(draw(st.floats(0.0, 0.5)), draw(st.sampled_from([0.0, 0.2])),
                                draw(st.floats(0.5, 3.0)), horizon=1.0)
              for _ in range(draw(st.integers(1, 2)))]
    dt = draw(st.sampled_from([5e-3, 1e-2]))
    members = []
    for _ in range(draw(st.integers(1, 5))):
        dom = draw(st.sampled_from([DOM, BALL]))
        rho = (DensityModel.constant(draw(st.floats(0.5, 2.0)), dom) if draw(st.booleans())
               else DensityModel.power_law(draw(st.floats(0.0, 2.0)), dom))
        members.append(dict(
            grid=build_grid(dom, draw(st.sampled_from([17, 25, 33]))), rho=rho,
            flux=flux, phi=draw(st.sampled_from(traces)),
            initial=InitialData.sine(dom, draw(st.floats(-1.0, 1.0)), draw(st.integers(1, 3)),
                                     offset=draw(st.floats(0.0, 0.5))),
            eps=draw(st.sampled_from([0.0, 0.125, 0.25])), eta=draw(st.floats(0.0, 0.1)),
            eta_cap=0.1, horizon=0.05, dt=dt,
        ))
    return members, SolverScheme(), draw(st.integers(1, 3))


class TestMemberProperties:
    @given(member_sets())
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_each_member_alone(self, drawn):
        members, scheme, stride = drawn

        def make():
            return [ApproxProblem(**kw) for kw in members]

        try:
            [solve_one(p, scheme) for p in make()]
        except SolveError:
            with pytest.raises(SolveError):
                solve_members(make(), scheme)
            return
        assert_members_match_alone(make, scheme, stride)


class TestPredictor:
    @given(max_principle_problems())
    @settings(max_examples=40, deadline=None)
    def test_start_moves_answers_within_newton_tolerance(self, p):
        scheme = SolverScheme()
        fld = solve_members([p], scheme)[0]
        _, values, _ = reference_solve(p, scheme, predict=False)
        n_outer = fld.times.size - 1
        finite = np.isfinite(fld.values) & np.isfinite(values)
        assert np.all(np.abs(fld.values - values)[finite] <= n_outer * scheme.newton_tol)

    def test_extrapolated_start_saves_newton_iterations(self):
        # A sweep-like porous-medium batch: the start must cut the summed
        # iterations by a quarter over a long run (a single short draw may not).
        def make():
            rho = DensityModel.power_law(1.0, DOM)
            phi = BoundaryData.sine(0.58, 0.19, 0.5, horizon=1.0)
            return [pme_problem(n, m=2.0, eps=eps, dt=5e-3, horizon=1.0, rho=rho, phi=phi,
                                initial=InitialData.constant(0.27))
                    for n, eps in ((21, 0.2), (41, 0.1), (81, 0.05), (161, 0.025))]

        scheme = SolverScheme()
        fields = solve_members(make(), scheme)
        predicted = sum(f.meta["newton_iterations"] for f in fields)
        plain = sum(reference_solve(p, scheme, predict=False)[2]["newton_iterations"]
                    for p in make())
        assert predicted <= 0.75 * plain, (predicted, plain)


SWEEP_CFG = """
[domain]
kind = interval
a = 0.0
b = 1.0

[density]
kind = power
alpha = 1.0

[nonlinearity]
kind = porous-medium
m = 2.0

[boundary]
kind = sine
offset = 0.6
amplitude = 0.15
frequency = 0.5

[initial]
kind = constant
value = 0.3

[numerics]
nodes = 41
dt = 0.01
t_final = 0.1
store_stride = 2

[experiment]
kind = dichotomy-sweep
eps_list = 0.2, 0.1, 0.05, 0.025
alpha_list = 1.0, 3.0
conflict_offset = 0.3
tau = 0.05
threshold = 0.05
"""


# SWEEP_CFG as any kind that steps: 81 nodes resolve the finest family level.
STEPPING_CFG = SWEEP_CFG.replace("nodes = 41", "nodes = 81").replace(
    "kind = dichotomy-sweep", "kind = dichotomy-sweep\neta_list = 0.1, 0.05, 0.025")


class TestOneSolvePerSweep:
    @staticmethod
    def count_members(monkeypatch):
        sizes = []
        real = solver.solve_members

        def counted(problems, *args, **kwargs):
            sizes.append(len(problems))
            return real(problems, *args, **kwargs)

        monkeypatch.setattr(solver, "solve_members", counted)
        return sizes

    def test_dichotomy_solves_all_members_at_once(self, tmp_path, monkeypatch):
        sizes = self.count_members(monkeypatch)
        assert run_experiment(parse_config(SWEEP_CFG), tmp_path) in (0, 1)
        assert sizes == [2 * 2 * 4]

    def test_attainment_solves_all_levels_at_once(self, tmp_path, monkeypatch):
        sizes = self.count_members(monkeypatch)
        doc = SWEEP_CFG.replace("kind = dichotomy-sweep", "kind = attainment").replace(
            "alpha_list = 1.0, 3.0\nconflict_offset = 0.3\n", "")
        assert run_experiment(parse_config(doc), tmp_path) in (0, 1)
        assert sizes == [4]

    def test_family_solves_all_members_at_once(self, tmp_path, monkeypatch):
        sizes = self.count_members(monkeypatch)
        doc = STEPPING_CFG.replace("kind = dichotomy-sweep", "kind = family")
        assert run_experiment(parse_config(doc), tmp_path) in (0, 1)
        assert sizes == [6]

    @pytest.mark.parametrize("kind, n_members", [("dichotomy-sweep", 16), ("attainment", 4),
                                                 ("family", 6), ("solve", 1)])
    def test_report_lists_member_solver_totals(self, tmp_path, kind, n_members):
        doc = STEPPING_CFG.replace("kind = dichotomy-sweep", f"kind = {kind}")
        assert run_experiment(parse_config(doc), tmp_path) in (0, 1)
        members = json.loads((tmp_path / "report.json").read_text())["payload"]["members"]
        assert len(members) == n_members
        for m in members:
            assert set(m) == {"eps", "eta", "newton_iterations", "step_halvings",
                              "max_scaled_residual"}
            assert m["newton_iterations"] > 0 and 0.0 <= m["max_scaled_residual"] <= 1e-10
        first = [0.0] if kind == "solve" else [0.2, 0.1, 0.05, 0.025]
        assert [m["eps"] for m in members[: len(first)]] == first
        if kind == "family":  # the collar levels at the least lift, then the larger lifts
            assert [m["eta"] for m in members] == [0.025] * 4 + [0.1, 0.05]
        artifact = {"family": "family_diagnostics", "solve": "trajectory_meta"}.get(
            kind, kind.split("-")[0])
        assert "members" not in json.loads((tmp_path / f"{artifact}.json").read_text())

    def test_failed_sweep_names_the_member_in_its_report(self, tmp_path):
        # A config cannot set a non-finite value, so break the parsed one.
        cfg = parse_config(SWEEP_CFG)
        cfg.sections["initial"]["value"] = math.nan
        assert run_experiment(cfg, tmp_path) == 3
        error = json.loads((tmp_path / "report.json").read_text())["error"]
        assert error["type"] == "SolveError"
        assert error["message"].startswith(
            "member 0 (eps = 0.2, eta = 0) at t = 0: initial state is not finite")
