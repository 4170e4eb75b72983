import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from collar.errors import ConfigError, LinearSolveError, SolveError, StepError
from collar.geometry import Domain, build_grid
from collar.models import BoundaryData, DensityModel, InitialData, Nonlinearity
from collar.operators import factor_tridiagonal, solve_factored, solve_tridiagonal
from collar.solver import (
    ApproxProblem,
    SolverScheme,
    blend_initial_data,
    collar_cutoff,
    extract_limit_solution,
    flux_balance_defect,
    solve_eps_eta,
    step_implicit,
)

DOM = Domain.interval(0.0, 1.0)
RHO1 = DensityModel.constant(1.0, DOM)
LIN = Nonlinearity.linear(1.0)


def generic(flux: Nonlinearity) -> Nonlinearity:
    """The same flux under a kind that does not take the prefactored linear path."""
    return Nonlinearity("generic", flux.g, flux.dg, flux.g_inv, flux.alpha0)


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
        z = collar_cutoff(d, 0.2, 0.2)
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
            phi=BoundaryData.from_callable(exact, horizon=T),
            initial=InitialData.from_callable(lambda x: exact(x, 0.0)),
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
        fld = solve_eps_eta(heat_problem(nodes=129, horizon=0.1, dt=1e-4), store_stride=100)
        mid = fld.grid.index_of(0.5)
        assert fld.values[mid, -1] == pytest.approx(np.exp(-np.pi**2 * 0.1), abs=1e-3)

    def test_constant_data_stays_lifted_constant(self):
        p = ApproxProblem(
            grid=build_grid(DOM, 65), rho=DensityModel.power_law(0.5, DOM),
            flux=Nonlinearity.porous_medium(2.0),
            phi=BoundaryData.constant(0.3, horizon=1.0), initial=InitialData.constant(0.3),
            eps=0.125, eta=0.05, eta_cap=0.1, horizon=0.2, dt=1e-2,
        )
        fld = solve_eps_eta(p)
        window = fld.values[fld.mask, :]
        assert np.max(np.abs(window - 0.35)) <= 1e-9

    def test_maximum_principle_metadata(self):
        fld = solve_eps_eta(heat_problem(horizon=0.05), store_stride=10)
        assert fld.meta["max_principle_ok"]
        K = fld.meta["bound_K"]
        assert np.nanmax(np.abs(fld.values)) <= K + 1e-6

    def test_lift_monotonicity(self):
        fields = [
            solve_eps_eta(heat_problem(nodes=65, horizon=0.05, dt=1e-3, eta=eta), store_stride=5)
            for eta in (0.025, 0.05, 0.1)
        ]
        for lower, higher in zip(fields[:-1], fields[1:]):
            gap = lower.values[lower.mask, :] - higher.values[higher.mask, :]
            assert np.max(gap) <= 1e-8

    def test_flux_balance(self):
        p = heat_problem(nodes=65, horizon=0.02, dt=1e-3)
        fld = solve_eps_eta(p, store_stride=1)
        assert flux_balance_defect(fld, p) <= 1e-12

    def test_flux_balance_radial_collar(self):
        dom = Domain.ball(1.0, dim=2)
        p = ApproxProblem(
            grid=build_grid(dom, 81), rho=DensityModel.constant(2.0, dom),
            flux=Nonlinearity.porous_medium(2.0),
            phi=BoundaryData.constant(0.5, horizon=1.0),
            initial=InitialData.constant(0.2),
            eps=0.05, eta=0.0, eta_cap=0.1, horizon=0.05, dt=2e-3,
        )
        fld = solve_eps_eta(p, store_stride=1)
        assert flux_balance_defect(fld, p) <= 1e-10

    def test_time_stamps_on_lattice(self):
        fld = solve_eps_eta(heat_problem(nodes=65, horizon=0.01, dt=1e-3), store_stride=2)
        assert fld.times[0] == 0.0
        assert fld.times[-1] == pytest.approx(0.01, abs=1e-12)
        assert np.all(np.diff(fld.times) > 0)

    def test_trajectory_csv_roundtrip(self, tmp_path):
        fld = solve_eps_eta(heat_problem(nodes=65, horizon=0.01, dt=1e-3), store_stride=5)
        path = tmp_path / "traj.csv"
        fld.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (fld.n_times, fld.grid.n + 1)
        assert np.allclose(data[:, 0], fld.times)


class TestLimitExtraction:
    def test_heat_family_converges_to_exact(self):
        p = heat_problem(nodes=81, horizon=0.05, dt=1e-3)  # h = 0.0125
        finest, diag = extract_limit_solution(
            p, [0.2, 0.1, 0.05, 0.025], [0.1, 0.05, 0.025], store_stride=10
        )
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
        finest, diag = extract_limit_solution(
            p, [0.2, 0.1, 0.05, 0.025], [0.1, 0.05, 0.025], store_stride=4
        )
        assert diag.converged
        assert diag.eps_diffs == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert diag.eta_diffs == pytest.approx([0.05, 0.025], abs=1e-12)

    def test_family_validation(self):
        p = heat_problem(nodes=81)
        with pytest.raises(ConfigError):
            extract_limit_solution(p, [0.2, 0.1, 0.05], [0.1, 0.05, 0.025])
        with pytest.raises(ConfigError):
            extract_limit_solution(p, [0.2, 0.1, 0.05, 0.025], [0.1, 0.03])


class TestScheme:
    def test_lagged_scheme_close_to_newton_for_mild_step(self):
        p = heat_problem(nodes=65, horizon=0.01, dt=1e-3)
        a = solve_eps_eta(p, SolverScheme(), store_stride=10)
        b = solve_eps_eta(p, SolverScheme(stepping="semi-implicit-lagged"), store_stride=10)
        assert np.nanmax(np.abs(a.values - b.values)) <= 1e-9  # linear flux: identical

    def test_unknown_stepping_rejected(self):
        with pytest.raises(ConfigError):
            SolverScheme(stepping="explicit")


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
    @pytest.mark.parametrize("stepping", ["implicit-newton", "semi-implicit-lagged"])
    @pytest.mark.parametrize("make", [heat_problem, radial_heat_problem])
    def test_bit_identical_to_generic_path(self, make, stepping):
        p = make()
        scheme = SolverScheme(stepping=stepping)
        fast = solve_eps_eta(p, scheme)
        slow = solve_eps_eta(dataclasses.replace(p, flux=generic(p.flux)), scheme)
        assert np.array_equal(fast.values, slow.values, equal_nan=True)
        assert fast.meta["newton_iterations"] == slow.meta["newton_iterations"]

    def test_linear_flux_skips_per_iteration_solves(self, monkeypatch):
        import collar.solver as solver

        calls = []

        def counted(*args):
            calls.append(args)
            return solve_tridiagonal(*args)

        monkeypatch.setattr(solver, "solve_tridiagonal", counted)
        solve_eps_eta(heat_problem(horizon=0.01))
        assert calls == []
        solve_eps_eta(dataclasses.replace(heat_problem(horizon=0.01), flux=generic(LIN)))
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
            solve_eps_eta(p)

    def test_nan_state_raises_step_error(self):
        p = heat_problem()
        u = p.initial_window()
        u[10] = np.nan
        with pytest.raises(StepError, match="not finite"):
            step_implicit(u, p, SolverScheme(), t_new=p.dt, dt=p.dt)

    @pytest.mark.parametrize("stepping", ["implicit-newton", "semi-implicit-lagged"])
    def test_nan_update_raises_step_error(self, stepping):
        nan_slope = Nonlinearity(
            "nan-slope", LIN.g, lambda u: np.full(np.shape(u), np.nan), LIN.g_inv, 0.0
        )
        p = dataclasses.replace(heat_problem(), flux=nan_slope)
        u = p.initial_window()
        with pytest.raises(StepError, match="update is not finite"):
            step_implicit(u, p, SolverScheme(stepping=stepping), t_new=p.dt, dt=p.dt)

    def test_nan_boundary_data_fails_the_solve(self):
        nan_trace = BoundaryData.from_callable(
            lambda x, t: np.where(np.asarray(t) > 0.005, np.nan, 0.0) + 0.0 * np.asarray(x),
            horizon=1.0,
        )
        p = dataclasses.replace(heat_problem(horizon=0.01), phi=nan_trace)
        with pytest.raises(SolveError):
            solve_eps_eta(p)


@st.composite
def max_principle_problems(draw):
    m = draw(st.one_of(st.just(None), st.floats(1.5, 3.0)))
    rho = (DensityModel.constant(draw(st.floats(0.5, 2.0)), DOM) if draw(st.booleans())
           else DensityModel.power_law(draw(st.floats(0.0, 3.0)), DOM))
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


class TestProperties:
    @given(max_principle_problems())
    @settings(max_examples=40, deadline=None)
    def test_maximum_principle(self, p):
        fld = solve_eps_eta(p)
        assert fld.meta["max_principle_ok"], fld.meta
        if p.flux.kind == "linear":
            slow = solve_eps_eta(dataclasses.replace(p, flux=generic(p.flux)))
            assert np.array_equal(fld.values, slow.values, equal_nan=True)
