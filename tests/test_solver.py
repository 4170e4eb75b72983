import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv, dptsv

from collar import experiments, solver
from collar.config import parse_config
from collar.errors import ConfigError, LinearSolveError, SolveError, StepError
from collar.experiments import run_experiment
from collar.geometry import CORE, Domain, build_grid, collar_decomposition
from collar.models import BoundaryData, DensityModel, InitialData, Nonlinearity
from collar.operators import assemble_diffusion
from collar.solver import (
    ApproxProblem,
    SolverScheme,
    blend_initial_data,
    collar_cutoff,
    extract_limit_solution,
    family_members,
    solve_members,
    step_implicit,
)
from collar.tridiagonal import factor_spd, solve_spd, solve_spd_once

DOM = Domain.interval(0.0, 1.0)
RHO1 = DensityModel.constant(1.0, DOM)
LIN = Nonlinearity.linear(1.0)


def generic(flux: Nonlinearity) -> Nonlinearity:
    """The same flux with no slope, so it steps by Newton on a matrix assembled from ``dg``."""
    return Nonlinearity(flux.g, flux.dg, flux.g_inv, flux.alpha0)


def solve_one(p: ApproxProblem, scheme=None, store_stride=1):
    """``p`` solved as the only member of its solve."""
    return solve_members([p], scheme, store_stride=store_stride)[0]


def assert_matches_generic(fld, p: ApproxProblem, scheme: SolverScheme):
    """``fld`` lies within the Newton budget of ``p`` solved under ``generic`` flux.

    Newton from a start and the direct linear solve settle each step to within
    the tolerance, so ``n_outer`` steps differ by at most ``n_outer`` of it;
    the two solves must halve alike.  ``fld`` stores every step.
    """
    slow = solve_one(dataclasses.replace(p, flux=generic(p.flux)), scheme)
    n_outer = fld.times.size - 1
    assert np.array_equal(np.isnan(fld.values), np.isnan(slow.values))
    finite = np.isfinite(fld.values)
    assert np.all(np.abs(fld.values - slow.values)[finite] <= n_outer * scheme.newton_tol)
    assert fld.meta["step_halvings"] == slow.meta["step_halvings"]


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
    """Worst per-step defect of mass change against boundary flux, one stored time at a time.

    Summed over the free rows, the conservative stencil telescopes to the flux
    through the faces next to the imposed rows, so the defect measures only the
    Newton residual.  The flux is read at the end of each stored step, so the
    field must store every step and must not have halved one.
    """
    lay = problem.layout
    op = assemble_diffusion(problem.grid)
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
        window = fld.values[np.isfinite(fld.values[:, 0])]
        assert np.max(np.abs(window - 0.35)) <= 1e-9

    def test_maximum_principle_metadata(self):
        fld = solve_one(heat_problem(horizon=0.05), store_stride=10)
        assert fld.meta["max_principle_ok"]
        K = fld.meta["bound_K"]
        assert np.nanmax(np.abs(fld.values)) <= K + 1e-6

    def test_maximum_principle_flags_an_overshoot_within_the_data_bound(self, monkeypatch):
        # The first step's peak, about 0.99, bumped by 0.04 to 1.03: above the
        # initial data's largest value, 1, but inside bound_K = 1 + eta_cap.
        p = heat_problem(horizon=0.01)
        assert solve_one(p).meta["max_principle_ok"]
        newton, bumped = solver._newton, []

        def bump_once(*args):
            u, *rest = newton(*args)
            if not bumped:
                bumped.append(np.argmax(u))
                u[bumped[0]] += 0.04
            return (u, *rest)

        monkeypatch.setattr(solver, "_newton", bump_once)
        fld = solve_one(p)
        assert 1.0 < np.nanmax(fld.values) < fld.meta["bound_K"]
        assert not fld.meta["max_principle_ok"]

    def test_newton_holds_imposed_rows_on_their_traces(self):
        # dt / h^2 = 16.4: a step matrix that kept the imposed columns would let
        # LAPACK swap an imposed row with its neighbour, and the Newton update
        # at that row would be off zero by rounding.
        p = dataclasses.replace(heat_problem(), flux=generic(LIN))
        assert p.dt / p.grid.h**2 > 16.0
        fld = solve_one(p)
        rows = p.layout.m0 + p.layout.dir_local
        bc = p.phi.phi(p.layout.dir_points, fld.times[1:, None]) + p.eta
        assert np.array_equal(fld.values[rows, 1:], bc.T)

    def test_lift_monotonicity(self):
        fields = [
            solve_one(heat_problem(nodes=65, horizon=0.05, dt=1e-3, eta=eta), store_stride=5)
            for eta in (0.025, 0.05, 0.1)
        ]
        window = np.isfinite(fields[0].values[:, 0])
        for lower, higher in zip(fields[:-1], fields[1:]):
            gap = lower.values[window] - higher.values[window]
            assert np.max(gap) <= 1e-8

    def test_flux_balance(self):
        p = heat_problem(nodes=65, horizon=0.02, dt=1e-3)
        fld = solve_one(p, store_stride=1)
        assert loop_flux_balance_defect(fld, p) <= 1e-12

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
        assert loop_flux_balance_defect(fld, p) <= 1e-10

    def test_time_stamps_on_lattice(self):
        fld = solve_one(heat_problem(nodes=65, horizon=0.01, dt=1e-3), store_stride=2)
        assert fld.times[0] == 0.0
        assert fld.times[-1] == pytest.approx(0.01, abs=1e-12)
        assert np.all(np.diff(fld.times) > 0)

    def test_csv_bytes_equal_savetxt_of_the_stacked_table(self, tmp_path):
        fld = solve_one(heat_problem(nodes=65, horizon=0.01, eps=0.125, eta=0.05), store_stride=3)
        assert np.isnan(fld.values).all(axis=1).any()  # rows outside the window
        # Negative, tiny, huge and non-finite values, in both notations of %g.
        rng = np.random.default_rng(5)
        odd = -fld.values * 10.0 ** rng.integers(-8, 20, fld.values.shape)
        odd[rng.random(odd.shape) < 0.05] = np.inf
        odd[3, :4] = [-np.inf, -0.0, -1e-310, 1.5e300]
        header = "t," + ",".join(f"x_{i}" for i in range(fld.grid.n))
        for values in (fld.values, odd):
            fld = dataclasses.replace(fld, values=values)
            fld.to_csv(tmp_path / "field.csv")
            np.savetxt(tmp_path / "table.csv", np.column_stack([fld.times, fld.values.T]),
                       delimiter=",", header=header, comments="", fmt="%.17g")
            assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()

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


def gtsv(lo, di, up, rhs):
    """The tridiagonal solve with full-length bands (``lo[0]`` and ``up[-1]`` lie
    outside the matrix) by ``solve_banded``: LAPACK ``gtsv``, the solve each
    Newton step on a Jacobian from ``dg`` took before it was scaled."""
    ab = np.zeros((3, di.size))
    ab[0, 1:], ab[1], ab[2, :-1] = up[:-1], di, lo[1:]
    return solve_banded((1, 1), ab, rhs, check_finite=False)


def random_tridiagonal(rng, n, dominance):
    lo = rng.uniform(-1.0, 1.0, n)
    up = rng.uniform(-1.0, 1.0, n)
    di = dominance * (2.0 + rng.uniform(0.0, 1.0, n)) * rng.choice([-1.0, 1.0], n)
    return lo, di, up, rng.standard_normal(n)


def random_spd(rng, n, margin):
    """Diagonal, off-diagonal (full length) and right-hand side of a symmetric
    positive definite tridiagonal matrix, diagonally dominant by ``margin``."""
    up = rng.uniform(-1.0, 1.0, n)
    up[-1] = 0.0
    di = np.abs(up) + np.abs(np.roll(up, 1)) + margin * rng.uniform(0.1, 1.0, n)
    return di, up, rng.standard_normal(n)


class TestTridiagonal:
    @pytest.mark.parametrize("n", [2, 3, 17, 801])
    def test_matches_solve_banded_bit_for_bit(self, n):
        # The reference's unscaled Jacobian is solved by ``solve_banded``: it
        # must be LAPACK's ``gtsv`` bit for bit to stand for that arithmetic.
        rng = np.random.default_rng(n)
        for _ in range(5):
            lo, di, up, rhs = random_tridiagonal(rng, n, dominance=1.0)
            *_, x, info = dgtsv(lo[1:], di, up[:-1], rhs)
            assert info == 0 and np.array_equal(gtsv(lo, di, up, rhs), x)

    @pytest.mark.parametrize("margin", [1.0, 0.2])  # diagonal over the off-diagonal sums
    def test_factored_solve_matches_direct_solve(self, margin):
        di, up, rhs = random_spd(np.random.default_rng(7), 64, margin)
        ldl = factor_spd(di, up)
        for b in (rhs, 2.0 * rhs):
            assert np.array_equal(solve_spd(ldl, b), dptsv(di, up[:-1], b)[2])
            assert np.array_equal(solve_spd_once(di.copy(), up, b.copy()), solve_spd(ldl, b))

    def test_inputs_left_untouched(self):
        # ``solve_spd_once`` may overwrite its diagonal and right-hand side, but
        # not the off-diagonal, which a step-size record keeps for every solve.
        rng = np.random.default_rng(3)
        inputs = random_spd(rng, 9, 1.0)
        before = [a.copy() for a in inputs]
        di, up, rhs = inputs
        solve_spd(factor_spd(di, up), rhs)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
        solve_spd_once(di.copy(), up, rhs.copy())
        assert np.array_equal(up, before[1])

    def test_singular_system_raises_typed_error(self):
        # Symmetric but not positive definite: its leading 2 x 2 minor is 1 - 4.
        up = np.array([2.0, 0.5, 0.5, 0.0])
        with pytest.raises(LinearSolveError) as err:
            factor_spd(np.ones(4), up)
        assert err.value.info == 2
        assert isinstance(err.value, StepError)
        with pytest.raises(LinearSolveError) as err:
            solve_spd_once(np.ones(4), up, np.ones(4))
        assert err.value.info == 2


def radial_heat_problem(nodes=65, dt=2e-3, horizon=0.04):
    dom = Domain.ball(1.0, dim=2)
    return ApproxProblem(
        grid=build_grid(dom, nodes), rho=DensityModel.power_law(0.5, dom), flux=LIN,
        phi=BoundaryData.sine(0.2, 0.1, 2.0, horizon=1.0), initial=InitialData.constant(0.4),
        eps=0.125, eta=0.025, eta_cap=0.1, horizon=horizon, dt=dt,
    )


class TestPrefactoredLinearPath:
    @pytest.mark.parametrize("make", [heat_problem, radial_heat_problem])
    def test_matches_generic_path_within_newton_tolerance(self, make):
        p = make()
        fast = solve_one(p)
        assert_matches_generic(fast, p, SolverScheme())
        assert fast.meta["newton_iterations"] == fast.times.size - 1  # one solve per step

    def test_direct_step_residual_stays_at_rounding(self):
        # dt / h^2 = 320, as in the family-heat bench.  Had the factors kept
        # the imposed columns, the solve's error at an imposed row, reset to
        # its trace, would reach the neighbour's residual 320 times over.
        p = dataclasses.replace(heat_problem(nodes=801, dt=5e-4, horizon=0.01, eps=0.125),
                                eta=0.05, phi=BoundaryData.constant(0.4, horizon=1.0))
        fld = solve_one(p)
        assert fld.meta["newton_iterations"] == fld.times.size - 1
        assert fld.meta["max_scaled_residual"] <= 1e-12

    def test_imposed_rows_hold_the_traces_bit_for_bit(self, monkeypatch):
        # At dt / h^2 > 1 a factorisation that kept the imposed columns would
        # swap an imposed row with its neighbour and return its trace only to
        # within rounding.  Every step must return the traces exactly, whether
        # or not a member sits out (the middle one halves its third step while
        # the others wait), and a member left out of the solve, whose trace is
        # NaN, takes them too.
        newton, all_stepped = solver._newton, []

        def checked(batch, state, start, scheme, bc, dt, stepping):
            out = newton(batch, state, start, scheme, bc, dt, stepping)
            on = np.repeat(stepping, batch.bc_sizes)
            assert np.array_equal(out[0][batch.dir][on], bc[on], equal_nan=True)
            all_stepped.append(all(stepping))
            return out

        def make():
            return nan_once_members(None, horizon=0.01)

        p = make()[0]
        assert p.dt / p.grid.h**2 > 1.0
        monkeypatch.setattr(solver, "_newton", checked)
        fields = assert_members_match_alone(make)
        assert [f.meta["step_halvings"] for f in fields] == [0, 1, 0]
        assert True in all_stepped and False in all_stepped

    def test_floor_does_not_apply_to_a_linear_flux(self):
        # A floor above the slope leaves a linear step as it is: one solve at
        # the exact slope, bit for bit the step at the default floor.
        scheme = SolverScheme(jacobian_floor=1.25)

        def make():
            return [heat_problem(nodes=65, horizon=0.02),
                    radial_heat_problem(dt=1e-3, horizon=0.02)]

        fields = assert_members_match_alone(make, scheme)
        for fld, plain in zip(fields, solve_members(make())):
            assert np.array_equal(fld.values, plain.values, equal_nan=True)
            assert fld.meta == plain.meta
            assert fld.meta["newton_iterations"] == fld.times.size - 1

    def test_chord_newton_finishes_an_inexact_direct_solve(self, monkeypatch):
        # The first direct solve is off by 1e-6 at one free row: the checking
        # residual sees it, and chord iterations on the same factors settle
        # the step within the tolerance, each one counted.
        p = heat_problem(horizon=0.01)
        row = int(p.layout.free_local[10])
        factors = []

        def off_once(ldl, rhs):
            out = solve_spd(ldl, rhs)
            factors.append(ldl)
            if len(factors) == 1:
                out[row] += 1e-6
            return out

        newton, steps = solver._newton, []

        def spy(*args):
            out = newton(*args)
            steps.append((out[1][0], out[2][0]))
            return out

        monkeypatch.setattr(solver, "solve_spd", off_once)
        monkeypatch.setattr(solver, "_newton", spy)
        fld = solve_one(p)
        scheme = SolverScheme()
        (iters, norm), rest = steps[0], steps[1:]
        assert iters > 1 and norm <= scheme.newton_tol
        assert all(ldl is factors[0] for ldl in factors[1:iters])  # chord on the same factors
        assert [it for it, _ in rest] == [1] * len(rest)
        assert fld.meta["newton_iterations"] == len(factors) == len(steps) + iters - 1
        assert fld.meta["step_halvings"] == 0
        assert fld.meta["max_scaled_residual"] <= scheme.newton_tol

    def test_linear_flux_skips_per_iteration_solves(self, monkeypatch):
        import collar.solver as solver

        calls = []

        def counted(*args):
            calls.append(args)
            return solve_spd_once(*args)

        monkeypatch.setattr(solver, "solve_spd_once", counted)
        solve_one(heat_problem(horizon=0.01))
        assert calls == []
        solve_one(dataclasses.replace(heat_problem(horizon=0.01), flux=generic(LIN)))
        assert len(calls) == 10

    def test_factor_cache_keyed_by_step_size(self):
        # One record per step size: the floor does not apply to a linear flux,
        # so a floor of 1.25 steps on the record of the default floor.
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
        assert np.array_equal(reused[1], reused[2])
        assert list(p._solo._steps) == [p.dt / 2, p.dt]


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
        nan_slope = Nonlinearity(LIN.g, lambda u: np.full(np.shape(u), np.nan), LIN.g_inv, 0.0)
        p = dataclasses.replace(heat_problem(), flux=nan_slope)
        u = p.initial_window()
        with pytest.raises(StepError, match="update is not finite"):
            step_implicit(u, p, SolverScheme(), t_new=p.dt, dt=p.dt)

    def test_nan_trace_fails_a_linear_step_unsolved(self):
        # The direct solve leaves out a member whose right-hand side is not
        # finite, so it fails with no iteration counted, as Newton's start did.
        p = dataclasses.replace(heat_problem(), phi=nan_once(1e-3))
        with pytest.raises(StepError, match="scaled residual is not finite after 0 iterations"):
            step_implicit(p.initial_window(), p, SolverScheme(), t_new=p.dt, dt=p.dt)

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


#: An interval, a ball or an annulus, each of width 1; the radial ones in 2 to 4 dimensions.
DOMAINS = st.one_of(st.just(DOM), st.integers(2, 4).map(lambda d: Domain.ball(1.0, dim=d)),
                    st.integers(2, 4).map(lambda d: Domain.annulus(0.5, 1.5, dim=d)))


def densities(dom, alphas=st.floats(0.0, 3.0), values=st.floats(0.2, 5.0)):
    """Constant, power-law and five-knot table densities on ``dom``."""
    return st.one_of(
        st.floats(0.5, 2.0).map(lambda c: DensityModel.constant(c, dom)),
        alphas.map(lambda alpha: DensityModel.power_law(alpha, dom)),
        st.lists(values, min_size=5, max_size=5).map(
            lambda v: DensityModel.from_table(np.linspace(dom.lo, dom.hi, 5), v, dom)))


_KNOTS = np.linspace(-3.0, 3.0, 13)

#: Linear, porous-medium and 13-knot table fluxes, the table from -3 to 3.
FLUXES = st.one_of(
    st.floats(0.5, 2.0).map(Nonlinearity.linear),
    st.floats(1.5, 3.0).map(Nonlinearity.porous_medium),
    st.floats(0.0, 0.5).map(lambda c: Nonlinearity.from_table(_KNOTS, _KNOTS + c * _KNOTS**3)))


@st.composite
def flux_balance_problems(draw, alphas):
    """One problem on an interval, a ball or an annulus under any density and flux."""
    dom = draw(DOMAINS)
    return ApproxProblem(
        grid=build_grid(dom, draw(st.sampled_from([17, 25, 33]))),
        rho=draw(densities(dom, alphas)), flux=draw(FLUXES),
        phi=BoundaryData.sine(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.0, 0.3)),
                              draw(st.floats(0.5, 3.0)), horizon=1.0),
        initial=InitialData.sine(dom, draw(st.floats(-1.0, 1.0)), draw(st.integers(1, 3)),
                                 offset=draw(st.floats(-0.5, 0.5))),
        eps=draw(st.sampled_from([0.0, 0.125, 0.25])), eta=draw(st.floats(0.0, 0.1)),
        eta_cap=0.1, horizon=0.1, dt=draw(st.sampled_from([5e-3, 1e-2, 2e-2])),
    )


@st.composite
def contraction_members(draw):
    """Three members of one solve on one grid, collar level, trace and flux.

    ``a`` and ``b`` share their lift and differ in initial data; ``c`` starts at
    or above both, with a lift no lower than theirs.  The data are piecewise
    linear on 13 knots: rough data are slow to contract, so they show a wrong
    weight or stencil in more draws than smooth data do.
    """
    dom = draw(DOMAINS)
    rho = draw(densities(dom, st.floats(1.0, 3.0), st.floats(0.1, 10.0)))
    flux = draw(FLUXES)
    traces = [BoundaryData.sine(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.0, 0.3)),
                                draw(st.floats(0.5, 3.0)), horizon=1.0)]
    if len(dom.boundary_points()) == 2:  # a sided trace needs two
        traces.append(BoundaryData.sided(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)),
                                         dom))
    phi = draw(st.sampled_from(traces))
    knots = np.linspace(dom.lo, dom.hi, 13)

    def rough():
        values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=13, max_size=13)))
        return InitialData(functools.partial(np.interp, xp=knots, fp=values))

    u_a, u_b = rough(), rough()
    above = draw(st.floats(0.0, 0.5))
    u_c = InitialData(lambda x: np.maximum(u_a.u0(x), u_b.u0(x)) + above)
    eta = draw(st.floats(0.0, 0.05))
    p = ApproxProblem(
        grid=build_grid(dom, draw(st.sampled_from([17, 25, 33]))), rho=rho, flux=flux, phi=phi,
        initial=u_a, eps=draw(st.sampled_from([0.0, 0.125, 0.25])), eta=eta, eta_cap=0.1,
        horizon=0.1, dt=draw(st.sampled_from([5e-3, 1e-2, 2e-2])),
    )
    return [p, dataclasses.replace(p, initial=u_b),
            dataclasses.replace(p, initial=u_c, eta=draw(st.floats(eta, 0.1)))]


class TestProperties:
    @given(max_principle_problems())
    @settings(max_examples=40, deadline=None)
    def test_maximum_principle(self, p):
        fld = solve_one(p)
        assert fld.meta["max_principle_ok"], fld.meta
        if p.flux.slope is not None:
            assert_matches_generic(fld, p, SolverScheme())

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
        p = data.draw(flux_balance_problems(ALPHA_REGIMES[regime]))
        scheme = SolverScheme()
        fld = solve_one(p, scheme)
        assume(fld.meta["step_halvings"] == 0)
        free = p.layout.free_local + p.layout.m0
        weights = p.rho.rho(p.grid.nodes[free]) * assemble_diffusion(p.grid).volumes[free]
        assert loop_flux_balance_defect(fld, p) <= scheme.newton_tol * np.sum(weights)

    @pytest.mark.parametrize("regime", ALPHA_REGIMES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_ordered_lifts_pass_comparison(self, regime, data):
        # Ordered lifts order the values at every collar level's interface past
        # tau, which is comparison's hypothesis, and so the core values too.
        p = data.draw(max_principle_problems(ALPHA_REGIMES[regime]))
        etas = sorted(data.draw(st.lists(st.floats(0.0, 0.1), min_size=2, max_size=2)))
        low, high = solve_members([dataclasses.replace(p, eta=eta) for eta in etas])
        levels = [e for e in (0.125, 0.25) if e >= p.eps]
        past_tau = low.times > p.horizon / 2
        assert np.any(past_tau)
        for e in levels:
            rows = collar_decomposition(p.grid, e).interface
            gap = low.values[rows][:, past_tau] - high.values[rows][:, past_tau]
            assert np.nanmax(gap) <= 1e-8, (e, np.nanmax(gap))
        core = collar_decomposition(p.grid, max(levels)).labels == CORE
        gap = low.values[core] - high.values[core]
        assert np.nanmax(gap) <= 1e-8, np.nanmax(gap)

    @given(contraction_members())
    @settings(max_examples=150, deadline=None)
    def test_weighted_l1_contraction_and_comparison(self, members):
        # Implicit Euler on the conservative stencil contracts sum_free rho V (u - v)^+
        # when G is increasing and u's trace is at most v's: each step's growth is
        # at most both members' Newton residuals, newton_tol apiece, weighted by
        # rho V over the free rows.  Equal traces give the |u - v| sum too; ordered
        # data and traces start the positive part at 0, which is comparison.
        scheme = SolverScheme()
        a, b, c = fields = solve_members(members, scheme)
        # The claims compare one scheme on one time lattice; these draws never halve.
        assert [f.meta["step_halvings"] for f in fields] == [0, 0, 0]
        p = members[0]
        free = p.layout.m0 + p.layout.free_local
        weights = p.rho.rho(p.grid.nodes[free]) * assemble_diffusion(p.grid).volumes[free]
        growth = 2.0 * scheme.newton_tol * np.sum(weights)

        def distance(u, v, part):
            d = weights @ part(u.values[free] - v.values[free])
            assert np.all(np.diff(d) <= growth), np.max(np.diff(d)) / growth
            return d

        positive = functools.partial(np.maximum, 0.0)
        for u, v, part in [(a, b, positive), (b, a, positive), (a, b, np.abs)]:
            distance(u, v, part)
        for u in (a, b):
            assert distance(u, c, positive)[0] == 0.0


def reference_solve(p: ApproxProblem, scheme: SolverScheme, store_stride: int = 1,
                    predict: bool = True, unscaled: bool = False):
    """One problem stepped alone, as the solver did before members were batched.

    With ``predict``, each unhalved outer step starts Newton at the
    extrapolation of the last outer states, in the solver's operation order;
    without it, at the current state.  Every step matrix has its imposed
    columns moved to the right-hand side.  A linear flux needs no start: its
    first iteration is the direct solve at its exact slope, and chord Newton
    goes on with that solve only while the residual is above the tolerance.
    Every solve is LAPACK ``ptsv`` on the matrix scaled to a symmetric one;
    with ``unscaled``, a Jacobian from ``dg`` is instead solved as it stands,
    by ``gtsv``, which is how the solver once took it.  Returns ``(times,
    values, meta)``, with the Newton iterations, the largest accepted scaled
    residual and the halvings in ``meta``.
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

        def bands(v, rhs=None):
            """Newton bands at ``v``, their imposed columns moved to ``rhs`` if given."""
            if linear:
                gp = np.full(v.size, p.flux.slope)
            else:
                gp = np.maximum(np.asarray(p.flux.dg(v), dtype=float), scheme.jacobian_floor)
            lo, up = np.zeros_like(gp), np.zeros_like(gp)
            lo[1:] = -scale[1:] * op.lo[1:] * gp[:-1]
            up[:-1] = -scale[:-1] * op.up[:-1] * gp[1:]
            di = 1.0 - scale * op.di * gp
            lo[lay.dir_local] = up[lay.dir_local] = 0.0
            di[lay.dir_local] = 1.0
            for band, side in ((lo, 1), (up, -1)):
                for k, row in enumerate(lay.dir_local + side):
                    if 0 <= row < lay.size and row not in lay.dir_local:
                        if rhs is not None:
                            rhs[row] -= band[row] * bc[k]
                        band[row] = 0.0
            return lo, di, up

        def symmetric(rhs, v=None):
            """``A^-1 rhs`` for the Newton matrix ``A`` at ``v``, or at the linear slope
            without ``v``.  The rows of ``A`` scaled by ``w = V rho / dt`` and its
            columns by ``1 / gp`` are symmetric positive definite, so it is solved
            as ``z = (W A D^-1)^-1 W rhs`` and ``D^-1 z``; at the slope ``c`` the
            columns multiply back to ``W A = W - c K``.  Where ``gp_j`` is 0 (to
            ``solver._ZERO_SLOPE``), column j is a unit column: row j solves as an
            identity row, and ``delta_j`` comes from row j of ``A``."""
            w = op.volumes * p._rho_w / dt
            w[lay.dir_local] = 1.0
            b = w * rhs
            if v is None:
                c = p.flux.slope
                d, e = w - c * (op.volumes * op.di), -c * (op.volumes * op.up)
            else:
                gp = np.maximum(np.asarray(p.flux.dg(v), dtype=float), scheme.jacobian_floor)
                gp[lay.dir_local] = 1.0
                if not np.isfinite(gp).all():
                    raise StepError("Newton update is not finite")
                zero = np.flatnonzero(gp <= solver._ZERO_SLOPE * w)
                gp[zero], b[zero] = 1.0, 0.0
                d, e = w / gp - op.volumes * op.di, -op.volumes * op.up
                e[zero] = e[zero - 1] = 0.0  # e[-1] lies outside the matrix
            d[lay.dir_local] = 1.0
            e[lay.dir_local] = 0.0
            e[lay.dir_local[lay.dir_local > 0] - 1] = 0.0
            z = dptsv(d, e[:-1], b)[2]
            if v is None:
                return z
            delta = z / gp
            delta[zero] = rhs[zero] + scale[zero] * op.apply(z)[zero]
            return delta

        linear, iters = p.flux.slope is not None, 0
        if linear:
            b = state.copy()
            b[lay.dir_local] = bc
            bands(u, b)  # moves the imposed columns to ``b``
            u = symmetric(b)
            iters = 1
        res, norm = residual(u)
        while norm > tol and iters < scheme.max_iterations:
            if linear:
                delta = symmetric(-res)
            elif unscaled:
                try:
                    delta = gtsv(*bands(u), -res)
                except np.linalg.LinAlgError:
                    raise StepError("zero pivot") from None
            else:
                delta = symmetric(-res, u)
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

    return Nonlinearity(g, flux.dg, flux.g_inv, flux.alpha0)


def nan_jacobian_first(flux: Nonlinearity, calls: int, cap: float) -> Nonlinearity:
    """``flux`` whose derivative is NaN above ``cap`` on its first ``calls`` evaluations."""
    seen = []

    def dg(u):
        seen.append(None)
        out = np.asarray(flux.dg(u), dtype=float)
        return np.where(np.asarray(u) > cap, np.nan, out) if len(seen) <= calls else out

    return Nonlinearity(flux.g, dg, flux.g_inv, flux.alpha0)


def nan_once(t_nan: float, value: float = 0.2, times: int = 1) -> BoundaryData:
    """The trace ``value``, but NaN at ``t_nan`` in the first ``times`` evaluations that include it.

    A member under it fails the step ending at ``t_nan`` ``times`` times over;
    each halved retry evaluates the trace there again, and the last one steps.
    """
    hit = []

    def trace(x, t):
        at = np.abs(np.asarray(t, float) - t_nan) < 1e-12
        nan = len(hit) < times and bool(at.any())
        if nan:
            hit.append(None)
        return np.asarray(x, float) * 0.0 + np.where(nan & at, np.nan, value)

    return BoundaryData(trace, horizon=1.0)


def nan_once_members(m, horizon):
    """Three members; the middle one's trace is NaN once at the third outer time.

    So its residual is NaN from the start of that step while the others
    iterate; the next block is a ball whose free centre row meets the NaN trace.
    """
    flux = LIN if m is None else Nonlinearity.porous_medium(m)
    return [pme_problem(n, dom=dom, flux=flux, dt=1e-3, horizon=horizon, phi=phi)
            for n, dom, phi in ((33, DOM, BoundaryData.sine(0.2, 0.1, 2.0)),
                                (17, DOM, nan_once(3e-3)),
                                (21, BALL, BoundaryData.sine(0.2, 0.1, 2.0)))]


def inject_jacobian_entry(monkeypatch, when, call=1, value=np.nan):
    """Arms one Jacobian entry ``value`` at the first ``_newton`` call for which
    ``when(batch, dt, stepping)`` returns a row, and puts it at that row in the
    ``call``-th evaluation of the batch's ``dg`` from then on.

    Returns a log: the row, the ``stepping`` masks of the ``_newton`` calls
    from the armed one on, the ``dg`` evaluations and the number of those
    ``_newton`` calls when it fired.
    """
    newton, log = solver._newton, {"row": None, "masks": [], "calls": 0, "fired_in": None}

    def spy(batch, state, start, scheme, bc, dt, stepping):
        if log["row"] is None:
            log["row"] = when(batch, dt, stepping)
            if log["row"] is not None:
                flux = batch.flux

                def dg(u):
                    out = np.array(flux.dg(u), dtype=float)
                    log["calls"] += 1
                    if log["calls"] == call:
                        log["fired_in"] = len(log["masks"])
                        out[log["row"]] = value
                    return out

                batch.flux = Nonlinearity(flux.g, dg, flux.g_inv, flux.alpha0)
        if log["row"] is not None:
            log["masks"].append(list(stepping))
        return newton(batch, state, start, scheme, bc, dt, stepping)

    monkeypatch.setattr(solver, "_newton", spy)
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
        # Members 1 and 2 are equal and halve together; a NaN Jacobian entry
        # fails member 2 in a sub-step that is neither the first nor the last
        # of a halved step, and member 1 steps on through the next sub-step.
        def make():
            return [pme_problem(n) for n in (17, 65, 65)]

        run = []  # the step sizes of the calls in the current run of both halved members

        def mid_substep(batch, dt, stepping):
            # One level's sub-steps of one outer step are one run of calls with
            # one mask and one step size; the run's j-th call is sub-step j.
            both = stepping == [False, True, True]
            if not both or (run and not math.isclose(dt, run[-1])):
                run.clear()
            if both:
                run.append(dt)
            if 1 < len(run) < round(0.5 / dt):  # neither the first nor the last sub-step
                return int(batch.starts[2]) + 1  # a free row
            return None

        alone = [solve_one(p) for p in make()]
        log = inject_jacobian_entry(monkeypatch, mid_substep)
        fields = solve_members(make())
        assert log["fired_in"] == 1
        assert log["masks"][:2] == [[False, True, True], [False, True, False]]
        assert fields[2].meta["step_halvings"] == alone[2].meta["step_halvings"] + 1
        assert_match(fields, alone, (0, 1))

    def test_non_finite_jacobian_in_a_member_sitting_out_fails_nobody(self, monkeypatch):
        # Member 0 sits out while member 1 sub-steps; the NaN is at a free row of its block.
        def make():
            return [pme_problem(33), pme_problem(65)]

        def sitting_out(batch, dt, stepping):
            return 1 if stepping == [False, True] else None

        alone = [solve_one(p) for p in make()]
        log = inject_jacobian_entry(monkeypatch, sitting_out)
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

    @staticmethod
    def nan_jacobian_members(*above):
        """A member per entry of ``above``; the Jacobian is NaN above 0.75 at the
        first evaluation, which reaches, per entry, no row (``None``), the
        imposed rows alone (``"imposed"``) or the free rows alone (``"free"``)."""
        flux = nan_jacobian_first(pme(2.0), 1, cap=0.75)
        data = {None: (0.5, 0.0), "imposed": (1.0, 0.0), "free": (0.5, 0.8)}
        return [pme_problem(n, flux=flux, dt=0.05, horizon=0.2,
                            phi=BoundaryData.constant(data[a][0], horizon=1.0),
                            initial=InitialData.constant(data[a][1]))
                for n, a in zip((33, 17, 25), above)]

    def test_non_finite_jacobian_fails_its_member_alone(self):
        # Only the middle member's state lies above the NaN cap at free rows.
        fields = assert_members_match_alone(
            lambda: self.nan_jacobian_members(None, "free", None))
        assert [f.meta["step_halvings"] for f in fields] == [0, 1, 0]

    @pytest.mark.parametrize("above, halvings", [((None, "imposed", None), [0, 0, 0]),
                                                 (("free", "imposed", None), [1, 0, 0])])
    def test_non_finite_jacobian_at_imposed_rows_never_reaches_the_solve(self, above, halvings):
        # The bands leave an imposed node's column out, so its Jacobian entry is
        # never read: that member steps unhalved, also beside a member that fails.
        fields = assert_members_match_alone(lambda: self.nan_jacobian_members(*above))
        assert [f.meta["step_halvings"] for f in fields] == halvings

    # The free rows nearest either side of a block edge; each block ends in an imposed row.
    @pytest.mark.parametrize("owner, offset", [(0, -2), (1, 1)])
    def test_non_finite_jacobian_maps_to_the_member_owning_its_row(self, monkeypatch, owner,
                                                                   offset):
        def make():
            return [pme_problem(n, m=2.0, dt=0.05, horizon=0.2) for n in (17, 33, 25)]

        alone = [solve_one(p) for p in make()]
        row = make()[0].layout.size + offset
        log = inject_jacobian_entry(monkeypatch, lambda batch, dt, stepping: row)
        fields = solve_members(make())
        assert log["fired_in"] == 1
        assert [f.meta["step_halvings"] for f in fields] == [int(k == owner) for k in range(3)]
        assert_match(fields, alone, {0, 1, 2} - {owner})

    @pytest.mark.parametrize("call", [1, 30, 200])
    def test_non_finite_jacobian_in_a_member_not_iterating_fails_nobody(self, monkeypatch, call):
        # Member 0 stays at its zero trace with a zero residual, so alone it
        # makes no linear solve; a NaN Jacobian entry in its block is not its failure.
        def make():
            return [pme_problem(17, phi=BoundaryData.constant(0.0, horizon=2.0)), pme_problem(65)]

        alone = [solve_one(p) for p in make()]
        assert alone[0].meta["newton_iterations"] == 0
        log = inject_jacobian_entry(monkeypatch, lambda batch, dt, stepping: 1, call)
        fields = solve_members(make())
        assert log["calls"] > call
        assert_match(fields, alone, (0, 1))

    @pytest.mark.parametrize("call", [1, 30, 200])
    def test_zero_pivot_in_a_member_not_iterating_fails_nobody(self, monkeypatch, call):
        # With no Jacobian floor, a zero slope ``gp_j = 0`` is a zero pivot of the
        # column scaling ``D``: column j of the Newton matrix is a unit column and
        # row j solves as an identity row.  Member 0 rests at its constant trace
        # with a zero residual, so alone it makes no linear solve; a zero slope
        # in its block is not its failure.
        scheme = SolverScheme(jacobian_floor=0.0)

        def make():
            return [pme_problem(17, phi=BoundaryData.constant(0.5, horizon=2.0),
                                initial=InitialData.constant(0.5)), pme_problem(65)]

        alone = [solve_one(p, scheme) for p in make()]
        assert alone[0].meta["newton_iterations"] == 0
        log = inject_jacobian_entry(monkeypatch, lambda batch, dt, stepping: 1, call, value=0.0)
        solve, couplings = solver.solve_spd_once, []

        def spy(di, up, rhs):
            if log["fired_in"] is not None and not couplings:
                couplings.append(up[:2].copy())  # the solve of the zero slope's iteration
            return solve(di, up, rhs)

        monkeypatch.setattr(solver, "solve_spd_once", spy)
        fields = solve_members(make(), scheme)
        assert log["calls"] > call
        assert np.array_equal(couplings, [[0.0, 0.0]])  # row 1 decoupled from rows 0 and 2
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
        # One step-size record per dt, factored for a linear flux only; the
        # least recently used is dropped first.
        problems = [heat_problem(), radial_heat_problem()]
        for flux in (LIN, pme(2.0)):
            batch = solver._Batch([dataclasses.replace(p, flux=flux) for p in problems])
            first = batch.step(1e-3)
            for k in range(10):
                assert batch.step(1e-3) is first  # kept while recently used
                batch.step(1e-3 * (2 + k))
            assert list(batch._steps) == [1e-3, 1e-3 * 11]
            assert len(batch._steps) == solver._STEP_CACHE
            assert (first.ldl is not None) == (flux is LIN)
            assert np.array_equal(first.scale, 1e-3 / batch.rho)

    def test_index_sets_equal_numpy_set_operations(self):
        problems = [pme_problem(17), pme_problem(33, eps=0.125), pme_problem(21, dom=BALL),
                    pme_problem(25, dom=BALL, eps=0.25)]
        for p in problems:
            old = np.setdiff1d(np.arange(p.layout.size), p.layout.dir_local)
            assert np.array_equal(p.layout.free_local, old)
            assert p.layout.free_local.dtype == old.dtype
        for members in (problems[:1], problems[2:3], problems, problems[::-1]):
            batch = solver._Batch(members)
            rows = np.arange(batch.sizes.sum())
            # A coupling is zero at an imposed row, at a block edge and beside an
            # imposed row, whose column every step matrix leaves out.
            zero, beside = {}, {}
            for edges, side in ((batch.starts, 1), (batch.starts + batch.sizes - 1, -1)):
                kept = np.union1d(batch.dir, edges)
                zero[side] = np.intersect1d(np.union1d(kept, batch.dir + side), rows)
                beside[side] = np.setdiff1d(zero[side], kept)
            # Each imposed row couples to the one row beside it within its block.
            inner = np.where(np.isin(batch.dir + 1, beside[1]), batch.dir + 1, batch.dir - 1)
            assert np.array_equal(batch.inner, inner)
            assert np.array_equal(np.sort(batch.inner), np.union1d(beside[1], beside[-1]))
            assert batch.inner.dtype == inner.dtype
            # Coupling i joins rows i and i + 1, so it is zero on both sides alike.
            up_zero = np.flatnonzero(batch.step(1e-3).e == 0.0)
            assert np.array_equal(up_zero, zero[-1])
            inside = up_zero[up_zero < rows[-1]]
            assert np.array_equal(inside + 1, zero[1][zero[1] > 0])

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
    """``(make, scheme, stride, halving)``: ``make`` builds the members of one solve afresh.

    The members share sine and ramp traces; with ``halving``, member 0's trace
    is NaN once at an outer time, so that member halves.  A Jacobian floor of
    0 lets a porous-medium flux's ``dg`` vanish at a zero state.
    """
    m = draw(st.one_of(st.none(), st.floats(1.5, 3.0)))
    flux = LIN if m is None else Nonlinearity.porous_medium(m)
    specs = [(draw(st.sampled_from(["sine", "ramp"])), draw(st.floats(0.0, 0.5)),
              draw(st.sampled_from([0.0, 0.2])), draw(st.floats(0.5, 3.0)))
             for _ in range(draw(st.integers(1, 2)))]
    dt = draw(st.sampled_from([5e-3, 1e-2]))
    halving = draw(st.booleans())
    t_nan = draw(st.integers(1, round(0.05 / dt))) * dt
    members = []
    for k in range(draw(st.integers(1, 5)) + halving):
        dom = draw(st.sampled_from([DOM, BALL]))
        rho = (DensityModel.constant(draw(st.floats(0.5, 2.0)), dom) if draw(st.booleans())
               else DensityModel.power_law(draw(st.floats(0.0, 2.0)), dom))
        members.append(dict(
            grid=build_grid(dom, draw(st.sampled_from([17, 25, 33]))), rho=rho,
            flux=flux, phi=draw(st.integers(0, len(specs) - 1)) if k or not halving else -1,
            initial=InitialData.sine(dom, draw(st.floats(-1.0, 1.0)), draw(st.integers(1, 3)),
                                     offset=draw(st.floats(0.0, 0.5))),
            eps=draw(st.sampled_from([0.0, 0.125, 0.25])), eta=draw(st.floats(0.0, 0.1)),
            eta_cap=0.1, horizon=0.05, dt=dt,
        ))

    def make():
        traces = [BoundaryData.sine(offset, amplitude, frequency, horizon=1.0) if kind == "sine"
                  else BoundaryData.ramp(offset, amplitude * frequency, horizon=1.0)
                  for kind, offset, amplitude, frequency in specs] + [nan_once(t_nan)]
        return [ApproxProblem(**dict(kw, phi=traces[kw["phi"]])) for kw in members]

    scheme = SolverScheme(jacobian_floor=draw(st.sampled_from([0.0, 1e-8])))
    return make, scheme, draw(st.integers(1, 3)), halving


class TestMemberProperties:
    @given(member_sets())
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_each_member_alone(self, drawn):
        make, scheme, stride, halving = drawn
        try:
            [solve_one(p, scheme) for p in make()]
        except SolveError:
            with pytest.raises(SolveError):
                solve_members(make(), scheme)
            return
        fields = assert_members_match_alone(make, scheme, stride)
        assert fields[0].meta["step_halvings"] >= halving


class TestScaledNewton:
    """Newton on a Jacobian from ``dg`` solves the matrix scaled to ``W / gp - K``
    (see ``solver._StepSize``); the unscaled Jacobian it replaced, solved by
    ``gtsv``, must reach the same accepted states within the Newton budget."""

    @staticmethod
    def assert_agrees_with_unscaled(fld, p: ApproxProblem, scheme: SolverScheme):
        _, values, _ = reference_solve(p, scheme, unscaled=True)
        n_outer = fld.times.size - 1
        finite = np.isfinite(fld.values) & np.isfinite(values)
        assert np.array_equal(finite, np.isfinite(fld.values))
        assert np.all(np.abs(fld.values - values)[finite] <= n_outer * scheme.newton_tol)

    def test_default_floor_keeps_a_degenerate_start_from_halving(self):
        # From u0 = 0 on m = 2, a floor of 0 takes 175 iterations and 5 halvings;
        # the default 1e-8 takes 39 and none (SolverScheme's docstring says why).
        fld = solve_one(pme_problem(65, m=2.0, dt=0.5))
        assert fld.meta["step_halvings"] == 0
        assert fld.meta["newton_iterations"] <= 39

    @pytest.mark.parametrize("m", [2.0, 3.0])
    def test_zero_slope_rows_step_exactly(self, m):
        # From u0 = 0 under a floor of 0, G'(0) = 0 makes every free column
        # that the front has not reached a unit column: those rows solve as
        # identity rows and take their updates from their own rows.
        scheme = SolverScheme(jacobian_floor=0.0)
        fields = assert_members_match_alone(lambda: [pme_problem(33, m=m), pme_problem(65, m=m)],
                                            scheme)
        fld = fields[1]
        assert fld.meta["newton_iterations"] > 0
        assert fld.meta["max_scaled_residual"] <= scheme.newton_tol
        self.assert_agrees_with_unscaled(fld, pme_problem(65, m=m), scheme)

    @given(max_principle_problems(), st.sampled_from([0.0, 1e-8]))
    @settings(max_examples=40, deadline=None)
    def test_accepted_states_agree_with_the_unscaled_jacobian(self, p, floor):
        # A linear flux without its slope takes the same Newton path, at gp = c.
        if p.flux.slope is not None:
            p = dataclasses.replace(p, flux=generic(p.flux))
        scheme = SolverScheme(jacobian_floor=floor)
        self.assert_agrees_with_unscaled(solve_one(p, scheme), p, scheme)


@st.composite
def linear_steps(draw):
    """``(problems, dt)``: two or three linear members of one solve on one grid,
    with distinct collar widths and their own lifts, and a step ``dt`` of
    ``dt / h^2`` from 1e-2 to 1e4."""
    dom = draw(DOMAINS)
    rho = draw(densities(dom))
    grid = build_grid(dom, draw(st.sampled_from([33, 65, 129])))
    dt = 10.0 ** draw(st.floats(-2.0, 4.0)) * grid.h**2
    cap = int(dom.collar_cap / grid.h + 1e-9)
    steps = draw(st.lists(st.sampled_from([0, *range(2, cap + 1)]), min_size=2, max_size=3,
                          unique=True))
    flux = Nonlinearity.linear(draw(st.floats(0.5, 2.0)))
    phi = BoundaryData.sine(draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.3)),
                            draw(st.floats(0.5, 3.0)), horizon=max(1.0, dt))
    initial = InitialData.sine(dom, draw(st.floats(-1.0, 1.0)), draw(st.integers(1, 3)),
                               offset=draw(st.floats(0.0, 0.5)))
    return [ApproxProblem(grid=grid, rho=rho, flux=flux, phi=phi, initial=initial,
                          eps=m * grid.h, eta=draw(st.floats(0.0, 0.1)), eta_cap=0.1,
                          horizon=dt, dt=dt)
            for m in steps], dt


def slope_solve(p: ApproxProblem, dt: float, state, bc):
    """``p``'s linear step by ``gtsv`` on ``A = I - c (dt / rho) L``: identity rows at
    the imposed nodes, whose columns move to the right-hand side."""
    lay, op, c = p.layout, p._window_op, p.flux.slope
    scale = dt / p._rho_w
    lo, di, up = -c * scale * op.lo, 1.0 - c * scale * op.di, -c * scale * op.up
    rhs = state.copy()
    imposed = np.zeros(lay.size, dtype=bool)
    imposed[lay.dir_local] = True
    for k, row in enumerate(lay.dir_local):
        for band, i in ((lo, row + 1), (up, row - 1)):
            if 0 <= i < lay.size and not imposed[i]:
                rhs[i] -= band[i] * bc[k]
                band[i] = 0.0
    lo[imposed] = up[imposed] = 0.0
    di[imposed] = 1.0
    rhs[imposed] = bc
    return gtsv(lo, di, up, rhs)


class TestLinearStepProperties:
    @given(linear_steps())
    @settings(max_examples=60, deadline=None)
    def test_direct_step_is_the_slope_solve(self, drawn):
        problems, dt = drawn
        batch = solver._Batch(problems)
        scheme = SolverScheme()
        state = np.concatenate([p.initial_window() for p in problems])
        bc = batch.traces([dt])[0]
        size = batch.step(dt)  # dpttrf's info > 0 would raise LinearSolveError here
        assert np.all(size.ldl[0] > 0.0)  # D of L D L^T: positive definite
        direct = []

        def spy(ldl, rhs):
            out = solve_spd(ldl, rhs)
            direct.append(out.copy())
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "solve_spd", spy)
            u, _, _, errors = solver._newton(batch, state, None, scheme, bc, dt,
                                             [True] * len(problems))
        assert errors == {}
        assert np.array_equal(direct[0][batch.dir], bc)
        for k, p in enumerate(problems):
            rows = slice(batch.starts[k], batch.starts[k] + batch.sizes[k])
            bc_rows = slice(batch.bc_starts[k], batch.bc_starts[k] + batch.bc_sizes[k])
            slow = slope_solve(p, dt, state[rows], bc[bc_rows])
            assert np.max(np.abs(u[rows] - slow)) <= scheme.newton_tol


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


# SWEEP_CFG's [experiment] keys, as each other kind that steps takes them.
_LEVELS = "eps_list = 0.2, 0.1, 0.05, 0.025"
_STEPPING = {"solve": "", "family": f"{_LEVELS}\neta_list = 0.1, 0.05, 0.025\n",
             "attainment": f"{_LEVELS}\ntau = 0.05\nthreshold = 0.05\n"}


def stepping_cfg(kind: str) -> str:
    """SWEEP_CFG as ``kind``, on 81 nodes, which resolve the finest family level."""
    head, body = SWEEP_CFG.replace("nodes = 41", "nodes = 81").split("kind = dichotomy-sweep\n")
    return f"{head}kind = {kind}\n{_STEPPING.get(kind, body)}"


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
        doc = stepping_cfg("family")
        assert run_experiment(parse_config(doc), tmp_path) in (0, 1)
        assert sizes == [6]

    @pytest.mark.parametrize("kind, n_members", [("dichotomy-sweep", 16), ("attainment", 4),
                                                 ("family", 6), ("solve", 1)])
    def test_report_lists_member_solver_totals(self, tmp_path, kind, n_members):
        doc = stepping_cfg(kind)
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

    def test_failed_sweep_names_the_member_in_its_report(self, tmp_path, capsys):
        # A config cannot set a non-finite value, so break the parsed one.
        cfg = parse_config(SWEEP_CFG)
        cfg.sections["initial"]["value"] = math.nan
        assert run_experiment(cfg, tmp_path) == 3
        error = json.loads((tmp_path / "report.json").read_text())["error"]
        assert error["type"] == "SolveError"
        why = "member 0 (eps = 0.2, eta = 0) at t = 0: initial state is not finite"
        assert error["message"].startswith(why)
        assert capsys.readouterr().err.startswith(f"numerical error: {why}")


def counted(phi: BoundaryData, calls: list) -> BoundaryData:
    """``phi``, appending the shape of each column of times it is evaluated at to ``calls``."""

    def trace(x, t):
        if np.ndim(t) == 2:
            calls.append(np.shape(t))
        return phi.phi(x, t)

    return BoundaryData(trace, horizon=phi.horizon, time_dependent=phi.time_dependent)


class TestTraceTable:
    def test_traces_equal_scalar_evaluation(self):
        # Bit for bit at outer and sub-step ends, for every trace kind and for
        # the dichotomy sweep's trace shifted by its conflict offset.
        traces = [BoundaryData.constant(0.4), BoundaryData.ramp(0.1, 2.0),
                  BoundaryData.sine(0.2, 0.3, 1.7), BoundaryData.sided(0.1, 0.7, DOM)]
        mine = [pme_problem(n, phi=phi, eps=eps, eta=eta, horizon=1.0)
                for phi in traces for n, eps, eta in ((17, 0.0, 0.0), (33, 0.125, 0.05))]
        sweep = experiments._models(parse_config(SWEEP_CFG))["members"]
        lattice = np.arange(41) * 0.025
        ts = np.concatenate([solver._substep_ends(lattice[:-1], lattice[1:], nsub)[:, 1:].ravel()
                             for nsub in (1, 2, 4)])
        for problems in (mine, sweep):
            table = solver._Batch(problems).traces(ts)
            for t, row in zip(ts.tolist(), table):
                alone = [np.asarray(p.phi.phi(p.layout.dir_points, t if p.phi.time_dependent
                                              else 0.0), dtype=float) + p.eta for p in problems]
                assert np.array_equal(row, np.concatenate(alone)), t

    def test_substep_ends_are_the_scalar_expressions(self):
        t, t_next = 0.3, 0.3 + 1e-3 * 7
        for nsub in (1, 2, 4, 8):
            ends = solver._substep_ends(t, t_next, nsub).tolist()
            assert ends == [t + (t_next - t) * j / nsub for j in range(nsub + 1)]

    @pytest.mark.parametrize("block", [256, 8])
    def test_a_trace_is_evaluated_once_per_block(self, monkeypatch, block):
        # 30 outer steps, no halving: one evaluation per block of outer steps,
        # at all its end times at once, and the same answers whatever the block.
        # A constant trace is evaluated the same way.
        monkeypatch.setattr(solver, "_TRACE_BLOCK", block)
        calls = {"sine": [], "ramp": [], "constant": []}

        def make():
            sine = counted(BoundaryData.sine(0.2, 0.1, 2.0), calls["sine"])
            ramp = counted(BoundaryData.ramp(0.2, 1.0), calls["ramp"])
            constant = counted(BoundaryData.constant(0.3), calls["constant"])
            return [pme_problem(33, flux=LIN, dt=1e-3, horizon=0.03, phi=sine),
                    pme_problem(17, flux=LIN, dt=1e-3, horizon=0.03, phi=ramp),
                    pme_problem(21, dom=BALL, flux=LIN, dt=1e-3, horizon=0.03, phi=sine),
                    pme_problem(25, flux=LIN, dt=1e-3, horizon=0.03, phi=constant)]

        fields = solve_members(make())
        assert [f.meta["step_halvings"] for f in fields] == [0, 0, 0, 0]
        blocks = [(min(block, 30 - s), 1) for s in range(0, 30, block)]
        assert calls == {"sine": blocks, "ramp": blocks, "constant": blocks}
        assert_members_match_alone(make)

    def test_a_halved_step_adds_one_evaluation_per_level(self):
        # The middle member fails the third outer step at levels 0 and 1 and
        # steps it at level 2; it stays at depth 2 for 20 clean steps, then at
        # depth 1 for the last 8.  Its trace is evaluated once for the block and
        # once per halved level of each step, at all that level's sub-step ends.
        problems = nan_once_members(None, horizon=0.03)
        problems[1] = dataclasses.replace(problems[1], phi=nan_once(3e-3, times=2))
        calls = [[] for _ in problems]
        problems = [dataclasses.replace(p, phi=counted(p.phi, c)) for p, c in zip(problems, calls)]
        fields = solve_members(problems)
        assert [f.meta["step_halvings"] for f in fields] == [0, 2, 0]
        expected = [(30, 1), (2, 1), (4, 1)] + [(4, 1)] * 19 + [(2, 1)] * 8
        assert calls == [expected] * 3  # the other traces ride along
