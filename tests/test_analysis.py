import dataclasses

import numpy as np
import pytest

from collar.analysis import (
    boundary_attainment,
    comparison_check,
    maximality_check,
    solve_duality_potential,
    uniqueness_functional,
    unit_bump_source,
)
from collar.errors import HypothesisError, ShapeError, SourceError
from collar.geometry import CORE, Domain, NodeClassification, build_grid
from collar.models import BoundaryData, DensityModel, InitialData, Nonlinearity
from collar.operators import assemble_diffusion
from collar.solver import ApproxProblem, SolverScheme, SpaceTimeField, solve_members

DOM = Domain.interval(0.0, 1.0)
RHO1 = DensityModel.constant(1.0, DOM)
LIN = Nonlinearity.linear(1.0)


def synthetic_field(grid, times, values):
    vals = np.asarray(values, dtype=float)
    return SpaceTimeField(
        grid=grid, eps=0.0, eta=0.0, times=np.asarray(times, dtype=float),
        values=vals, mask=np.ones(grid.n, dtype=bool),
    )


class TestDualityPotential:
    def test_indicator_source_flux_identity(self):
        grid = build_grid(DOM, 81)
        f = np.where((grid.nodes >= 0.4) & (grid.nodes <= 0.6), 1.0, 0.0)
        pot = solve_duality_potential(grid, 0.1, f)
        assert pot.source_integral == pytest.approx(0.2, abs=2 * grid.h)
        assert abs(pot.flux_sum - pot.source_integral) <= 1e-6 * pot.source_integral
        # Both one-sided normal derivatives point out of the core.
        assert np.all(pot.normal_derivatives < 0.0)

    def test_piecewise_quadratic_oracle(self):
        # Continuous solution for the indicator source on (0.1, 0.9):
        # second derivative -F, zero trace, symmetric about 0.5.
        grid = build_grid(DOM, 81)
        f = np.where((grid.nodes >= 0.4) & (grid.nodes <= 0.6), 1.0, 0.0)
        pot = solve_duality_potential(grid, 0.1, f)

        def oracle(x):
            x = np.asarray(x, dtype=float)
            left = 0.1 * (x - 0.1)
            mid = 0.03 + 0.1 * (x - 0.4) - 0.5 * (x - 0.4) ** 2
            right = 0.03 - 0.1 * (x - 0.6)
            return np.where(x < 0.4, left, np.where(x <= 0.6, mid, right))

        mask = grid.steps_from_boundary >= 8
        vals = oracle(grid.nodes[mask])
        assert np.max(np.abs(pot.psi[mask] - vals)) <= 5e-3

    def test_unit_hat_mass(self):
        grid = build_grid(DOM, 101)
        f = unit_bump_source(grid, center=0.5, width=0.15)
        pot = solve_duality_potential(grid, 0.1, f)
        assert pot.source_integral == pytest.approx(1.0, rel=1e-12)
        assert abs(pot.flux_sum - 1.0) <= 1e-6

    def test_positivity_inside(self):
        grid = build_grid(DOM, 101)
        f = unit_bump_source(grid, center=0.35, width=0.1)
        pot = solve_duality_potential(grid, 0.05, f)
        interior = grid.steps_from_boundary > int(round(0.05 / grid.h))
        assert np.all(pot.psi[interior] > 0.0)

    def test_radial_flux_identity(self):
        dom = Domain.ball(1.0, dim=3)
        grid = build_grid(dom, 129)
        f = unit_bump_source(grid, center=0.4, width=0.2)
        pot = solve_duality_potential(grid, 0.0625, f)
        assert abs(pot.flux_sum - pot.source_integral) <= 1e-9 * pot.source_integral

    def test_bad_sources_rejected(self):
        grid = build_grid(DOM, 81)
        with pytest.raises(SourceError):
            solve_duality_potential(grid, 0.1, -np.ones(grid.n))
        with pytest.raises(SourceError):
            solve_duality_potential(grid, 0.1, np.zeros(grid.n))
        touching = np.where(grid.distances >= 0.1, 1.0, 0.0)  # support reaches interface
        with pytest.raises(SourceError):
            solve_duality_potential(grid, 0.1, touching)


class TestUniquenessFunctional:
    def test_identical_fields_vanish(self):
        grid = build_grid(DOM, 65)
        times = np.linspace(0.0, 1.0, 11)
        vals = np.tile(np.sin(np.pi * grid.nodes)[:, None], (1, 11))
        a = synthetic_field(grid, times, vals)
        assert uniqueness_functional(a, a, unit_bump_source(grid), LIN) == 0.0

    def test_constant_gap_times_mass_and_horizon(self):
        grid = build_grid(DOM, 65)
        times = np.linspace(0.0, 1.0, 21)
        base = np.full((grid.n, 21), 0.7)
        a = synthetic_field(grid, times, base)
        b = synthetic_field(grid, times, base - 0.1)
        val = uniqueness_functional(a, b, unit_bump_source(grid), LIN)
        assert val == pytest.approx(0.1, rel=1e-12)

    def test_convergent_schedules_agree(self):
        # Same problem approached with different lifts and time steps on a
        # shared grid: the functional must vanish within the stated budget.
        grid = build_grid(DOM, 129)
        T = 0.15

        def schedule(eta, dt, stride):
            p = ApproxProblem(
                grid=grid, rho=RHO1, flux=LIN,
                phi=BoundaryData.constant(0.0, horizon=T),
                initial=InitialData.sine(DOM, 1.0),
                eps=0.0, eta=eta, eta_cap=0.1, horizon=T, dt=dt,
            )
            return solve_members([p], store_stride=stride)[0]

        u1 = schedule(4e-5, 4e-5 * 1.25, 200)   # dt = 5e-5
        u2 = schedule(0.0, 2.5e-5, 400)         # dt = 2.5e-5
        f = unit_bump_source(grid)
        val = uniqueness_functional(u1, u2, f, LIN)
        assert abs(val) < 1e-4 * 1.0 * T
        assert val > 0.0  # the lifted run dominates

    def test_mismatched_grids_rejected(self):
        a = synthetic_field(build_grid(DOM, 65), [0.0, 1.0], np.zeros((65, 2)))
        b = synthetic_field(build_grid(DOM, 81), [0.0, 1.0], np.zeros((81, 2)))
        with pytest.raises(ShapeError):
            uniqueness_functional(a, b, np.zeros(65), LIN)


def attainment_fields(eps_levels, phi, u0, rho, horizon=1.0, dt=2e-3, factor=4):
    fields = []
    for eps in eps_levels:
        n = int(round(DOM.width / (eps / factor))) + 1
        grid = build_grid(DOM, n)
        p = ApproxProblem(
            grid=grid, rho=rho, flux=LIN, phi=phi, initial=u0,
            eps=eps, eta=0.0, eta_cap=0.1, horizon=horizon, dt=dt,
        )
        fields.append(solve_members([p], store_stride=5)[0])
    return fields


class TestBoundaryAttainment:
    def test_heat_baseline_attains(self):
        phi = BoundaryData.constant(0.0, horizon=1.0)
        fields = attainment_fields(
            [0.2, 0.1, 0.05, 0.025], phi, InitialData.sine(DOM, 1.0), RHO1,
            horizon=0.3, dt=1e-3, factor=8,
        )
        rep = boundary_attainment(fields, phi, tau=0.05, threshold=0.05)
        assert rep.attained, rep
        assert all(b < a for a, b in zip(rep.sups[:-1], rep.sups[1:]))

    def test_constant_data_gap_equals_lift(self):
        phi = BoundaryData.constant(0.5, horizon=1.0)
        fields = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            grid = build_grid(DOM, 161)
            p = ApproxProblem(
                grid=grid, rho=RHO1, flux=LIN, phi=phi,
                initial=InitialData.constant(0.5),
                eps=eps, eta=0.05, eta_cap=0.1, horizon=0.1, dt=5e-3,
            )
            fields.append(solve_members([p], store_stride=4)[0])
        rep = boundary_attainment(fields, phi, tau=0.02, threshold=0.06)
        assert rep.sups == pytest.approx([0.05] * 4, abs=1e-9)

    def test_probe_offsets_and_missing_interface_rows(self, monkeypatch):
        import collar.analysis as analysis

        phi = BoundaryData.constant(0.0, horizon=1.0)
        fields = attainment_fields([0.2, 0.1, 0.05, 0.025], phi,
                                   InitialData.sine(DOM, 1.0), RHO1, horizon=0.1)
        rep = boundary_attainment(fields, phi, tau=0.05)
        # factor 4: the interface row sits 4 spacings in, its probe one further
        assert rep.probe_offsets == pytest.approx([1.25 * e for e in (0.2, 0.1, 0.05, 0.025)])

        all_core = NodeClassification(0.2, np.full(fields[0].grid.n, CORE))
        monkeypatch.setattr(analysis, "collar_decomposition", lambda grid, eps: all_core)
        with pytest.raises(ShapeError, match="no interface rows"):
            boundary_attainment(fields, phi, tau=0.05)


class TestOrderingChecks:
    def _pair(self, eta_low, eta_high):
        grid = build_grid(DOM, 81)

        def solve(eta):
            p = ApproxProblem(
                grid=grid, rho=RHO1, flux=LIN,
                phi=BoundaryData.constant(0.0, horizon=1.0),
                initial=InitialData.sine(DOM, 1.0),
                eps=0.0, eta=eta, eta_cap=0.1, horizon=0.05, dt=1e-3,
            )
            return solve_members([p], store_stride=5)[0]

        return solve(eta_low), solve(eta_high)

    def test_lift_pair_passes(self):
        low, high = self._pair(0.05, 0.1)
        verdict = comparison_check(low, high, tau=0.005, eps_range=[0.05, 0.1])
        assert verdict.passed

    def test_reflexive(self):
        low, _ = self._pair(0.05, 0.1)
        assert comparison_check(low, low, tau=0.005, eps_range=[0.05]).passed

    def test_swapped_arguments_violate_hypothesis(self):
        low, high = self._pair(0.05, 0.1)
        with pytest.raises(HypothesisError):
            comparison_check(high, low, tau=0.005, eps_range=[0.05, 0.1])

    def test_core_violation_located(self):
        grid = build_grid(DOM, 65)
        times = np.linspace(0.0, 1.0, 5)
        base = np.zeros((grid.n, 5))
        low = synthetic_field(grid, times, base + 0.0)
        vals = base + 0.1
        k = grid.index_of(0.5)
        vals[k, 2] = -0.1  # dip below the lower field at one core node
        high = synthetic_field(grid, times, vals)
        verdict = comparison_check(low, high, tau=0.1, eps_range=[0.125])
        assert not verdict.passed
        assert verdict.worst_x == pytest.approx(0.5, abs=grid.h)
        assert verdict.worst_t == pytest.approx(0.5)

    def test_maximality_candidate_vs_direct(self):
        direct, candidate = self._pair(0.0, 0.025)
        verdict = maximality_check(candidate, [direct, candidate])
        assert verdict.passed

    def test_maximality_detects_lowered_candidate(self):
        _, candidate = self._pair(0.0, 0.025)
        lowered = dataclasses.replace(candidate, values=candidate.values - 0.01)
        verdict = maximality_check(lowered, [candidate])
        assert not verdict.passed
        assert verdict.worst_gap == pytest.approx(0.01, abs=1e-9)


class TestDivergentRegime:
    def test_divergent_density_not_attained(self):
        # Fast-diverging density wall: the boundary data never reaches the
        # interior, so the gap to a conflicting trace does not shrink.
        rho = DensityModel.power_law(3.0, DOM)
        phi = BoundaryData.constant(1.0, horizon=1.0)
        fields = attainment_fields(
            [0.2, 0.1, 0.05, 0.025], phi, InitialData.sine(DOM, 0.5), rho,
            horizon=1.0, dt=5e-3,
        )
        rep = boundary_attainment(fields, phi, tau=0.2, threshold=0.05)
        assert not rep.attained
        assert rep.sups[-1] > 0.05
