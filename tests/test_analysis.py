import numpy as np
import pytest

from collar.analysis import boundary_attainment, solve_duality_potential, unit_bump_source
from collar.errors import SourceError
from collar.geometry import Domain, build_grid
from collar.models import BoundaryData, DensityModel, InitialData, Nonlinearity
from collar.solver import ApproxProblem, solve_members

DOM = Domain.interval(0.0, 1.0)
RHO1 = DensityModel.constant(1.0, DOM)
LIN = Nonlinearity.linear(1.0)


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

    def test_probe_offsets(self):
        phi = BoundaryData.constant(0.0, horizon=1.0)
        fields = attainment_fields([0.2, 0.1, 0.05, 0.025], phi,
                                   InitialData.sine(DOM, 1.0), RHO1, horizon=0.1)
        rep = boundary_attainment(fields, phi, tau=0.05)
        # factor 4: the interface row sits 4 spacings in, its probe one further
        assert rep.probe_offsets == pytest.approx([1.25 * e for e in (0.2, 0.1, 0.05, 0.025)])


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
