"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, in the assertions.
"""

import dataclasses
import json
import time

import numpy as np

from collar.analysis import solve_duality_potential, unit_bump_source
from collar.barriers import build_barriers, verify_barrier_residual
from collar.config import parse_config
from collar.experiments import run_experiment
from collar.geometry import Domain, build_grid
from collar.models import (
    BoundaryData,
    DensityModel,
    InitialData,
    Nonlinearity,
    PowerMajorant,
    h4_integral,
)
from collar.operators import assemble_diffusion
from collar.solver import ApproxProblem, solve_members

GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(32)


def _report(num, name, ok, budget, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status}  {name}  ({elapsed:.2f}s / budget {budget:.0f}s)  {detail}",
          flush=True)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def _quadrature_oracle(alpha, eps_hat, levels=220):
    """Dyadic Gauss integration of the weighted majorant, tail extrapolated."""
    hi = eps_hat
    pieces = []
    for _ in range(levels):
        lo = 0.5 * hi
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pieces.append(half * float(np.dot(GAUSS_W, (mid + half * GAUSS_X) ** (1.0 - alpha))))
        hi = lo
    ratio = pieces[-1] / pieces[-2]
    if ratio >= 1.0 - 1e-13:
        return None
    return sum(pieces) + pieces[-1] * ratio / (1.0 - ratio)


def test_criterion_01_integral_dichotomy_classifier():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for alpha in (-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 1.99, 2.0, 2.5, 3.0):
        res = h4_integral(PowerMajorant(1.0, alpha), 1.0)
        if res.finite != (alpha < 2.0):
            ok, detail = False, f"verdict wrong at alpha={alpha}"
            break
        if res.finite:
            oracle = _quadrature_oracle(alpha, 1.0)
            closed = 1.0 / (2.0 - alpha)
            if abs(res.value - closed) > 1e-12 or abs(res.value - oracle) > 1e-8 * abs(oracle):
                ok, detail = False, f"value mismatch at alpha={alpha}"
                break
    _report(1, "integral dichotomy classifier", ok, 1.0, time.perf_counter() - t0, detail)


def test_criterion_02_heat_equation_oracle():
    t0 = time.perf_counter()
    dom = Domain.interval(0.0, 1.0)
    rho = DensityModel.constant(1.0, dom)
    lin = Nonlinearity.linear(1.0)
    phi = BoundaryData.constant(0.0, horizon=1.0)
    u0 = InitialData.sine(dom, 1.0)

    def solve(nodes, horizon, dt, stride):
        p = ApproxProblem(grid=build_grid(dom, nodes), rho=rho, flux=lin, phi=phi,
                          initial=u0, eps=0.0, eta=0.0, eta_cap=0.0,
                          horizon=horizon, dt=dt)
        return solve_members([p], store_stride=stride)[0]

    fld = solve(256, 0.2, 1e-4, 10)
    exact = np.exp(-np.pi**2 * fld.times)[None, :] * np.sin(np.pi * fld.grid.nodes)[:, None]
    err = float(np.max(np.abs(fld.values - exact)))

    orders = []
    errors = []
    for nodes in (17, 33, 65):
        f = solve(nodes, 0.05, 1e-5, 5000)
        ex = np.exp(-np.pi**2 * 0.05) * np.sin(np.pi * f.grid.nodes)
        errors.append(float(np.max(np.abs(f.values[:, -1] - ex))))
    orders = [np.log2(a / b) for a, b in zip(errors[:-1], errors[1:])]
    ok = err < 1e-3 and all(1.7 <= o <= 2.2 for o in orders)
    _report(2, "heat-equation oracle", ok, 10.0, time.perf_counter() - t0,
            f"max_err={err:.2e} orders={[f'{o:.2f}' for o in orders]}")


def test_criterion_03_porous_medium_oracle():
    t0 = time.perf_counter()
    dom = Domain.interval(0.0, 1.0)
    T = 1.0

    def exact(x, t):
        return np.asarray(x, float) ** 2 / (12.0 * (T - np.asarray(t, float)))

    grid = build_grid(dom, 256)
    p = ApproxProblem(
        grid=grid, rho=DensityModel.constant(1.0, dom),
        flux=Nonlinearity.porous_medium(2.0),
        phi=BoundaryData(exact, horizon=0.6),  # clear of the blow-up time
        initial=InitialData(lambda x: exact(x, 0.0)),
        eps=0.0, eta=0.0, eta_cap=0.0, horizon=0.5, dt=1e-3,
    )
    fld = solve_members([p], store_stride=25)[0]
    ex = exact(grid.nodes[:, None], fld.times[None, :])
    rel = float(np.max(np.abs(fld.values - ex)) / np.max(np.abs(ex)))
    _report(3, "porous-medium oracle", rel < 1e-2, 30.0, time.perf_counter() - t0,
            f"rel_err={rel:.2e}")


def test_criterion_04_barrier_certification():
    t0 = time.perf_counter()
    dom = Domain.interval(0.0, 2.0, collar_cap=0.6)
    rho = DensityModel.constant(1.0, dom)
    flux = Nonlinearity.linear(1.0)
    phi = BoundaryData.constant(1.0, horizon=1.0)
    u0 = InitialData.constant(1.0)

    def certify(nodes):
        grid = build_grid(dom, nodes)
        built = build_barriers("potential-timed", ("lower", "upper"), grid, rho, flux, phi, u0,
                               anchor="left", t0=0.5, sigma=0.1, eta=0.0, eta_cap=0.1,
                               safety=1.05, curvature_margin=2.0, dt=1e-3)
        return grid, built

    ok = True
    detail = []
    for nodes in (201, 401, 801):  # h = 1e-2, 5e-3, 2.5e-3
        grid, built = certify(nodes)
        for b in built:
            rep = verify_barrier_residual(b, grid, rho, 1e-3)
            ok &= rep.verdict
            detail.append(f"h={grid.h:.3g}/{b.side}:{'ok' if rep.verdict else 'BAD'}")
    grid, (lower, _) = certify(201)
    weak = dataclasses.replace(lower.constants, M=lower.constants.M / 100.0)
    rep = verify_barrier_residual(dataclasses.replace(lower, constants=weak), grid, rho, 1e-3)
    ok &= not rep.verdict
    detail.append(f"M/100:{'detected' if not rep.verdict else 'MISSED'}")
    _report(4, "barrier certification", ok, 5.0, time.perf_counter() - t0, " ".join(detail))


def test_criterion_05_barrier_sandwich():
    t0 = time.perf_counter()
    dom = Domain.interval(0.0, 1.0)
    grid = build_grid(dom, 81)  # h = 0.0125
    rho = DensityModel.constant(1.0, dom)
    flux = Nonlinearity.linear(1.0)
    T = 1.0
    phi = BoundaryData.constant(0.5, horizon=T)
    u0 = InitialData(lambda x: 0.5 + 0.3 * np.sin(np.pi * np.asarray(x, float)))
    eta, eta_cap, sigma, dt = 0.05, 0.1, 0.15, 2e-3

    p = ApproxProblem(grid=grid, rho=rho, flux=flux, phi=phi, initial=u0,
                      eps=0.05, eta=eta, eta_cap=eta_cap, horizon=T, dt=dt)
    fld = solve_members([p], store_stride=5)[0]

    lo, hi = build_barriers("potential-timed", ("lower", "upper"), grid, rho, flux, phi, u0,
                            anchor="left", t0=0.5, sigma=sigma, eta=eta, eta_cap=eta_cap,
                            safety=1.05, curvature_margin=2.0, dt=dt)
    region = lo.region_node_mask(grid) & np.isfinite(fld.values[:, 0])
    xs = grid.nodes[region]
    t_lo, t_hi = lo.t_window
    worst_low = worst_high = -np.inf
    for j, t in enumerate(fld.times):
        if not (t_lo < t < t_hi):
            continue
        u = fld.values[region, j]
        worst_low = max(worst_low, float(np.max(lo.evaluate(xs, t) - u)))
        worst_high = max(worst_high, float(np.max(u - hi.evaluate(xs, t))))
    ok = worst_low <= 1e-6 and worst_high <= 1e-6
    _report(5, "barrier sandwich", ok, 10.0, time.perf_counter() - t0,
            f"below={worst_low:.2e} above={worst_high:.2e} delta={lo.delta:.3f}")


def test_criterion_06_duality_flux_identity():
    t0 = time.perf_counter()
    dom = Domain.interval(0.0, 1.0)
    grid = build_grid(dom, 161)
    sources = [
        np.where((grid.nodes >= 0.4) & (grid.nodes <= 0.6), 1.0, 0.0),
        unit_bump_source(grid, center=0.35, width=0.12),
        unit_bump_source(grid, center=0.62, width=0.2),
    ]
    cases = [(grid, 0.1, f) for f in sources]
    ball = build_grid(Domain.ball(1.0, dim=2), 161)
    cases.append((ball, 0.1, unit_bump_source(ball, center=0.4, width=0.25)))
    ok = True
    details = []
    for g, eps, f in cases:
        pot = solve_duality_potential(g, eps, f)
        defect = abs(pot.flux_sum - pot.source_integral)
        interior = g.steps_from_boundary > int(round(eps / g.h))
        good = (
            defect < 1e-6 * pot.source_integral
            and bool(np.all(pot.psi[interior] > 0.0))
            and bool(np.all(pot.normal_derivatives < 0.0))
        )
        ok &= good
        details.append(f"defect={defect:.1e}")
    _report(6, "duality flux identity", ok, 1.0, time.perf_counter() - t0, " ".join(details))


def test_criterion_07_lift_monotonicity_and_maximality():
    t0 = time.perf_counter()
    dom = Domain.interval(0.0, 1.0)
    grid = build_grid(dom, 129)
    rho = DensityModel.constant(1.0, dom)
    flux = Nonlinearity.linear(1.0)
    phi = BoundaryData.constant(0.0, horizon=1.0)
    u0 = InitialData.sine(dom, 1.0)

    def solve(eta):
        p = ApproxProblem(grid=grid, rho=rho, flux=flux, phi=phi, initial=u0,
                          eps=0.0, eta=eta, eta_cap=0.1, horizon=0.2, dt=1e-3)
        return solve_members([p], store_stride=10)[0]

    f_low, f_mid, f_high = solve(0.025), solve(0.05), solve(0.1)
    direct = solve(0.0)
    mono = (
        float(np.max(f_low.values - f_mid.values)) <= 1e-8
        and float(np.max(f_mid.values - f_high.values)) <= 1e-8
    )
    # With eps = 0 the window is the whole grid: no value is NaN.
    dominates = float(np.max(direct.values - f_low.values)) <= 1e-6
    ok = mono and dominates
    _report(7, "lift monotonicity and maximality", ok, 30.0, time.perf_counter() - t0,
            f"monotone={mono} dominates={dominates}")


ATTAINMENT_CFG = """
[domain]
kind = interval
a = 0.0
b = 1.0

[density]
kind = power
alpha = 1.0

[nonlinearity]
kind = linear

[boundary]
kind = sine
offset = 0.6
amplitude = 0.15
frequency = 0.5

[initial]
kind = constant
value = 0.0

[numerics]
nodes = 41
dt = 0.002
t_final = 1.0
store_stride = 5

[experiment]
kind = attainment
eps_list = 0.2, 0.1, 0.05, 0.025
tau = 0.1
threshold = 0.05
"""


def test_criterion_08_boundary_attainment(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config(ATTAINMENT_CFG)
    code = run_experiment(cfg, tmp_path)
    report = json.loads((tmp_path / "attainment.json").read_text())
    sups = report["sups"]
    monotone = all(b < a for a, b in zip(sups[:-1], sups[1:]))
    ok = code == 0 and report["attained"] and monotone and sups[-1] < 0.05
    _report(8, "boundary attainment, finite-integral regime", ok, 120.0,
            time.perf_counter() - t0, f"sups={[f'{s:.4f}' for s in sups]}")


def test_criterion_09_uniqueness_functional():
    t0 = time.perf_counter()
    dom = Domain.interval(0.0, 1.0)
    grid = build_grid(dom, 257)
    rho = DensityModel.constant(1.0, dom)
    flux = Nonlinearity.linear(1.0)
    T = 0.3
    phi = BoundaryData.constant(0.0, horizon=T)
    u0 = InitialData.sine(dom, 1.0)

    def schedule(eta, dt, stride):
        p = ApproxProblem(grid=grid, rho=rho, flux=flux, phi=phi, initial=u0,
                          eps=0.0, eta=eta, eta_cap=0.1, horizon=T, dt=dt)
        return solve_members([p], store_stride=stride)[0]

    u1 = schedule(4e-5, 5e-5, 200)
    u2 = schedule(0.0, 2.5e-5, 400)
    assert np.allclose(u1.times, u2.times, rtol=0.0, atol=1e-12)
    # The space-time integral of |G(u1) - G(u2)| against the source, which bounds
    # the signed one; with eps = 0 both windows are the whole grid.
    weights = unit_bump_source(grid) * assemble_diffusion(grid).volumes
    value = float(np.trapezoid(weights @ np.abs(flux.g(u1.values) - flux.g(u2.values)), u1.times))
    budget = 1e-4 * 1.0 * T  # unit source mass
    ok = value < budget
    _report(9, "source-weighted L1 gap of G between two schedules", ok, 60.0,
            time.perf_counter() - t0, f"value={value:.2e} < {budget:.1e}")


DICHOTOMY_CFG = """
[domain]
kind = interval
a = 0.0
b = 1.0

[density]
kind = power
alpha = 1.0

[nonlinearity]
kind = linear

[boundary]
kind = sine
offset = 0.6
amplitude = 0.15
frequency = 0.5

[initial]
kind = constant
value = 0.0

[numerics]
nodes = 41
dt = 0.002
t_final = 1.0
store_stride = 5

[experiment]
kind = dichotomy-sweep
eps_list = 0.2, 0.1, 0.05, 0.025
alpha_list = 1.0, 3.0
conflict_offset = 0.3
tau = 0.1
threshold = 0.05
"""


def test_criterion_10_dichotomy_sweep(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config(DICHOTOMY_CFG)
    code = run_experiment(cfg, tmp_path)
    table = json.loads((tmp_path / "dichotomy.json").read_text())
    rows = {row["alpha"]: row for row in table["rows"]}
    finite_row, divergent_row = rows[1.0], rows[3.0]
    ok = (
        code == 0
        and finite_row["h4_finite"]
        and finite_row["attained_first"]
        and finite_row["attained_second"]
        and not divergent_row["h4_finite"]
        and divergent_row["probe_diffs_decreasing"]
    )
    _report(10, "dichotomy sweep (recorded)", ok, 180.0, time.perf_counter() - t0,
            f"alpha=1 attained both; alpha=3 diffs={[f'{d:.4f}' for d in divergent_row['probe_diffs']]}")
