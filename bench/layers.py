"""Layer sweep: median microseconds of single layer calls at several node counts.

Each entry times one public function on inputs built here, repeated for a
short time budget.  A function that no longer exists is reported as absent
(value 0) rather than failing the run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SWEEP_NODES = (201, 801, 3201)


def _median_us(fn, budget_s: float, min_reps: int = 5) -> float:
    fn()  # warm: first-call costs belong to cold_run_s, not to the layer
    samples = []
    clock = time.perf_counter
    deadline = clock() + budget_s
    while len(samples) < min_reps or clock() < deadline:
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return 1e6 * statistics.median(samples)


def _cases():
    from collar import geometry, models, operators, solver

    def grid(n):
        return geometry.build_grid(geometry.Domain.interval(0.0, 1.0), n)

    def assemble(n):
        g, fn = grid(n), operators.assemble_diffusion
        return lambda: fn(g)

    def tridiagonal(n):
        rng = np.random.default_rng(n)
        lo, up = -rng.uniform(0.5, 1.0, n), -rng.uniform(0.5, 1.0, n)
        di = 3.0 + rng.uniform(0.0, 1.0, n)
        rhs, fn = rng.standard_normal(n), operators.solve_tridiagonal
        return lambda: fn(lo, di, up, rhs)

    def step(n, pme):
        dom = geometry.Domain.interval(0.0, 1.0)
        if pme:
            problem = solver.ApproxProblem(
                grid=grid(n), rho=models.DensityModel.power_law(1.0, dom),
                flux=models.Nonlinearity.porous_medium(2.0),
                phi=models.BoundaryData.sine(0.6, 0.15, 0.5, horizon=1.0),
                initial=models.InitialData.constant(0.3),
                eps=0.05, eta=0.0, eta_cap=0.1, horizon=1.0, dt=0.002,
            )
        else:
            problem = solver.ApproxProblem(
                grid=grid(n), rho=models.DensityModel.constant(1.0, dom),
                flux=models.Nonlinearity.linear(), phi=models.BoundaryData.constant(0.0, 0.2),
                initial=models.InitialData.sine(dom), eps=0.025, eta=0.025, eta_cap=0.1,
                horizon=0.2, dt=0.0005,
            )
        scheme, state, fn = solver.SolverScheme(), problem.initial_window(), solver.step_implicit
        return lambda: fn(state, problem, scheme, t_new=problem.dt, dt=problem.dt)

    def hypotheses(n):
        dom = geometry.Domain.interval(0.0, 1.0)
        args = (models.DensityModel.constant(1.0, dom), models.Nonlinearity.linear(),
                models.BoundaryData.constant(0.0, 0.2), models.InitialData.sine(dom), grid(n))
        fn = models.check_hypotheses
        return lambda: fn(*args)

    for n in SWEEP_NODES:
        yield f"operators.assemble_diffusion.us_n{n}", lambda n=n: assemble(n)
        yield f"operators.solve_tridiagonal.us_n{n}", lambda n=n: tridiagonal(n)
        yield f"solver.step_implicit.us_lin_n{n}", lambda n=n: step(n, False)
        yield f"solver.step_implicit.us_pme_n{n}", lambda n=n: step(n, True)
    yield "models.check_hypotheses.us_n801", lambda: hypotheses(801)


def layer_sweep(budget_s: float) -> tuple[dict, list]:
    """Return ({metric: microseconds}, [absent metric names])."""
    cases = list(_cases())
    each = budget_s / len(cases)
    values, absent = {}, []
    for name, build in cases:
        try:
            fn = build()
        except AttributeError:
            values[name] = 0.0
            absent.append(name)
            continue
        values[name] = _median_us(fn, each)
    return values, absent
