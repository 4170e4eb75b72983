"""Experiment orchestration: one config in, artifact files and a verdict out.

Every run writes a top-level ``report.json`` embedding the fully resolved
config, the verdicts with the tolerances they used, and stage timings; data
files (CSV) are bit-reproducible for identical configs.

At module level this imports only ``config``, ``errors``, ``geometry`` and
``models``.  Each runner imports the modules it calls (``solver``,
``analysis`` or ``barriers``) itself and calls through them, so a kind loads
only what it runs; ``parse_config`` has already imported them by then.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    build_boundary,
    build_density,
    build_domain,
    build_grid_from,
    build_initial,
    build_nonlinearity,
    build_scheme,
)
from .errors import CollarError, ConfigError, DomainError, ModelError, RegimeError
from .errors import ResolutionError, SourceError
from .geometry import BALL, Domain, build_grid, collar_decomposition
from .models import (
    BoundaryData,
    DensityModel,
    HypothesisReport,
    check_hypotheses,
    global_bound,
    h4_integral,
)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

#: Errors that a config mistake raises, reported as exit 2 rather than 3: a
#: malformed domain, a collar level the grid cannot resolve, a table or data
#: that breaks a model's hypotheses or oscillates above ``sigma``, or a duality
#: source that does not fit the collar.  Each comes from the config alone.
CONFIG_ERRORS = (ConfigError, DomainError, ResolutionError, RegimeError, ModelError, SourceError)


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class _Stage:
    """Wall-clock bookkeeping for the report; data files never see it."""

    def __init__(self):
        self.timings: dict[str, float] = {}

    def run(self, name, fn):
        t0 = time.perf_counter()
        out = fn()
        self.timings[name] = time.perf_counter() - t0
        return out


def _models(cfg: ExperimentConfig):
    domain = build_domain(cfg)
    grid = build_grid_from(cfg, domain)
    m = {
        "domain": domain,
        "grid": grid,
        "rho": build_density(cfg, domain),
        "flux": build_nonlinearity(cfg),
        "phi": build_boundary(cfg, domain),
        "initial": build_initial(cfg, domain),
    }
    # validate builds and checks these too, so it rejects every config the run
    # rejects, and the run rejects its levels before any solve.
    exp = cfg.sections["experiment"]
    if cfg.kind == "family":
        from . import solver

        solver.family_levels(exp["eps_list"], exp["eta_list"])
    elif cfg.kind in ("attainment", "dichotomy-sweep"):
        from . import analysis

        analysis.check_attainment_levels(exp["eps_list"])
    elif cfg.kind == "duality":  # the source must fit every level
        from . import analysis

        levels = [float(e) for e in exp.get("eps_list") or [exp["eps"] or 4.0 * grid.h]]
        source = analysis.unit_bump_source(grid, exp.get("source_center"), exp.get("source_width"))
        for eps in levels:
            analysis.check_duality_source(grid, eps, source)
        m["duality"] = levels, source
    elif cfg.kind == "barrier-certify":
        m["barriers"] = _barriers(cfg, m)
    return m


def _hypotheses(m: dict) -> HypothesisReport:
    return check_hypotheses(m["rho"], m["flux"], m["phi"], m["initial"], m["grid"])


def _problem(cfg: ExperimentConfig, m: dict, **overrides):
    from . import solver

    num = cfg.sections["numerics"]
    exp = cfg.sections["experiment"]
    base = dict(
        grid=m["grid"],
        rho=m["rho"],
        flux=m["flux"],
        phi=m["phi"],
        initial=m["initial"],
        eps=exp["eps"],
        eta=exp["eta"],
        eta_cap=exp["eta_cap"],
        horizon=num["t_final"],
        dt=num["dt"],
    )
    base.update(overrides)
    return solver.ApproxProblem(**base)


# ---------------------------------------------------------------------------
# Runners (one per experiment kind); each returns (verdict_ok, payload)
# ---------------------------------------------------------------------------


def _run_solve(cfg, m, out: Path):
    fieldobj = _solve(cfg, [_problem(cfg, m)])[0]
    fieldobj.to_csv(out / "trajectory.csv")
    _write_json(out / "trajectory_meta.json", fieldobj.meta)
    return bool(fieldobj.meta["max_principle_ok"]), {"meta": fieldobj.meta}


def _run_family(cfg, m, out: Path):
    from . import solver

    exp = cfg.sections["experiment"]
    num = cfg.sections["numerics"]
    problem = _problem(cfg, m)
    finest, diag = solver.extract_limit_solution(
        problem, exp["eps_list"], exp["eta_list"], build_scheme(cfg),
        store_stride=num["store_stride"],
    )
    finest.to_csv(out / "limit_candidate.csv")
    _write_json(out / "family_diagnostics.json", diag.as_dict())
    ok = diag.converged or not exp["assert_convergence"]
    return ok, {"diagnostics": diag.as_dict()}


def _barriers(cfg, m) -> list:
    """Each side's barrier, with its constants chosen and its region checked on the grid."""
    from . import barriers

    exp = cfg.sections["experiment"]
    domain: Domain = m["domain"]
    grid = m["grid"]
    flux = m["flux"]
    rho: DensityModel = m["rho"]
    phi = m["phi"]
    case = exp["barrier_case"]
    x0 = domain.lo if exp["anchor"] == "left" else domain.hi
    if domain.kind == BALL:
        x0 = domain.hi
    timed = case.endswith("timed")
    t0 = exp["t0"] if timed else None
    sigma = exp["sigma"]
    eta = exp["eta"]

    if case.startswith("potential"):
        potential = barriers.build_boundary_potential(
            rho.majorant, domain.collar_cap, exp["curvature_margin"]
        )
        cap_space = domain.collar_cap
    else:
        radius = domain.collar_cap
        potential = barriers.build_miller_barrier(domain, x0, radius)
        cap_space = radius
    cap = min(cap_space, 0.49 * domain.width)
    if timed:
        cap = min(cap, t0)
    delta = barriers.select_localization_radius(
        case, phi, flux, (x0, t0), sigma, eta, cap,
        initial=m["initial"], domain=domain,
    )
    if case.startswith("potential"):
        pot_edge = float(potential.at_distance(min(delta, domain.collar_cap)))
    else:
        pot_edge = float(potential.at_offset(delta))

    K = global_bound(m["initial"].sup_norm(grid), phi.sup_norm(domain), exp["eta_cap"])
    phi_scale = phi.sup_norm(domain) if timed else abs(float(phi.phi(x0, 0.0)))
    params = barriers.BarrierParams(
        inf_rho=rho.inf_on(grid),
        sup_rho=rho.sup_on(grid) if rho.is_bounded else np.inf,
        alpha0=flux.alpha0,
        delta=delta,
        phi_scale=phi_scale,
        eta_cap=exp["eta_cap"],
        bound_K=K,
        dim=domain.dim,
        pot_edge=pot_edge,
    )
    sides = ["lower", "upper"] if exp["barrier_side"] == "both" else [exp["barrier_side"]]
    built = []
    for side in sides:
        constants = barriers.select_barrier_constants(case, side, flux, params, exp["safety"])
        barrier = barriers.build_barrier(
            case, side, domain, (x0, t0), sigma, eta, constants, potential, flux, phi,
            delta=delta,
        )
        barriers.check_barrier_region(barrier, grid, cfg.sections["numerics"]["dt"])
        built.append(barrier)
    return built


def _run_barrier_certify(cfg, m, out: Path):
    from . import barriers

    exp = cfg.sections["experiment"]
    dt = cfg.sections["numerics"]["dt"]
    certificates = []
    all_pass = True
    for barrier in m["barriers"]:
        report = barriers.verify_barrier_residual(barrier, m["grid"], m["rho"], m["flux"], dt)
        all_pass &= report.verdict
        certificates.append(
            {
                "constants": barrier.constants.as_dict(),
                "delta": barrier.delta,
                "sigma": barrier.sigma,
                "eta": exp["eta"],
                "anchor": {"x0": barrier.anchor_x, "t0": barrier.anchor_t},
                "window": list(barrier.t_window),
                "residual": report.as_dict(),
            }
        )
    payload = {"case": exp["barrier_case"], "certificates": certificates}
    _write_json(out / "barrier_certificates.json", payload)
    return all_pass, {"certificates": certificates}


def _run_duality(cfg, m, out: Path):
    from . import analysis

    grid = m["grid"]
    levels, source = m["duality"]
    rows = []
    ok = True
    for eps in levels:
        pot = analysis.solve_duality_potential(grid, eps, source)
        psi_pos = bool(np.all(pot.psi[collar_decomposition(grid, eps).core] > 0.0))
        derivs_neg = bool(np.all(pot.normal_derivatives < 0.0))
        defect_ok = abs(pot.flux_sum - pot.source_integral) <= 1e-6 * pot.source_integral
        ok &= psi_pos and derivs_neg and defect_ok
        row = pot.as_dict()
        row.update({"psi_positive": psi_pos, "normal_derivatives_negative": derivs_neg,
                    "flux_identity_ok": bool(defect_ok)})
        rows.append(row)
    _write_json(out / "duality.json", {"levels": rows})
    return ok, {"levels": rows}


def _attainment_grid(cfg, m, eps: float):
    exp = cfg.sections["experiment"]
    domain: Domain = m["domain"]
    if not exp["scale_nodes_with_eps"]:
        return m["grid"]
    # Resolve each level with four cells across its collar so the probe
    # distance tracks the collar width.
    n = int(round(domain.width / (eps / 4.0))) + 1
    return build_grid(domain, max(n, 16))


def _level_problems(cfg, m, eps_list, phi) -> list:
    return [
        _problem(cfg, m, grid=_attainment_grid(cfg, m, eps), phi=phi, eps=float(eps))
        for eps in eps_list
    ]


def _solve(cfg, problems):
    from . import solver

    stride = cfg.sections["numerics"]["store_stride"]
    return solver.solve_members(problems, build_scheme(cfg), store_stride=stride)


def _member_totals(fields) -> list[dict]:
    """Solver totals of each member, in member order, for ``report.json``."""
    keys = ("eps", "eta", "newton_iterations", "step_halvings", "max_scaled_residual")
    return [{key: f.meta[key] for key in keys} for f in fields]


def _run_attainment(cfg, m, out: Path):
    from . import analysis

    exp = cfg.sections["experiment"]
    fields = _solve(cfg, _level_problems(cfg, m, exp["eps_list"], m["phi"]))
    report = analysis.boundary_attainment(fields, m["phi"], exp["tau"], threshold=exp["threshold"])
    _write_json(out / "attainment.json", asdict(report))
    rows = np.array(report.csv_rows())
    np.savetxt(out / "attainment.csv", rows, delimiter=",", header="eps,sup_gap",
               comments="", fmt="%.17g")
    return report.attained, {"report": asdict(report), "members": _member_totals(fields)}


def _probe_diffs(fields_a, fields_b, coords, tau):
    diffs = []
    for fa, fb in zip(fields_a, fields_b):
        idx = np.array([fa.grid.index_of(c) for c in coords])
        tmask = fa.times >= tau - 1e-12
        gap = np.abs(fa.values[idx][:, tmask] - fb.values[idx][:, tmask])
        diffs.append(float(np.nanmax(gap)))
    return diffs


def _run_dichotomy(cfg, m, out: Path):
    from . import analysis

    exp = cfg.sections["experiment"]
    offset = exp["conflict_offset"]
    eps_list = exp["eps_list"]
    domain: Domain = m["domain"]
    tau, threshold = exp["tau"], exp["threshold"]

    coarse = _attainment_grid(cfg, m, eps_list[0])
    coords = coarse.nodes[collar_decomposition(coarse, eps_list[0]).probes(33)]

    # The conflicting run shifts the whole boundary trace by a constant.  One
    # trace object for every alpha lets a batch evaluate it once per sub-step.
    phi_a = m["phi"]
    phi_b = BoundaryData(
        lambda x, t: np.asarray(phi_a.phi(x, t)) + offset,
        horizon=phi_a.horizon,
        time_dependent=phi_a.time_dependent,
    )
    # Every level of every alpha and boundary trace is one member of one solve.
    cases, problems = [], []
    n = len(eps_list)
    for alpha in exp["alpha_list"]:
        rho = DensityModel.power_law(float(alpha), domain)
        verdict = h4_integral(rho.majorant, domain.collar_cap)
        m_alpha = dict(m, rho=rho)
        cases.append((alpha, verdict))
        problems += _level_problems(cfg, m_alpha, eps_list, phi_a)
        problems += _level_problems(cfg, m_alpha, eps_list, phi_b)
    fields = _solve(cfg, problems)

    rows = []
    for j, (alpha, verdict) in enumerate(cases):
        fields_a = fields[2 * j * n : (2 * j + 1) * n]
        fields_b = fields[(2 * j + 1) * n : (2 * j + 2) * n]
        rep_a = analysis.boundary_attainment(fields_a, phi_a, tau, threshold=threshold)
        rep_b = analysis.boundary_attainment(fields_b, phi_b, tau, threshold=threshold)
        diffs = _probe_diffs(fields_a, fields_b, coords, tau)
        decreasing = all(b < a for a, b in zip(diffs[:-1], diffs[1:]))
        rows.append(
            {
                "alpha": float(alpha),
                "h4_finite": verdict.finite,
                "sups_first": rep_a.sups,
                "sups_second": rep_b.sups,
                "attained_first": rep_a.attained,
                "attained_second": rep_b.attained,
                "probe_diffs": diffs,
                "probe_diffs_decreasing": decreasing,
            }
        )
    _write_json(out / "dichotomy.json", {"eps_list": list(eps_list), "rows": rows})
    csv_rows = []
    for r in rows:
        for eps, d in zip(eps_list, r["probe_diffs"]):
            csv_rows.append((r["alpha"], eps, d))
    np.savetxt(out / "dichotomy.csv", np.array(csv_rows), delimiter=",",
               header="alpha,eps,probe_diff", comments="", fmt="%.17g")
    return True, {"rows": rows, "members": _member_totals(fields)}


def _run_hypothesis(cfg, m, out: Path):
    report = asdict(m["hypotheses"])
    _write_json(out / "hypothesis.json", report)
    return m["hypotheses"].core_ok, {"hypothesis": report}


_RUNNERS = {
    "solve": _run_solve,
    "family": _run_family,
    "barrier-certify": _run_barrier_certify,
    "duality": _run_duality,
    "attainment": _run_attainment,
    "dichotomy-sweep": _run_dichotomy,
    "hypothesis-report": _run_hypothesis,
}


def run_experiment(cfg: ExperimentConfig, out_dir) -> int:
    """Execute one experiment, write its artifacts, and return the exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = _Stage()
    report: dict = {"experiment": cfg.kind, "config": cfg.sections}
    try:
        m = stage.run("build_models", lambda: _models(cfg))
        hyp = m["hypotheses"] = stage.run("hypotheses", lambda: _hypotheses(m))
        report["hypothesis"] = asdict(hyp)
        report["warnings"] = list(hyp.notes)
        runner = _RUNNERS[cfg.kind]
        ok, payload = stage.run(cfg.kind, lambda: runner(cfg, m, out))
        report["verdict"] = "pass" if ok else "fail"
        report["payload"] = payload
        code = EXIT_PASS if ok else EXIT_VERDICT_FAIL
    except CollarError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["verdict"] = "error"
        code = EXIT_CONFIG_ERROR if isinstance(exc, CONFIG_ERRORS) else EXIT_NUMERICAL_ERROR
    report["timings"] = stage.timings
    _write_json(out / "report.json", report)
    return code
