"""Experiment orchestration: one config in, artifact files and a verdict out.

``_models`` builds everything a kind's run uses from the config, and
``validate`` calls the same function, so both reject the same configs and a
run rejects a config before it solves anything.  A kind that steps gets
``m["members"]``, the exact ``ApproxProblem`` list its runner steps, in the
order the runner reads the fields: ``solve`` one member, ``family`` the
halving family of ``solver.family_members``, ``attainment`` one member per
collar level, and ``dichotomy-sweep`` those levels for each alpha under two
boundary traces.  Each of these runners makes one ``solve_members`` call on
that list and analyses the fields it returns.  ``barrier-certify`` gets
``m["barriers"]`` and ``duality`` its levels and source the same way.

Every run writes a top-level ``report.json`` embedding the resolved config
(each key that applies to its section's kind, with its default filled in),
the verdicts with the tolerances they used, stage timings and, for the kinds
that step, each member's solver totals; data files (CSV, the ``%.17g`` text
of ``np.savetxt`` from ``csvfmt.write_csv``) are bit-reproducible for
identical configs.

At module level this imports only ``config``, ``errors``, ``geometry`` and
``models``.  Each function imports the modules it calls (``solver``,
``analysis``, ``barriers`` or ``csvfmt``) itself and calls through them, so a
kind loads only what it runs; ``parse_config`` has already imported them by
then (``solver`` imports ``csvfmt``).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, replace
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
from .errors import CollarError, ConfigError
from .geometry import Domain, build_grid, collar_decomposition
from .models import BoundaryData, DensityModel, HypothesisReport, check_hypotheses, h4_integral

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def report_failure(exc: CollarError) -> int:
    """Print why ``exc`` ended a command, one line on stderr, and return its exit code."""
    config = isinstance(exc, ConfigError)
    print(f"{'config' if config else 'numerical'} error: {exc}", file=sys.stderr)
    return EXIT_CONFIG_ERROR if config else EXIT_NUMERICAL_ERROR


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
    # validate builds these too, so it rejects every config the run rejects,
    # and the run rejects its members, barriers or source before any solve.
    exp = cfg.sections["experiment"]
    if cfg.kind == "duality":  # the source must fit every level
        from . import analysis

        levels = [float(e) for e in exp.get("eps_list") or [exp["eps"] or 4.0 * grid.h]]
        source = analysis.unit_bump_source(grid, exp.get("source_center"), exp.get("source_width"))
        for eps in levels:
            analysis.check_duality_source(grid, eps, source)
        m["duality"] = levels, source
    elif cfg.kind == "barrier-certify":
        m["barriers"] = _barriers(cfg, m)
    elif cfg.kind != "hypothesis-report":
        m["members"] = _members(cfg, m)
    return m


def _hypotheses(m: dict) -> HypothesisReport:
    return check_hypotheses(m["rho"], m["flux"], m["phi"], m["initial"], m["grid"])


def _members(cfg: ExperimentConfig, m: dict) -> list:
    """The members the kind's run steps, in the order its runner reads their fields.

    ``solve`` steps the config's problem and ``family`` its halving family.
    ``attainment`` steps one member per collar level, each on its own grid, and
    ``dichotomy-sweep`` those levels for each alpha's power-law density, first
    under the config trace and then under that trace shifted by
    ``conflict_offset``.
    """
    from . import solver

    num = cfg.sections["numerics"]
    exp = cfg.sections["experiment"]
    base = solver.ApproxProblem(
        grid=m["grid"], rho=m["rho"], flux=m["flux"], phi=m["phi"], initial=m["initial"],
        eps=exp["eps"], eta=exp["eta"], eta_cap=exp["eta_cap"], horizon=num["t_final"],
        dt=num["dt"],
    )
    if cfg.kind == "solve":
        return [base]
    if cfg.kind == "family":
        return solver.family_members(base, exp["eps_list"], exp["eta_list"])
    from . import analysis

    analysis.check_attainment_levels(exp["eps_list"])
    domain: Domain = m["domain"]

    def level_grid(eps: float):
        if not exp["scale_nodes_with_eps"]:
            return m["grid"]
        # Resolve each level with four cells across its collar so the probe
        # distance tracks the collar width.
        return build_grid(domain, max(int(round(domain.width / (eps / 4.0))) + 1, 16))

    levels = [replace(base, grid=level_grid(eps), eps=float(eps))
              for eps in exp["eps_list"]]
    if cfg.kind == "attainment":
        return levels
    # The conflicting run shifts the whole boundary trace by a constant.  One
    # trace object for every alpha lets a batch evaluate it once per sub-step.
    phi, offset = m["phi"], exp["conflict_offset"]
    shifted = BoundaryData(lambda x, t: np.asarray(phi.phi(x, t)) + offset,
                           horizon=phi.horizon, time_dependent=phi.time_dependent)
    members = []
    for alpha in exp["alpha_list"]:
        rho = DensityModel.power_law(float(alpha), domain)
        members += [replace(p, rho=rho, phi=trace)
                    for trace in (phi, shifted) for p in levels]
    return members


# ---------------------------------------------------------------------------
# Runners (one per experiment kind); each returns (verdict_ok, payload)
# ---------------------------------------------------------------------------


def _solve(cfg, m) -> list:
    """One field per member of ``m["members"]``, in member order, from one solve."""
    from . import solver

    stride = cfg.sections["numerics"]["store_stride"]
    return solver.solve_members(m["members"], build_scheme(cfg), store_stride=stride)


def _member_totals(fields) -> list[dict]:
    """Solver totals of each member, in member order, for ``report.json``."""
    keys = ("eps", "eta", "newton_iterations", "step_halvings", "max_scaled_residual")
    return [{key: f.meta[key] for key in keys} for f in fields]


def _run_solve(cfg, m, out: Path):
    fields = _solve(cfg, m)
    fieldobj = fields[0]
    fieldobj.to_csv(out / "trajectory.csv")
    _write_json(out / "trajectory_meta.json", fieldobj.meta)
    ok = bool(fieldobj.meta["max_principle_ok"])
    return ok, {"meta": fieldobj.meta, "members": _member_totals(fields)}


def _run_family(cfg, m, out: Path):
    from . import solver

    fields = _solve(cfg, m)
    finest, diag = solver.extract_limit_solution(fields)
    finest.to_csv(out / "limit_candidate.csv")
    _write_json(out / "family_diagnostics.json", diag.as_dict())
    ok = diag.converged or not cfg.sections["experiment"]["assert_convergence"]
    return ok, {"diagnostics": diag.as_dict(), "members": _member_totals(fields)}


def _barriers(cfg, m) -> list:
    """Each side's barrier, with its constants chosen and its region checked on the grid."""
    from . import barriers

    exp = cfg.sections["experiment"]
    side = exp["barrier_side"]
    return barriers.build_barriers(
        exp["barrier_case"], ("lower", "upper") if side == "both" else (side,),
        m["grid"], m["rho"], m["flux"], m["phi"], m["initial"],
        anchor=exp["anchor"], t0=exp["t0"], sigma=exp["sigma"], eta=exp["eta"],
        eta_cap=exp["eta_cap"], safety=exp["safety"],
        curvature_margin=exp["curvature_margin"], dt=cfg.sections["numerics"]["dt"],
    )


def _run_barrier_certify(cfg, m, out: Path):
    from . import barriers

    exp = cfg.sections["experiment"]
    dt = cfg.sections["numerics"]["dt"]
    certificates = []
    all_pass = True
    for barrier in m["barriers"]:
        report = barriers.verify_barrier_residual(barrier, m["grid"], m["rho"], dt)
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
    profile = m["barriers"][0].potential  # the sides share it
    table = profile.table_fill() if isinstance(profile, barriers.BoundaryPotential) else None
    return all_pass, {"certificates": certificates, "potential_table": table}


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


def _run_attainment(cfg, m, out: Path):
    from . import analysis
    from .csvfmt import write_csv

    exp = cfg.sections["experiment"]
    fields = _solve(cfg, m)
    report = analysis.boundary_attainment(fields, m["phi"], exp["tau"], threshold=exp["threshold"])
    _write_json(out / "attainment.json", asdict(report))
    write_csv(out / "attainment.csv", "eps,sup_gap", report.eps_levels, report.sups)
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
    from .csvfmt import write_csv

    exp = cfg.sections["experiment"]
    eps_list = exp["eps_list"]
    tau, threshold = exp["tau"], exp["threshold"]
    fields = _solve(cfg, m)

    # Each alpha owns 2n members: its n levels under each of the two traces.
    n = len(eps_list)
    coarse = fields[0].grid
    coords = coarse.nodes[collar_decomposition(coarse, eps_list[0]).probes(33)]
    phi_a, phi_b = m["phi"], m["members"][n].phi
    cap = m["domain"].collar_cap
    rows = []
    for j, alpha in enumerate(exp["alpha_list"]):
        verdict = h4_integral(m["members"][2 * j * n].rho.majorant, cap)
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
    table = [(r["alpha"], eps, d) for r in rows for eps, d in zip(eps_list, r["probe_diffs"])]
    write_csv(out / "dichotomy.csv", "alpha,eps,probe_diff", np.array(table))
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
        code = report_failure(exc)
    report["timings"] = stage.timings
    _write_json(out / "report.json", report)
    return code
