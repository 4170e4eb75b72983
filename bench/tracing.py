"""Outside-in spans around the calls into collar's layers.

Each hook replaces the name a caller looks up (a module attribute, or a
method on a class) with a wrapper that records a span, and puts the original
back afterwards; nothing in the package itself changes.  A hooked name that
no longer exists, for example after a function is inlined into its caller,
is reported as absent instead of failing the run.

Spans carry a name, start, end, parent span and call id.  They are kept in
memory and written out once, when the run ends.  A span's self time is its
duration minus the time its direct child spans cover; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (span name, module a caller looks the name up in, attribute there)
HOOKS = (
    ("config.parse_config_file", "collar.cli", "parse_config_file"),
    ("operators.assemble_diffusion", "collar.solver", "assemble_diffusion"),
    ("operators.assemble_diffusion", "collar.analysis", "assemble_diffusion"),
    ("operators.assemble_diffusion", "collar.barriers", "assemble_diffusion"),
    ("operators.solve_tridiagonal", "collar.solver", "solve_tridiagonal"),
    ("operators.solve_tridiagonal", "collar.analysis", "solve_tridiagonal"),
    ("solver.step_implicit", "collar.solver", "step_implicit"),
    ("solver.solve_eps_eta", "collar.solver", "solve_eps_eta"),
    ("solver.solve_eps_eta", "collar.experiments", "solve_eps_eta"),
    ("solver.extract_limit_solution", "collar.experiments", "extract_limit_solution"),
    ("models.check_hypotheses", "collar.experiments", "check_hypotheses"),
    ("barriers.build_boundary_potential", "collar.experiments", "build_boundary_potential"),
    ("barriers.verify_barrier_residual", "collar.experiments", "verify_barrier_residual"),
    ("barriers.select_localization_radius", "collar.experiments", "select_localization_radius"),
    ("analysis.boundary_attainment", "collar.experiments", "boundary_attainment"),
    ("experiments.artifact_write", "collar.experiments", "_write_json"),
    ("experiments.artifact_write", "collar.solver", "SpaceTimeField.to_csv"),
)

# Layers reported as <name>.calls / .self_s / .errors, in report order.
LAYERS = tuple(dict.fromkeys(name for name, _, _ in HOOKS if name != "experiments.artifact_write"))

ROOT_SPAN = "call"


@dataclass
class Tracer:
    """Span recorder; ``call_id`` tags every span of one top-level call."""

    names: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    solver_meta: list = field(default_factory=list)
    call_id: int = -1
    _stack: list = field(default_factory=list)

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        idx = self._index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_meta = name == "solver.solve_eps_eta"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (idx, start, end, parent, self.call_id, failed)
            if keep_meta:
                self.solver_meta.append((self.call_id, dict(getattr(result, "meta", {}))))
            return result

        return traced

    def table(self) -> dict:
        """Spans as columns, with per-span self time."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 6)
        name, start, end, parent, call, failed = rows.T
        parent = parent.astype(np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": name.astype(np.int64), "start": start, "end": end, "parent": parent,
            "call": call.astype(np.int64), "failed": failed.astype(bool),
            "self": dur - child, "dur": dur,
        }

    def save(self, path: Path) -> None:
        t = self.table()
        np.savez_compressed(
            path, names=np.array(self.names), name=t["name"], start=t["start"], end=t["end"],
            parent=t["parent"], call=t["call"], failed=t["failed"],
        )


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) for a hook site, or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(leaf)
    return None if original is None or not callable(original) else (owner, leaf, original)


class Hooks:
    """Install and remove the span wrappers; records which sites resolved."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.sites = []
        self.resolved, self.absent = [], []
        for name, module, attr in HOOKS:
            site = _resolve(module, attr)
            label = f"{module}.{attr}"
            if site is None:
                self.absent.append(label)
                continue
            owner, leaf, original = site
            self.resolved.append(label)
            self.sites.append((owner, leaf, original, tracer.wrap(name, original)))

    def install(self) -> None:
        for owner, leaf, _, wrapper in self.sites:
            setattr(owner, leaf, wrapper)

    def remove(self) -> None:
        for owner, leaf, original, _ in self.sites:
            setattr(owner, leaf, original)


def layer_metrics(tracer: Tracer, n_calls: int) -> dict:
    """Per-layer calls, self seconds and errors per traced call, plus solver counts."""
    t = tracer.table()
    out = {}

    def select(name):
        if name not in tracer.names:
            return np.zeros(t["name"].shape, dtype=bool)
        return t["name"] == tracer.names.index(name)

    for layer in LAYERS:
        sel = select(layer)
        out[f"{layer}.calls"] = (sel.sum() / n_calls, "count")
        out[f"{layer}.self_s"] = (t["self"][sel].sum() / n_calls, "s")
        out[f"{layer}.errors"] = (t["failed"][sel].sum() / n_calls, "count")

    steps = select("solver.step_implicit")
    attempted = int(steps.sum())
    accepted = int((steps & ~t["failed"]).sum())
    newton = sum(m.get("newton_iterations", 0) for _, m in tracer.solver_meta)
    halvings = sum(m.get("step_halvings", 0) for _, m in tracer.solver_meta)
    out["solver.implicit_steps"] = (accepted / n_calls, "count")
    out["solver.newton_iterations"] = (newton / n_calls, "count")
    out["solver.newton_per_step"] = (newton / accepted if accepted else 0.0, "count")
    out["solver.step_halvings"] = (halvings / n_calls, "count")
    out["solver.accepted_step_ratio"] = (accepted / attempted if attempted else 1.0, "ratio")

    writes = select("experiments.artifact_write")
    out["experiments.artifact_write_s"] = (t["self"][writes].sum() / n_calls, "s")

    # Shares of the traced call: the stepping core (self time of the step and
    # its linear solves) and the numeric potential table (inclusive).
    root = t["dur"][select(ROOT_SPAN)].sum()
    stepping = t["self"][select("solver.step_implicit") | select("operators.solve_tridiagonal")]
    potential = t["dur"][select("barriers.build_boundary_potential")]
    out["trace.share.stepping"] = (stepping.sum() / root if root else 0.0, "ratio")
    out["trace.share.potential"] = (potential.sum() / root if root else 0.0, "ratio")
    return out
