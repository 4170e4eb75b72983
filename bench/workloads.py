"""Seeded inputs and per-call correctness checks for the three workloads.

A seed perturbs data values only (amplitudes, offsets, density-table
coefficients), inside ranges where every verdict checked below is known to
hold.  Node, step and member counts are fixed per workload, so the work done
by one call does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Relative tolerance of the committed reference numbers (default seed only).
# The artifacts are bit-reproducible on one machine; the slack absorbs
# last-digit differences between numpy/scipy builds.
REFERENCE_RTOL = 1e-7
REFERENCE_ATOL = 1e-12
# Values of a CSV artifact pinned by the reference, and the relative slack on
# its size: the digits of one value may change, its precision may not.
CSV_SAMPLE = 256
CSV_BYTES_RTOL = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # the cli subcommand
    data_files: tuple  # artifacts that must repeat byte for byte
    nodes: str
    steps_per_member: int
    members: int


WORKLOADS = {
    "family-heat": Workload(
        "family-heat", "family", ("limit_candidate.csv", "family_diagnostics.json"),
        nodes="801", steps_per_member=400, members=6,
    ),
    "sweep-pme": Workload(
        "sweep-pme", "dichotomy-sweep", ("dichotomy.json", "dichotomy.csv"),
        nodes="21,41,81,161 per alpha and boundary trace", steps_per_member=500, members=16,
    ),
    "certify-table": Workload(
        "certify-table", "barrier-certify", ("barrier_certificates.json",),
        nodes="801", steps_per_member=0, members=2,
    ),
}


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _family_cfg(rng: random.Random, _dest: Path) -> str:
    amplitude = _draw(rng, 0.8, 1.2)
    value = _draw(rng, 0.0, 0.1)
    return f"""
[domain]
kind = interval
a = 0.0
b = 1.0

[density]
kind = constant
c = 1.0

[nonlinearity]
kind = linear

[boundary]
kind = constant
value = {value}

[initial]
kind = sine
amplitude = {amplitude}

[numerics]
nodes = 801
dt = 0.0005
t_final = 0.2
store_stride = 4

[experiment]
kind = family
eps_list = 0.2, 0.1, 0.05, 0.025
eta_list = 0.1, 0.05, 0.025
"""


def _sweep_cfg(rng: random.Random, _dest: Path) -> str:
    offset = _draw(rng, 0.55, 0.65)
    amplitude = _draw(rng, 0.1, 0.2)
    u0 = _draw(rng, 0.25, 0.35)
    return f"""
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
offset = {offset}
amplitude = {amplitude}
frequency = 0.5

[initial]
kind = constant
value = {u0}

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


def _certify_cfg(rng: random.Random, dest: Path) -> str:
    # rho(x) = c0 + c1 sin(pi x / 2) + c2 cos(pi x) on [0, 2], tabulated.
    c0 = _draw(rng, 0.9, 1.1)
    c1 = _draw(rng, 0.1, 0.3)
    c2 = _draw(rng, -0.1, 0.1)
    xs = np.linspace(0.0, 2.0, 81)
    rho = c0 + c1 * np.sin(0.5 * np.pi * xs) + c2 * np.cos(np.pi * xs)
    table = dest / "density.txt"
    np.savetxt(table, np.column_stack([xs, rho]), fmt="%.17g")
    value = _draw(rng, 0.9, 1.1)
    amplitude = _draw(rng, 0.02, 0.05)
    return f"""
[domain]
kind = interval
a = 0.0
b = 2.0
collar_cap = 0.6

[density]
kind = table
file = {table}

[nonlinearity]
kind = linear

[boundary]
kind = sine
offset = {value}
amplitude = {amplitude}
frequency = 0.5

[initial]
kind = constant
value = {value}

[numerics]
nodes = 801
dt = 0.001
t_final = 1.0

[experiment]
kind = barrier-certify
barrier_case = potential-timed
barrier_side = both
sigma = 0.1
t0 = 0.5
"""


_GENERATORS = {
    "family-heat": _family_cfg,
    "sweep-pme": _sweep_cfg,
    "certify-table": _certify_cfg,
}


def write_inputs(name: str, seed: int, dest: Path) -> Path:
    """Write the config (and any table it names) for one seed; return the config path."""
    dest.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    cfg = dest / f"{name}.cfg"
    cfg.write_text(_GENERATORS[name](rng, dest.resolve()).lstrip())
    return cfg


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def verdict_problems(name: str, code: int, out: Path) -> list[str]:
    """Expected-outcome checks for one call; an empty list means the call passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = _report(out)
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    payload = report.get("payload", {})
    problems = []
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}")
    if name == "family-heat":
        if not payload.get("diagnostics", {}).get("converged"):
            problems.append("family did not converge")
    elif name == "certify-table":
        certs = payload.get("certificates", [])
        if len(certs) != 2 or any(c["residual"]["verdict"] != "pass" for c in certs):
            problems.append("a barrier certificate did not pass")
    elif name == "sweep-pme":
        rows = {row["alpha"]: row for row in payload.get("rows", [])}
        finite, divergent = rows.get(1.0), rows.get(3.0)
        if finite is None or divergent is None:
            problems.append("dichotomy rows for alpha 1 and 3 missing")
        else:
            if not (finite["h4_finite"] and finite["attained_first"]):
                problems.append("alpha=1 row not finite-and-attained")
            if divergent["h4_finite"]:
                problems.append("alpha=3 row reported a finite collar integral")
    return problems


def artifact_digest(name: str, out: Path) -> dict:
    """SHA-256 of each data artifact; report.json carries timings and is excluded."""
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in WORKLOADS[name].data_files}


def artifact_fingerprints(name: str, out: Path) -> dict:
    """What the committed reference pins of each data artifact.

    A JSON artifact is pinned whole.  A CSV artifact is pinned by its size,
    header, shape, the sum of its values and up to CSV_SAMPLE values at evenly
    spaced positions, so a file written at lower precision or cut short
    differs from the reference.
    """
    prints = {}
    for fname in WORKLOADS[name].data_files:
        text = (out / fname).read_text()
        if fname.endswith(".json"):
            prints[fname] = json.loads(text)
            continue
        header, _, body = text.partition("\n")
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        flat = table.ravel()
        picks = np.unique(np.linspace(0, flat.size - 1, CSV_SAMPLE).round().astype(int))
        prints[fname] = {"bytes": len(text), "header": header, "shape": list(table.shape),
                         "sum": float(flat.sum()), "sample": flat[picks].tolist()}
    return prints


def outcome(name: str, code: int, out: Path) -> dict:
    """Everything the parent checks about one call, gathered outside its timing."""
    problems = verdict_problems(name, code, out)
    problems += [f"data artifact {f} missing" for f in WORKLOADS[name].data_files
                 if not (out / f).is_file()]
    if problems:
        return {"problems": problems, "digest": None}
    return {"problems": [], "digest": artifact_digest(name, out)}


def _mismatches(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ from the reference"]
        return [p for k in want for p in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs from the reference"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _mismatches(g, w, f"{where}[{i}]")]
    numbers = (int, float)
    rtol = CSV_BYTES_RTOL if where.endswith(".bytes") else REFERENCE_RTOL
    if isinstance(want, numbers) and not isinstance(want, bool):
        same = (isinstance(got, numbers) and not isinstance(got, bool)
                and (math.isclose(got, want, rel_tol=rtol, abs_tol=REFERENCE_ATOL)
                     or (math.isnan(got) and math.isnan(want))))
    else:
        same = got == want
    return [] if same else [f"{where}: {got!r} differs from reference {want!r}"]


def reference_problems(got: dict, want: dict) -> list[str]:
    """Differences between artifact fingerprints and the committed reference."""
    return _mismatches(got, want, "artifacts")
