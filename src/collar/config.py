"""Strict flat-section config parsing and model materialization.

The format is a plain key-value document with bracketed sections.  Parsing
is strict: unknown sections or keys, type mismatches, and out-of-range
values fail with the offending line, because a silently misconfigured
numerical experiment is worse than a loud one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .errors import ConfigParseError
from .geometry import Domain, Grid, MIN_NODES, build_grid
from .models import BoundaryData, DensityModel, InitialData, Nonlinearity
from .solver import SolverScheme

EXPERIMENT_KINDS = (
    "solve",
    "family",
    "barrier-certify",
    "duality",
    "attainment",
    "dichotomy-sweep",
    "hypothesis-report",
)

# type tags: f float, i int, s string, l list of floats, b bool
_SCHEMA: dict[str, dict[str, str]] = {
    "domain": {
        "kind": "s", "a": "f", "b": "f", "r_in": "f", "r_out": "f",
        "dim": "i", "collar_cap": "f",
    },
    "density": {"kind": "s", "c": "f", "alpha": "f", "coef": "f", "file": "s"},
    "nonlinearity": {"kind": "s", "slope": "f", "m": "f", "file": "s"},
    "boundary": {
        "kind": "s", "value": "f", "rate": "f", "offset": "f", "amplitude": "f",
        "frequency": "f", "left": "f", "right": "f", "positivity_floor": "f",
    },
    "initial": {"kind": "s", "value": "f", "amplitude": "f", "mode": "i", "offset": "f"},
    "numerics": {
        "nodes": "i", "dt": "f", "t_final": "f", "newton_tol": "f",
        "max_iterations": "i", "jacobian_floor": "f", "scheme": "s", "store_stride": "i",
    },
    "experiment": {
        "kind": "s", "eps": "f", "eta": "f", "eta_cap": "f",
        "eps_list": "l", "eta_list": "l", "alpha_list": "l",
        "tau": "f", "threshold": "f", "sigma": "f", "t0": "f",
        "anchor": "s", "barrier_case": "s", "barrier_side": "s",
        "conflict_offset": "f", "curvature_margin": "f", "safety": "f",
        "source_center": "f", "source_width": "f",
        "assert_convergence": "b", "scale_nodes_with_eps": "b",
        "output_dir": "s",
    },
}

_REQUIRED = {
    "domain": ("kind",),
    "density": ("kind",),
    "nonlinearity": ("kind",),
    "boundary": ("kind",),
    "initial": ("kind",),
    "numerics": ("nodes", "dt"),
    "experiment": ("kind",),
}


def _convert(raw: str, tag: str, line: int):
    try:
        if tag == "f":
            return float(raw)
        if tag == "i":
            v = float(raw)
            if v != int(v):
                raise ValueError
            return int(v)
        if tag == "l":
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        if tag == "b":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError
        return raw
    except (ValueError, OverflowError):  # int(inf) overflows
        raise ConfigParseError(f"cannot parse {raw!r} as {tag}", line) from None


@dataclass
class ExperimentConfig:
    """Validated experiment description with defaults resolved."""

    sections: dict = dataclass_field(default_factory=dict)

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    @property
    def kind(self) -> str:
        return self.sections["experiment"]["kind"]

    @property
    def t_final(self) -> float:
        return self.sections["numerics"].get("t_final", 1.0)

    @property
    def tau(self) -> float:
        return self.sections["experiment"].get("tau", self.t_final / 10.0)

    @property
    def eta_cap(self) -> float:
        return self.sections["experiment"].get("eta_cap", 0.1)

    def resolved(self) -> dict:
        out = {sec: dict(vals) for sec, vals in self.sections.items()}
        out["experiment"].setdefault("tau", self.tau)
        out["experiment"].setdefault("eta_cap", self.eta_cap)
        out["numerics"].setdefault("t_final", self.t_final)
        return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, strictly."""
    sections: dict[str, dict] = {}
    current: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigParseError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigParseError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ConfigParseError("key outside any section", lineno)
        if "=" not in line:
            raise ConfigParseError("expected 'key = value'", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA[current]:
            raise ConfigParseError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        sections[current][key] = _convert(raw, _SCHEMA[current][key], lineno)

    for sec, required in _REQUIRED.items():
        if sec not in sections:
            raise ConfigParseError(f"missing section [{sec}]")
        for key in required:
            if key not in sections[sec]:
                raise ConfigParseError(f"missing key {key!r} in [{sec}]")

    cfg = ExperimentConfig(sections=sections)
    _validate(cfg)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def _fail(msg: str):
    raise ConfigParseError(msg)


def _validate(cfg: ExperimentConfig):
    s = cfg.sections
    dom = s["domain"]
    if dom["kind"] not in ("interval", "ball", "annulus"):
        _fail(f"domain kind {dom['kind']!r} not one of interval/ball/annulus")
    if dom["kind"] == "interval" and not ("a" in dom and "b" in dom):
        _fail("interval domain needs keys a and b")
    if dom["kind"] == "ball" and "r_out" not in dom:
        _fail("ball domain needs key r_out")
    if dom["kind"] == "annulus" and not ("r_in" in dom and "r_out" in dom):
        _fail("annulus domain needs keys r_in and r_out")
    if dom["kind"] != "interval" and dom.get("dim", 0) < 2:
        _fail("radial domains need dim >= 2")

    den = s["density"]
    if den["kind"] not in ("constant", "power", "table"):
        _fail(f"density kind {den['kind']!r} not one of constant/power/table")
    if den["kind"] == "power" and "alpha" not in den:
        _fail("power density needs key alpha")
    if den["kind"] == "table" and "file" not in den:
        _fail("table density needs key file")

    non = s["nonlinearity"]
    if non["kind"] not in ("linear", "porous-medium", "table"):
        _fail(f"nonlinearity kind {non['kind']!r} not one of linear/porous-medium/table")
    if non["kind"] == "porous-medium" and "m" not in non:
        _fail("porous-medium nonlinearity needs key m")
    if non["kind"] == "table" and "file" not in non:
        _fail("table nonlinearity needs key file")

    bnd = s["boundary"]
    if bnd["kind"] not in ("constant", "ramp", "sine", "sided"):
        _fail(f"boundary kind {bnd['kind']!r} not one of constant/ramp/sine/sided")

    ini = s["initial"]
    if ini["kind"] not in ("constant", "sine"):
        _fail(f"initial kind {ini['kind']!r} not one of constant/sine")

    num = s["numerics"]
    if num["nodes"] < MIN_NODES:
        _fail(f"nodes = {num['nodes']} below minimum {MIN_NODES}")
    if not 0.0 < num["dt"] < np.inf:
        _fail("dt must be positive and finite")
    if not 0.0 < num.get("t_final", 1.0) < np.inf:
        _fail("t_final must be positive and finite")
    if num.get("scheme", "implicit-newton") != "implicit-newton":
        _fail(f"unknown scheme {num['scheme']!r}; the only scheme is implicit-newton")
    if num.get("store_stride", 1) < 1:
        _fail("store_stride must be >= 1")
    if not 0.0 < num.get("newton_tol", 1e-10) < np.inf:
        _fail("newton_tol must be positive and finite")
    if num.get("max_iterations", 30) < 1:
        _fail("max_iterations must be >= 1")
    if not 0.0 <= num.get("jacobian_floor", 1e-8) < np.inf:
        _fail("jacobian_floor must be nonnegative and finite")

    exp = s["experiment"]
    if exp["kind"] not in EXPERIMENT_KINDS:
        _fail(f"experiment kind {exp['kind']!r} not one of {EXPERIMENT_KINDS}")
    t_final = num.get("t_final", 1.0)
    if not (0.0 < exp.get("tau", t_final / 10.0) < t_final):
        _fail("tau must lie in (0, t_final)")
    if exp.get("eta", 0.0) < 0.0:
        _fail("eta must be nonnegative")
    if exp.get("barrier_side", "both") not in ("lower", "upper", "both"):
        _fail("barrier_side must be lower, upper, or both")
    if exp.get("anchor", "left") not in ("left", "right"):
        _fail("anchor must be left or right")
    kind = exp["kind"]
    if kind == "family" and not (exp.get("eps_list") and exp.get("eta_list")):
        _fail("family experiments need eps_list and eta_list")
    if kind in ("attainment", "dichotomy-sweep") and not exp.get("eps_list"):
        _fail(f"{kind} experiments need eps_list")
    if kind == "dichotomy-sweep" and not exp.get("alpha_list"):
        _fail("dichotomy-sweep experiments need alpha_list")


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


def build_domain(cfg: ExperimentConfig) -> Domain:
    d = cfg.sections["domain"]
    cap = d.get("collar_cap")
    if d["kind"] == "interval":
        return Domain.interval(d["a"], d["b"], collar_cap=cap)
    if d["kind"] == "ball":
        return Domain.ball(d["r_out"], d["dim"], collar_cap=cap)
    return Domain.annulus(d["r_in"], d["r_out"], d["dim"], collar_cap=cap)


def build_grid_from(cfg: ExperimentConfig, domain: Domain) -> Grid:
    return build_grid(domain, cfg.sections["numerics"]["nodes"])


def _load_table(path: str):
    try:
        data = np.loadtxt(path)
    except OSError as exc:
        _fail(f"table file {path!r} cannot be read: {exc}")
    except ValueError as exc:
        _fail(f"table file {path!r} is not a numeric table: {exc}")
    if data.ndim != 2 or data.shape[1] != 2:
        _fail(f"table file {path!r} must have two numeric columns")
    return data[:, 0], data[:, 1]


def build_density(cfg: ExperimentConfig, domain: Domain) -> DensityModel:
    d = cfg.sections["density"]
    if d["kind"] == "constant":
        return DensityModel.constant(d.get("c", 1.0), domain)
    if d["kind"] == "power":
        return DensityModel.power_law(d["alpha"], domain, coef=d.get("coef", 1.0))
    coords, values = _load_table(d["file"])
    return DensityModel.from_table(coords, values, domain)


def build_nonlinearity(cfg: ExperimentConfig) -> Nonlinearity:
    n = cfg.sections["nonlinearity"]
    if n["kind"] == "linear":
        return Nonlinearity.linear(n.get("slope", 1.0))
    if n["kind"] == "porous-medium":
        return Nonlinearity.porous_medium(n["m"])
    knots, values = _load_table(n["file"])
    return Nonlinearity.from_table(knots, values)


def build_boundary(cfg: ExperimentConfig, domain: Domain) -> BoundaryData:
    b = cfg.sections["boundary"]
    horizon = cfg.t_final
    floor = b.get("positivity_floor", 0.0)
    if b["kind"] == "constant":
        return BoundaryData.constant(b.get("value", 0.0), horizon, floor)
    if b["kind"] == "ramp":
        return BoundaryData.ramp(b.get("value", 0.0), b.get("rate", 0.0), horizon, floor)
    if b["kind"] == "sine":
        return BoundaryData.sine(
            b.get("offset", 0.0), b.get("amplitude", 0.0), b.get("frequency", 1.0),
            horizon, floor,
        )
    return BoundaryData.sided(b.get("left", 0.0), b.get("right", 0.0), domain, horizon, floor)


def build_initial(cfg: ExperimentConfig, domain: Domain) -> InitialData:
    i = cfg.sections["initial"]
    if i["kind"] == "constant":
        return InitialData.constant(i.get("value", 0.0))
    return InitialData.sine(
        domain, amplitude=i.get("amplitude", 1.0), mode=i.get("mode", 1),
        offset=i.get("offset", 0.0),
    )


def build_scheme(cfg: ExperimentConfig) -> SolverScheme:
    n = cfg.sections["numerics"]
    return SolverScheme(
        newton_tol=n.get("newton_tol", 1e-10),
        max_iterations=n.get("max_iterations", 30),
        jacobian_floor=n.get("jacobian_floor", 1e-8),
    )
