"""Strict flat-section config parsing and model materialization.

The format is a plain key-value document with bracketed sections.  Parsing
is strict: unknown sections or keys, type mismatches, and out-of-range
values fail with the offending line, because a silently misconfigured
numerical experiment is worse than a loud one.  Every default is filled in
at parse time, so the parsed sections are the whole config a run uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .barriers import CASES
from .errors import ConfigError, ConfigParseError
from .geometry import Domain, Grid, MIN_NODES, build_grid, collar_decomposition
from .models import BoundaryData, DensityModel, InitialData, Nonlinearity
from .solver import SolverScheme

# Each key maps to its type tag (f float, i int, s string, l nonempty list of
# floats, b bool) and its default: ``...`` for a key every config must set,
# None for one that stays absent unless set, a callable for a default derived
# from the sections filled before it.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "domain": {
        "kind": ("s", ...), "a": ("f", None), "b": ("f", None), "r_in": ("f", None),
        "r_out": ("f", None), "dim": ("i", None), "collar_cap": ("f", None),
    },
    "density": {
        "kind": ("s", ...), "c": ("f", 1.0), "alpha": ("f", None), "coef": ("f", 1.0),
        "file": ("s", None),
    },
    "nonlinearity": {
        "kind": ("s", ...), "slope": ("f", 1.0), "m": ("f", None), "file": ("s", None),
    },
    "boundary": {
        "kind": ("s", ...), "value": ("f", 0.0), "rate": ("f", 0.0), "offset": ("f", 0.0),
        "amplitude": ("f", 0.0), "frequency": ("f", 1.0), "left": ("f", 0.0),
        "right": ("f", 0.0), "positivity_floor": ("f", 0.0),
    },
    "initial": {
        "kind": ("s", ...), "value": ("f", 0.0), "amplitude": ("f", 1.0), "mode": ("i", 1),
        "offset": ("f", 0.0),
    },
    "numerics": {
        "nodes": ("i", ...), "dt": ("f", ...), "t_final": ("f", 1.0), "newton_tol": ("f", 1e-10),
        "max_iterations": ("i", 30), "jacobian_floor": ("f", 1e-8),
        "scheme": ("s", "implicit-newton"), "store_stride": ("i", 1),
    },
    "experiment": {
        "kind": ("s", ...), "eps": ("f", 0.0), "eta": ("f", 0.0), "eta_cap": ("f", 0.1),
        "eps_list": ("l", None), "eta_list": ("l", None), "alpha_list": ("l", None),
        "tau": ("f", lambda s: s["numerics"]["t_final"] / 10.0), "threshold": ("f", 0.05),
        "sigma": ("f", 0.1), "t0": ("f", lambda s: s["numerics"]["t_final"] / 2.0),
        "anchor": ("s", "left"), "barrier_case": ("s", "potential-timed"),
        "barrier_side": ("s", "both"), "conflict_offset": ("f", 0.5),
        "curvature_margin": ("f", 2.0), "safety": ("f", 1.05),
        "source_center": ("f", None), "source_width": ("f", None),
        "assert_convergence": ("b", True), "scale_nodes_with_eps": ("b", True),
        "output_dir": ("s", None),
    },
}

# Each section's kinds and the keys each kind takes, required if they have no
# default.  Outside [experiment], a key that some kind lists is rejected under
# the others, and a key no kind lists (``collar_cap``) applies to every kind.
_KINDS: dict[str, dict[str, tuple[str, ...]]] = {
    "domain": {
        "interval": ("a", "b"), "ball": ("r_out", "dim"), "annulus": ("r_in", "r_out", "dim"),
    },
    "density": {"constant": ("c",), "power": ("alpha", "coef"), "table": ("file",)},
    "nonlinearity": {"linear": ("slope",), "porous-medium": ("m",), "table": ("file",)},
    "boundary": {
        "constant": ("value",), "ramp": ("value", "rate"),
        "sine": ("offset", "amplitude", "frequency"), "sided": ("left", "right"),
    },
    "initial": {"constant": ("value",), "sine": ("amplitude", "mode", "offset")},
    "experiment": {
        "solve": (), "family": ("eps_list", "eta_list"), "barrier-certify": (), "duality": (),
        "attainment": ("eps_list",), "dichotomy-sweep": ("eps_list", "alpha_list"),
        "hypothesis-report": (),
    },
}

EXPERIMENT_KINDS = tuple(_KINDS["experiment"])


def _convert(key: str, raw: str, tag: str, line: int):
    try:
        if tag == "f":
            return float(raw)
        if tag == "i":
            v = float(raw)
            if v != int(v):
                raise ValueError
            return int(v)
        if tag == "l":
            values = [float(tok) for tok in raw.split(",") if tok.strip()]
            if not values:
                raise ValueError
            return values
        if tag == "b":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError
        return raw
    except (ValueError, OverflowError):  # int(inf) overflows
        raise ConfigParseError(f"cannot parse {key} = {raw!r} as {tag}", line) from None


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``sections`` holds every default, resolved."""

    sections: dict

    @property
    def kind(self) -> str:
        return self.sections["experiment"]["kind"]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, strictly, and fill in every default."""
    sections: dict[str, dict] = {}
    lines: dict[tuple[str, str], int] = {}
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
        sections[current][key] = _convert(key, raw, _SCHEMA[current][key][0], lineno)
        lines[current, key] = lineno

    for sec, keys in _SCHEMA.items():
        if sec not in sections:
            raise ConfigParseError(f"missing section [{sec}]")
        values = sections[sec]
        kinds = {} if sec == "experiment" else _KINDS.get(sec, {})
        own = kinds.get(values.get("kind"), values)  # an unknown kind fails in _validate
        for key in values:
            if key not in own and any(key in taken for taken in kinds.values()):
                msg = f"key {key!r} does not apply to {sec} kind {values['kind']!r}"
                raise ConfigParseError(msg, lines[sec, key])
        for key, (_, default) in keys.items():
            if key in values or default is None:
                continue
            if default is ...:
                raise ConfigParseError(f"missing key {key!r} in [{sec}]")
            values[key] = default(sections) if callable(default) else default

    cfg = ExperimentConfig(sections)
    _validate(cfg)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def _fail(msg: str):
    raise ConfigParseError(msg)


def _validate(cfg: ExperimentConfig):
    s = cfg.sections
    for sec, kinds in _KINDS.items():
        kind = s[sec]["kind"]
        if kind not in kinds:
            _fail(f"{sec} kind {kind!r} not one of {'/'.join(kinds)}")
        for key in kinds[kind]:
            if key not in s[sec]:
                _fail(f"{kind} {sec} needs key {key!r}")

    if s["domain"]["kind"] != "interval" and s["domain"]["dim"] < 2:
        _fail("radial domains need dim >= 2")

    num = s["numerics"]
    if num["nodes"] < MIN_NODES:
        _fail(f"nodes = {num['nodes']} below minimum {MIN_NODES}")
    if not 0.0 < num["dt"] < np.inf:
        _fail("dt must be positive and finite")
    if not 0.0 < num["t_final"] < np.inf:
        _fail("t_final must be positive and finite")
    if num["scheme"] != "implicit-newton":
        _fail(f"unknown scheme {num['scheme']!r}; the only scheme is implicit-newton")
    if num["store_stride"] < 1:
        _fail("store_stride must be >= 1")
    try:
        build_scheme(cfg)
    except ConfigError as exc:
        raise ConfigParseError(str(exc)) from None

    exp = s["experiment"]
    if not 0.0 < exp["tau"] < num["t_final"]:
        _fail("tau must lie in (0, t_final)")
    if not all(0.0 < e < np.inf for e in exp.get("eps_list") or ()):
        _fail("eps_list entries must be positive and finite")
    if not all(np.isfinite(exp.get("alpha_list") or ())):
        _fail("alpha_list entries must be finite")
    if not 0.0 < exp["threshold"] < np.inf:
        _fail("threshold must be positive and finite")
    if not 0.0 <= exp["eta"] < np.inf:
        _fail("eta must be nonnegative and finite")
    if not 0.0 < exp["eta_cap"] < np.inf:
        _fail("eta_cap must be positive and finite")
    if exp["barrier_case"] not in CASES:
        _fail(f"unknown barrier case {exp['barrier_case']!r}; choose from {CASES}")
    if exp["barrier_side"] not in ("lower", "upper", "both"):
        _fail("barrier_side must be lower, upper, or both")
    if exp["anchor"] not in ("left", "right"):
        _fail("anchor must be left or right")


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
    """The config's grid, on which ``eps`` must be a collar level."""
    grid = build_grid(domain, cfg.sections["numerics"]["nodes"])
    collar_decomposition(grid, cfg.sections["experiment"]["eps"])
    return grid


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
        return DensityModel.constant(d["c"], domain)
    if d["kind"] == "power":
        return DensityModel.power_law(d["alpha"], domain, coef=d["coef"])
    coords, values = _load_table(d["file"])
    return DensityModel.from_table(coords, values, domain)


def build_nonlinearity(cfg: ExperimentConfig) -> Nonlinearity:
    n = cfg.sections["nonlinearity"]
    if n["kind"] == "linear":
        return Nonlinearity.linear(n["slope"])
    if n["kind"] == "porous-medium":
        return Nonlinearity.porous_medium(n["m"])
    knots, values = _load_table(n["file"])
    return Nonlinearity.from_table(knots, values)


def build_boundary(cfg: ExperimentConfig, domain: Domain) -> BoundaryData:
    b = cfg.sections["boundary"]
    horizon = cfg.sections["numerics"]["t_final"]
    floor = b["positivity_floor"]
    if b["kind"] == "constant":
        return BoundaryData.constant(b["value"], horizon, floor)
    if b["kind"] == "ramp":
        return BoundaryData.ramp(b["value"], b["rate"], horizon, floor)
    if b["kind"] == "sine":
        return BoundaryData.sine(b["offset"], b["amplitude"], b["frequency"], horizon, floor)
    return BoundaryData.sided(b["left"], b["right"], domain, horizon, floor)


def build_initial(cfg: ExperimentConfig, domain: Domain) -> InitialData:
    i = cfg.sections["initial"]
    if i["kind"] == "constant":
        return InitialData.constant(i["value"])
    return InitialData.sine(domain, amplitude=i["amplitude"], mode=i["mode"], offset=i["offset"])


def build_scheme(cfg: ExperimentConfig) -> SolverScheme:
    n = cfg.sections["numerics"]
    return SolverScheme(
        newton_tol=n["newton_tol"],
        max_iterations=n["max_iterations"],
        jacobian_floor=n["jacobian_floor"],
    )
