"""Strict flat-section config parsing and model materialization.

The format is a plain key-value document with bracketed sections.  Parsing
is strict: unknown sections or keys, type mismatches, and out-of-range
values fail with the offending line, because a silently misconfigured
numerical experiment is worse than a loud one.  In every section, a key
that only other kinds than the section's take is rejected too, and only a
key that applies gets its default, so no parsed section holds a key its kind
ignores (the kind of ``[numerics]`` is the experiment kind).  The third field
of each schema entry states the key's admissible values, a bound or a string's
choices (a section's kinds among them), checked as its line is read; only the
checks that relate two keys wait until every default is filled in.

Parsing also loads what the experiment kind runs, and nothing more: this
module imports only ``errors``, ``geometry`` and ``models``, and
``parse_config`` imports the modules the kind's runner calls (``solver``,
``analysis`` or ``barriers``) once it knows the kind.  A command-line call
parses before it runs, so a first run pays no import cost.
"""

from __future__ import annotations

import importlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigParseError
from .geometry import Domain, Grid, MIN_NODES, build_grid, collar_decomposition
from .models import BoundaryData, DensityModel, InitialData, Nonlinearity

#: Barrier cases the certifier builds; ``collar.barriers`` takes them from here.
CASES = ("potential-timed", "miller-timed", "potential-stationary", "miller-stationary")

# Each section's kinds and the keys each kind takes; a key marked ``*`` is one
# the kind requires.  In every section, a key that some kind lists is rejected
# under the others, and a key no kind lists (``collar_cap``, ``eps``) applies
# to every kind.
_ATTAINMENT = ("eta", "eta_cap", "eps_list*", "scale_nodes_with_eps", "tau", "threshold")
_KINDS: dict[str, dict[str, tuple[str, ...]]] = {
    "domain": {
        "interval": ("a*", "b*"), "ball": ("r_out*", "dim*"),
        "annulus": ("r_in*", "r_out*", "dim*"),
    },
    "density": {"constant": ("c",), "power": ("alpha*", "coef"), "table": ("file*",)},
    "nonlinearity": {"linear": ("slope",), "porous-medium": ("m*",), "table": ("file*",)},
    "boundary": {
        "constant": ("value",), "ramp": ("value", "rate"),
        "sine": ("offset", "amplitude", "frequency"), "sided": ("left", "right"),
    },
    "initial": {"constant": ("value",), "sine": ("amplitude", "mode", "offset")},
    "experiment": {
        "solve": ("eta", "eta_cap"),
        "family": ("eta", "eta_cap", "eps_list*", "eta_list*", "assert_convergence"),
        "barrier-certify": ("eta", "eta_cap", "t0", "anchor", "sigma", "barrier_case",
                            "barrier_side", "safety", "curvature_margin"),
        "duality": ("eps_list", "source_center", "source_width"), "attainment": _ATTAINMENT,
        "dichotomy-sweep": _ATTAINMENT + ("alpha_list*", "conflict_offset"),
        "hypothesis-report": (),
    },
}
# The [numerics] keys each experiment kind reads.  ``duality`` and
# ``hypothesis-report`` read none, but take ``dt`` so a config can switch kind.
_STEPS = ("dt*", "newton_tol", "max_iterations", "jacobian_floor", "store_stride")
_NUMERICS = dict.fromkeys(("solve", "family", "attainment", "dichotomy-sweep"), _STEPS) | {
    "barrier-certify": ("dt*",), "duality": ("dt",), "hypothesis-report": ("dt",)}

# Each key maps to its type tag (f float, i int, s string, l nonempty list of
# floats, b bool), its default and its admissible values.  The default is
# ``...`` for a key every config must set, None for one that stays absent
# unless set, a callable for one derived from the sections filled before it.
# The admissible values are a bound (``"> 0"``, held by every list entry), a
# string's choices, or None; every float and list entry must also be finite.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "domain": {
        "kind": ("s", ..., tuple(_KINDS["domain"])), "a": ("f", None, None),
        "b": ("f", None, None), "r_in": ("f", None, "> 0"), "r_out": ("f", None, "> 0"),
        "dim": ("i", None, ">= 2"), "collar_cap": ("f", None, "> 0"),
    },
    "density": {
        "kind": ("s", ..., tuple(_KINDS["density"])), "c": ("f", 1.0, "> 0"),
        "alpha": ("f", None, None), "coef": ("f", 1.0, "> 0"), "file": ("s", None, None),
    },
    "nonlinearity": {
        "kind": ("s", ..., tuple(_KINDS["nonlinearity"])), "slope": ("f", 1.0, "> 0"),
        "m": ("f", None, "> 1"), "file": ("s", None, None),
    },
    "boundary": {
        "kind": ("s", ..., tuple(_KINDS["boundary"])), "value": ("f", 0.0, None),
        "rate": ("f", 0.0, None), "offset": ("f", 0.0, None), "amplitude": ("f", 0.0, None),
        "frequency": ("f", 1.0, None), "left": ("f", 0.0, None), "right": ("f", 0.0, None),
        "positivity_floor": ("f", 0.0, ">= 0"),
    },
    "initial": {
        "kind": ("s", ..., tuple(_KINDS["initial"])), "value": ("f", 0.0, None),
        "amplitude": ("f", 1.0, None), "mode": ("i", 1, None), "offset": ("f", 0.0, None),
    },
    "numerics": {
        "nodes": ("i", ..., f">= {MIN_NODES}"), "dt": ("f", None, "> 0"),
        "t_final": ("f", 1.0, "> 0"), "newton_tol": ("f", 1e-10, "> 0"),
        "max_iterations": ("i", 30, ">= 1"), "jacobian_floor": ("f", 1e-8, ">= 0"),
        "store_stride": ("i", 1, ">= 1"),
    },
    "experiment": {
        "kind": ("s", ..., tuple(_KINDS["experiment"])), "eps": ("f", 0.0, None),
        "eta": ("f", 0.0, ">= 0"), "eta_cap": ("f", 0.1, "> 0"), "eps_list": ("l", None, "> 0"),
        "eta_list": ("l", None, "> 0"), "alpha_list": ("l", None, None),
        "tau": ("f", lambda s: s["numerics"]["t_final"] / 10.0, None),
        "threshold": ("f", 0.05, "> 0"), "sigma": ("f", 0.1, "> 0"),
        "t0": ("f", lambda s: s["numerics"]["t_final"] / 2.0, "> 0"),
        "anchor": ("s", "left", ("left", "right")),
        "barrier_case": ("s", "potential-timed", CASES),
        "barrier_side": ("s", "both", ("lower", "upper", "both")),
        "conflict_offset": ("f", 0.5, None), "curvature_margin": ("f", 2.0, ">= 1"),
        "safety": ("f", 1.05, ">= 1"), "source_center": ("f", None, None),
        "source_width": ("f", None, "> 0"), "assert_convergence": ("b", True, None),
        "scale_nodes_with_eps": ("b", True, None),
    },
}

EXPERIMENT_KINDS = tuple(_KINDS["experiment"])

# The collar modules each experiment kind's run calls, beyond the ones every
# kind imports.  ``parse_config`` imports them as soon as it knows the kind,
# so a kind loads only what it runs and a first run pays for none of them.
# Each runner imports its modules itself, so no result depends on this table.
_KIND_MODULES: dict[str, tuple[str, ...]] = {
    "solve": ("solver",), "family": ("solver",), "barrier-certify": ("barriers",),
    "duality": ("analysis",), "attainment": ("analysis",), "dichotomy-sweep": ("analysis",),
    "hypothesis-report": (),
}


_WORDS = {"> 0": "positive", ">= 0": "nonnegative"}


def _convert(key: str, raw: str, spec: tuple, line: int):
    """The value of one config line, checked against the key's admissible values."""
    tag, _, allowed = spec
    try:
        if tag == "f":
            value = float(raw)
        elif tag == "i":
            value = float(raw)
            if value != int(value):
                raise ValueError
            value = int(value)
        elif tag == "l":
            value = [float(tok) for tok in raw.split(",") if tok.strip()]
            if not value:
                raise ValueError
        elif tag == "b":
            value = {"true": True, "yes": True, "1": True,
                     "false": False, "no": False, "0": False}[raw.lower()]
        else:
            value = raw
    except (ValueError, OverflowError, KeyError):  # int(inf) overflows; KeyError: no bool word
        raise ConfigParseError(f"cannot parse {key} = {raw!r} as {tag}", line) from None
    if isinstance(allowed, tuple) and value not in allowed:
        name, choices = key.replace("_", " "), "/".join(allowed)
        raise ConfigParseError(f"unknown {name} {value!r}; choose from {choices}", line)
    if tag in ("f", "i", "l"):
        entries = value if tag == "l" else [value]
        ok = all(abs(e) < np.inf for e in entries)  # false for nan too
        if allowed:
            op, bound = allowed.split()
            ok = ok and all(e > float(bound) if op == ">" else e >= float(bound) for e in entries)
        if not ok:
            words = filter(None, (_WORDS.get(allowed, allowed), tag != "i" and "finite"))
            subject = f"{key} entries" if tag == "l" else key
            raise ConfigParseError(f"{subject} must be {' and '.join(words)}", line)
    return value


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``sections`` holds every key the run reads."""

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
        sections[current][key] = _convert(key, raw, _SCHEMA[current][key], lineno)
        lines[current, key] = lineno

    for sec in _SCHEMA:  # the sections, and the kinds that decide which keys apply
        if sec not in sections:
            raise ConfigParseError(f"missing section [{sec}]")
        if sec in _KINDS and "kind" not in sections[sec]:
            raise ConfigParseError(f"missing key 'kind' in [{sec}]")
    for sec, keys in _SCHEMA.items():
        values = sections[sec]
        owner, kinds = ("experiment", _NUMERICS) if sec == "numerics" else (sec, _KINDS[sec])
        kind = sections[owner]["kind"]
        own = {key.rstrip("*"): key.endswith("*") for key in kinds[kind]}
        listed = {key.rstrip("*") for taken in kinds.values() for key in taken}
        for key, (_, default, _) in keys.items():
            if key in listed and key not in own:
                if key in values:
                    msg = f"key {key!r} does not apply to {owner} kind {kind!r}"
                    raise ConfigParseError(msg, lines[sec, key])
            elif key in values:
                continue
            elif default is ... or own.get(key):
                raise ConfigParseError(f"missing key {key!r} in [{sec}]")
            elif default is not None:
                values[key] = default(sections) if callable(default) else default

    # The checks that relate two keys, where the kind takes them.
    exp, t_final = sections["experiment"], sections["numerics"]["t_final"]
    if "tau" in exp and not 0.0 < exp["tau"] < t_final:
        raise ConfigParseError("tau must lie in (0, t_final)")
    if "t0" in exp and exp["t0"] > t_final:
        raise ConfigParseError(f"t0 = {exp['t0']} exceeds t_final = {t_final}")
    if "eta" in exp and exp["eta"] > exp["eta_cap"]:
        raise ConfigParseError(f"eta = {exp['eta']} exceeds eta_cap = {exp['eta_cap']}")
    cfg = ExperimentConfig(sections)
    for name in _KIND_MODULES[cfg.kind]:
        importlib.import_module(f"{__package__}.{name}")
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


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
        with warnings.catch_warnings():  # an empty file is reported below, not warned of
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ConfigParseError(f"table file {path!r} cannot be read: {exc}")
    except ValueError as exc:
        raise ConfigParseError(f"table file {path!r} is not a numeric table: {exc}")
    if data.shape[0] < 2:
        raise ConfigParseError(f"table file {path!r} must have at least two rows")
    if data.shape[1] != 2:
        raise ConfigParseError(f"table file {path!r} must have two numeric columns")
    if not np.isfinite(data).all():
        raise ConfigParseError(f"table file {path!r} has an entry that is not finite")
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


def build_scheme(cfg: ExperimentConfig):
    """The solver scheme, for the kinds that step."""
    from .solver import SolverScheme

    n = cfg.sections["numerics"]
    return SolverScheme(
        newton_tol=n["newton_tol"],
        max_iterations=n["max_iterations"],
        jacobian_floor=n["jacobian_floor"],
    )
