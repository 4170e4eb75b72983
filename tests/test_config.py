import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collar.cli import main as cli_main
from collar.config import (
    CASES,
    _KINDS,
    _NUMERICS,
    _SCHEMA,
    build_boundary,
    build_density,
    build_domain,
    build_initial,
    build_nonlinearity,
    parse_config,
)
from collar.errors import ConfigParseError
from collar.experiments import run_experiment

MINIMAL_HEAT = """
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
value = 0.0

[initial]
kind = sine
amplitude = 1.0

[numerics]
nodes = 65
dt = 0.001
t_final = 0.05

[experiment]
kind = solve
"""

RADIAL_DOMAINS = {
    "ball": "kind = ball\nr_out = 1.0\ndim = 3",
    "annulus": "kind = annulus\nr_in = 1.0\nr_out = 2.0\ndim = 2",
}

# The config of TestMoreRunners::test_barrier_certify_experiment, which certifies.
BARRIER_CERTIFY = """
[domain]
kind = interval
a = 0.0
b = 2.0
collar_cap = 0.6

[density]
kind = constant
c = 1.0

[nonlinearity]
kind = linear

[boundary]
kind = constant
value = 1.0

[initial]
kind = constant
value = 1.0

[numerics]
nodes = 201
dt = 0.001
t_final = 1.0

[experiment]
kind = barrier-certify
barrier_case = potential-timed
barrier_side = both
sigma = 0.1
t0 = 0.5
"""

_SWEEP = "kind = dichotomy-sweep\neps_list = 0.2, 0.1, 0.05, 0.025\nalpha_list = 1.0"
_HEAT_INTERVAL = "kind = interval\na = 0.0\nb = 1.0"
_CERTIFY_INTERVAL = "kind = interval\na = 0.0\nb = 2.0\ncollar_cap = 0.6"
_MILLER = "barrier_case = miller-stationary"
_LEVELS_ABOVE_CAP = "eps_list = 0.4, 0.2, 0.1, 0.05"
_LEVELS = "eps_list = 0.2, 0.1, 0.05, 0.025"


def _heat(experiment: str, nodes: int = 101) -> str:
    """MINIMAL_HEAT on ``nodes`` nodes under the ``[experiment]`` body ``experiment``."""
    return MINIMAL_HEAT.replace("nodes = 65", f"nodes = {nodes}").replace("kind = solve",
                                                                           experiment)


# Each config mistake, the subcommand that runs it, and the config; {table}
# names a density table with a zero value, {table3} one with three columns,
# {short} one that stops at 0.5, short of b = 1, and {flux} the flux table
# u + 0.1 u^3 on knots -2 to 2.
CONFIG_MISTAKES = {
    "negative-c": ("solve", MINIMAL_HEAT.replace("c = 1.0", "c = -1")),
    "negative-slope": ("solve", MINIMAL_HEAT.replace("kind = linear", "kind = linear\nslope = -1")),
    "small-m": ("solve", MINIMAL_HEAT.replace("kind = linear", "kind = porous-medium\nm = 0.5")),
    "nan-c": ("solve", MINIMAL_HEAT.replace("c = 1.0", "c = nan")),
    "nan-slope": ("solve", MINIMAL_HEAT.replace("kind = linear", "kind = linear\nslope = nan")),
    "nan-m": ("solve", MINIMAL_HEAT.replace("kind = linear", "kind = porous-medium\nm = nan")),
    "nan-amplitude": ("solve", MINIMAL_HEAT.replace("amplitude = 1.0", "amplitude = nan")),
    "infinite-value": ("solve", MINIMAL_HEAT.replace("value = 0.0", "value = inf")),
    "nan-floor": ("solve", MINIMAL_HEAT.replace("value = 0.0",
                                                "value = 0.0\npositivity_floor = nan")),
    "nan-offset": ("dichotomy-sweep", MINIMAL_HEAT.replace(
        "kind = solve", f"{_SWEEP}\nconflict_offset = nan")),
    "nan-safety": ("barrier-certify", BARRIER_CERTIFY.replace("t0 = 0.5",
                                                              "t0 = 0.5\nsafety = nan")),
    "nan-margin": ("barrier-certify", BARRIER_CERTIFY.replace(
        "t0 = 0.5", "t0 = 0.5\ncurvature_margin = nan")),
    "small-safety": ("barrier-certify", BARRIER_CERTIFY.replace("t0 = 0.5",
                                                                "t0 = 0.5\nsafety = 0.5")),
    "nan-sigma": ("barrier-certify", BARRIER_CERTIFY.replace("sigma = 0.1", "sigma = nan")),
    "nan-t0": ("barrier-certify", BARRIER_CERTIFY.replace("t0 = 0.5", "t0 = nan")),
    "negative-t0": ("barrier-certify", BARRIER_CERTIFY.replace("t0 = 0.5", "t0 = -1")),
    "late-t0": ("barrier-certify", BARRIER_CERTIFY.replace("t0 = 0.5", "t0 = 2")),
    "lift-above-cap": ("solve", MINIMAL_HEAT.replace("kind = solve",
                                                     "kind = solve\neta = 0.5\neta_cap = 0.1")),
    "zero-table-density": ("solve", MINIMAL_HEAT.replace("kind = constant\nc = 1.0",
                                                         "kind = table\nfile = {table}")),
    "bump-in-collar": ("duality", MINIMAL_HEAT.replace("kind = solve",
                                                       "kind = duality\neps = 0.25")),
    "degenerate-timed-barrier": ("barrier-certify", BARRIER_CERTIFY.replace(
        "kind = linear", "kind = porous-medium\nm = 2.0")),
    "coarse-barrier-region": ("barrier-certify", BARRIER_CERTIFY.replace("nodes = 201",
                                                                         "nodes = 17")),
    "coarse-barrier-time-step": ("barrier-certify", BARRIER_CERTIFY.replace("dt = 0.001",
                                                                            "dt = 0.3")),
    "family-eps-not-halving": ("family", MINIMAL_HEAT.replace("kind = solve", (
        "kind = family\neps_list = 0.2, 0.15, 0.1, 0.05\neta_list = 0.1, 0.05, 0.025"))),
    "family-three-eps": ("family", MINIMAL_HEAT.replace("kind = solve", (
        "kind = family\neps_list = 0.2, 0.1, 0.05\neta_list = 0.1, 0.05, 0.025"))),
    "attainment-three-levels": ("attainment", MINIMAL_HEAT.replace(
        "kind = solve", "kind = attainment\neps_list = 0.2, 0.1, 0.05")),
    "attainment-increasing": ("attainment", MINIMAL_HEAT.replace(
        "kind = solve", "kind = attainment\neps_list = 0.025, 0.05, 0.1, 0.2")),
    "dichotomy-increasing": ("dichotomy-sweep", MINIMAL_HEAT.replace("kind = solve", (
        "kind = dichotomy-sweep\neps_list = 0.025, 0.05, 0.1, 0.2\nalpha_list = 1.0"))),
    # The exterior bump at an inner radius below the collar cap, and a bump
    # whose e^(-4 dim) underflows; both used to exit 3.
    "miller-inner-radius-below-cap": ("barrier-certify", BARRIER_CERTIFY.replace(
        _CERTIFY_INTERVAL, "kind = annulus\nr_in = 0.1\nr_out = 1.0\ndim = 2").replace(
        "barrier_case = potential-timed", _MILLER)),
    "miller-bump-underflow": ("barrier-certify", BARRIER_CERTIFY.replace(
        _CERTIFY_INTERVAL, "kind = ball\nr_out = 1.0\ndim = 200").replace(
        "barrier_case = potential-timed", _MILLER).replace("nodes = 201", "nodes = 17")),
    # Radial cell volumes that underflow: solve exited 3 after 11 halvings,
    # duality failed its verdict on NaN, and attainment exited 3 on a level
    # grid that validate never built.
    "radial-metric-underflow-solve": ("solve", MINIMAL_HEAT.replace(
        _HEAT_INTERVAL, "kind = ball\nr_out = 1.0\ndim = 200")),
    "radial-metric-underflow-duality": ("duality", MINIMAL_HEAT.replace(
        _HEAT_INTERVAL, "kind = ball\nr_out = 1.0\ndim = 200").replace(
        "kind = solve", "kind = duality")),
    "radial-metric-underflow-finest-level": ("attainment", MINIMAL_HEAT.replace(
        _HEAT_INTERVAL, "kind = ball\nr_out = 1.0\ndim = 130").replace(
        "kind = solve", "kind = attainment\neps_list = 0.2, 0.1, 0.05, 0.025")),
    # Members that validate never built, so it passed them while the run exited 2.
    "family-lift-above-cap": ("family", _heat(
        "kind = family\neps_list = 0.2, 0.1, 0.05, 0.025\neta_list = 0.4, 0.2, 0.1")),
    "family-level-above-cap": ("family", _heat(
        f"kind = family\n{_LEVELS_ABOVE_CAP}\neta_list = 0.1, 0.05, 0.025")),
    "family-level-below-2h": ("family", _heat(
        "kind = family\neps_list = 0.16, 0.08, 0.04, 0.02\neta_list = 0.1, 0.05, 0.025", 41)),
    "family-few-probes": ("family", _heat(
        "kind = family\neps_list = 0.42, 0.21, 0.105, 0.0525\neta_list = 0.1, 0.05, 0.025",
        41).replace("b = 1.0", "b = 1.0\ncollar_cap = 0.42")),
    "attainment-level-above-cap": ("attainment", _heat(
        f"kind = attainment\n{_LEVELS_ABOVE_CAP}")),
    "attainment-level-below-2h": ("attainment", _heat(
        "kind = attainment\neps_list = 0.2, 0.1, 0.05, 0.01\nscale_nodes_with_eps = false")),
    "dichotomy-level-above-cap": ("dichotomy-sweep", _heat(
        f"kind = dichotomy-sweep\n{_LEVELS_ABOVE_CAP}\nalpha_list = 1.0")),
    # A ball has one boundary sphere, so a sided trace used to drop its left value.
    "sided-trace-on-a-ball": ("solve", MINIMAL_HEAT.replace(_HEAT_INTERVAL, RADIAL_DOMAINS["ball"])
                              .replace("kind = constant\nvalue = 0.0",
                                       "kind = sided\nleft = 5.0\nright = 0.5")),
    # Parse errors no other test reaches.
    "duplicate-section": ("solve", MINIMAL_HEAT + "\n[experiment]\nkind = solve\n"),
    "key-outside-section": ("solve", "dt = 0.001\n" + MINIMAL_HEAT),
    "line-without-equals": ("solve", MINIMAL_HEAT.replace("kind = solve", "kind = solve\nverbose")),
    "missing-nodes": ("solve", MINIMAL_HEAT.replace("nodes = 65\n", "")),
    "unknown-initial-kind": ("solve", MINIMAL_HEAT.replace("kind = sine", "kind = cosine")),
    "tau-at-t-final": ("attainment", _heat(f"kind = attainment\n{_LEVELS}\ntau = 0.05")),
    "fractional-nodes": ("solve", MINIMAL_HEAT.replace("nodes = 65", "nodes = 10.5")),
    "bool-not-a-word": ("family", MINIMAL_HEAT.replace("kind = solve", (
        "kind = family\neps_list = 0.2, 0.1, 0.05, 0.025\neta_list = 0.1, 0.05, 0.025\n"
        "assert_convergence = maybe"))),
    "three-column-table": ("solve", MINIMAL_HEAT.replace("kind = constant\nc = 1.0",
                                                         "kind = table\nfile = {table3}")),
    "table-short-of-b": ("solve", MINIMAL_HEAT.replace("kind = constant\nc = 1.0",
                                                       "kind = table\nfile = {short}")),
    # Keys the kind does not read, which it used to accept and ignore.
    "eps-list-under-solve": ("solve", _heat("kind = solve\neps_list = 0.3, 0.1")),
    "threshold-under-barrier-certify": ("barrier-certify", BARRIER_CERTIFY.replace(
        "t0 = 0.5", "t0 = 0.5\nthreshold = 7")),
    "barrier-case-under-solve": ("solve", _heat("kind = solve\nbarrier_case = miller-timed")),
    "eta-under-duality": ("duality", _heat("kind = duality\neps = 0.125\neta = 0.05")),
    # [numerics] keys read only by the kinds that step.
    "newton-tol-under-barrier-certify": ("barrier-certify", BARRIER_CERTIFY.replace(
        "t_final = 1.0", "t_final = 1.0\nnewton_tol = 1e-12")),
    "store-stride-under-barrier-certify": ("barrier-certify", BARRIER_CERTIFY.replace(
        "t_final = 1.0", "t_final = 1.0\nstore_stride = 2")),
    "max-iterations-under-duality": ("duality", _heat("kind = duality\neps = 0.125").replace(
        "t_final = 0.05", "t_final = 0.05\nmax_iterations = 5")),
    "jacobian-floor-under-hypothesis-report": ("hypothesis-report", MINIMAL_HEAT.replace(
        "t_final = 0.05", "t_final = 0.05\njacobian_floor = 0").replace(
        "kind = solve", "kind = hypothesis-report")),
    # The table covers [-K, K], but the barrier's own G-values leave it: this exited 3.
    "barrier-past-flux-table": ("barrier-certify", BARRIER_CERTIFY.replace(
        "kind = linear", "kind = table\nfile = {flux}")),
}


def _flux_table(doc: str, trace: float, initial: float) -> str:
    """``doc`` with the flux table {flux}, a constant trace and constant initial data."""
    return doc.replace("kind = linear", "kind = table\nfile = {flux}").replace(
        "kind = constant\nvalue = 0.0", f"kind = constant\nvalue = {trace}").replace(
        "kind = sine\namplitude = 1.0", f"kind = constant\nvalue = {initial}")


# Runs whose data lie on the knots of a flux table from -1 to 1, so h2 holds,
# but which read G past its last knot, where it is flat: the subcommand, the
# config with {flux}, and the states the run reads.
FLUX_TABLE_SHORT = {
    "family-lifts": ("family", _flux_table(_heat(
        "kind = family\neps_list = 0.2, 0.1, 0.05, 0.025\neta_list = 0.1, 0.05, 0.025", 129),
        1.0, 0.5), "[0.525, 1.025], the data range lifted by eta = 0.025"),
    "solve-lift": ("solve", _flux_table(MINIMAL_HEAT.replace(
        "kind = solve", "kind = solve\neta = 0.05"), 1.0, 0.5),
        "[0.55, 1.05], the data range lifted by eta = 0.05"),
    "sweep-conflict-offset": ("dichotomy-sweep", _flux_table(MINIMAL_HEAT.replace(
        "kind = solve", _SWEEP), 0.75, 0.5), "[0.5, 1.25], the data range lifted by eta = 0"),
    "barrier-bound": ("barrier-certify", BARRIER_CERTIFY.replace(
        "kind = linear", "kind = table\nfile = {flux}"), "[-K, K] for K = 1.1"),
}


def write_flux_table(path: Path) -> Path:
    """The flux table u + 0.1 u^3 on knots -2 to 2, written to ``path``."""
    us = np.linspace(-2.0, 2.0, 41)
    np.savetxt(path, np.column_stack([us, us + 0.1 * us**3]))
    return path


@st.composite
def barrier_configs(draw):
    """A barrier-certify config over the domains, models and keys a config can name."""
    dim = st.integers(2, 300)
    domain = draw(st.one_of(
        st.just("kind = interval\na = 0.0\nb = 2.0"),
        st.builds("kind = ball\nr_out = 1.0\ndim = {}".format, dim),
        st.builds("kind = annulus\nr_in = {}\nr_out = 2.0\ndim = {}".format,
                  st.sampled_from([0.05, 0.2, 1.0]), dim),
    ))
    density = draw(st.one_of(st.just("kind = constant"),
                             st.builds("kind = power\nalpha = {!r}".format, st.floats(-1.0, 2.5))))
    pick = lambda *values: draw(st.sampled_from(values))  # noqa: E731
    flux = pick("kind = linear", "kind = porous-medium\nm = 2.0", "kind = table\nfile = {flux}")
    trace = pick("kind = constant\nvalue = 1.0", "kind = ramp\nvalue = 0.5\nrate = 1.0",
                 "kind = sine\noffset = 1.0\namplitude = 0.5\nfrequency = 1.0")
    initial = pick("kind = constant\nvalue = 1.0", "kind = sine\namplitude = 0.5\noffset = 1.0")
    return f"""
[domain]
{domain}
[density]
{density}
[nonlinearity]
{flux}
[boundary]
{trace}
[initial]
{initial}
[numerics]
nodes = {pick(16, 17, 41, 201, 801)}
dt = {pick(0.001, 0.01, 0.2)}
t_final = 1.0
[experiment]
kind = barrier-certify
barrier_case = {pick(*CASES)}
barrier_side = {pick("lower", "upper", "both")}
anchor = {pick("left", "right")}
sigma = {pick(0.05, 0.1, 0.5)}
t0 = {pick(0.1, 0.5, 1.0)}
eta = {pick(0.0, 0.05)}
"""

# Values that keep the config valid where 1.0 would not.
VALID = {"a": "0.0", "r_out": "2.0", "dim": "2", "m": "2.0", "eta": "0.05", "tau": "0.01",
         "t0": "0.02", "eps_list": "0.2, 0.1, 0.05, 0.025", "eta_list": "0.1, 0.05, 0.025",
         "anchor": "right", "barrier_case": "miller-timed", "barrier_side": "lower",
         "assert_convergence": "false", "scale_nodes_with_eps": "false"}


# The keys each experiment kind requires, at values MINIMAL_HEAT's other sections admit.
VALID_EXPERIMENT = {"family": f"{_LEVELS}\neta_list = 0.1, 0.05, 0.025",
                    "attainment": _LEVELS, "dichotomy-sweep": f"{_LEVELS}\nalpha_list = 1.0"}


def kind_table(sec: str) -> dict:
    """The keys each kind lists for [sec]; the kind of [numerics] is the experiment kind."""
    return _NUMERICS if sec == "numerics" else _KINDS[sec]


def own_keys(sec: str, kind: str) -> set:
    """The keys ``kind`` of [sec] lists, without their required-key marker."""
    return {key.rstrip("*") for key in kind_table(sec)[kind]}


def takes(sec: str, kind: str) -> set:
    """The keys of [sec] that apply under ``kind``: its own and those no kind lists."""
    listed = set().union(*(own_keys(sec, k) for k in kind_table(sec)))
    return set(_SCHEMA[sec]) - listed | own_keys(sec, kind)


def with_setting(sec: str, key: str, value: str, kind: str | None = None) -> str:
    """MINIMAL_HEAT with ``key = value`` last in [sec], under ``kind`` and the keys it
    requires, or else under a kind that lists the key."""
    sections = dict(re.findall(r"\[(\w+)\]\n((?:.+\n)*)", MINIMAL_HEAT))
    kinds = _KINDS.get(sec, {})
    kind = kind or next((k for k in kinds if key in own_keys(sec, k)), None)
    if kind is None:
        body = [ln for ln in sections[sec].splitlines() if not ln.startswith(f"{key} =")]
    else:
        body = [f"kind = {kind}"] + [f"{k[:-1]} = {VALID.get(k[:-1], '1.0')}"
                                     for k in kinds[kind] if k.endswith("*") and k[:-1] != key]
    sections[sec] = "\n".join(body + [f"{key} = {value}"]) + "\n"
    return "".join(f"[{name}]\n{text}\n" for name, text in sections.items())


NUMBER_KEYS = [(sec, key) for sec, keys in _SCHEMA.items()
               for key, spec in keys.items() if spec[0] in ("f", "l")]


class TestParsing:
    def test_minimal_document_with_defaults(self):
        cfg = parse_config(MINIMAL_HEAT)
        assert cfg.kind == "solve"
        assert cfg.sections["experiment"] == {"kind": "solve", "eps": 0.0, "eta": 0.0,
                                              "eta_cap": 0.1}
        exp = parse_config(with_setting("experiment", "threshold", "0.1")).sections["experiment"]
        assert exp["kind"] == "attainment"
        assert exp["tau"] == pytest.approx(0.005)  # t_final / 10

    @pytest.mark.parametrize("kind", list(_KINDS["experiment"]))
    def test_dt_is_required_by_the_kinds_that_read_it(self, kind):
        doc = MINIMAL_HEAT.replace("dt = 0.001\n", "").replace(
            "kind = solve", f"kind = {kind}\n{VALID_EXPERIMENT.get(kind, '')}")
        if "dt*" in _NUMERICS[kind]:
            with pytest.raises(ConfigParseError, match=r"missing key 'dt' in \[numerics\]"):
                parse_config(doc)
        else:
            assert parse_config(doc).sections["numerics"] == {"nodes": 65, "t_final": 0.05}

    def test_unknown_key_reports_line(self):
        bad = MINIMAL_HEAT.replace("value = 0.0", "value = 0.0\nwavelength = 3")
        with pytest.raises(ConfigParseError) as err:
            parse_config(bad)
        assert "wavelength" in str(err.value)
        assert err.value.line is not None

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config(MINIMAL_HEAT + "\n[plotting]\nstyle = fancy\n")

    def test_type_mismatch_reports_line(self):
        bad = MINIMAL_HEAT.replace("nodes = 65", "nodes = sixty")
        with pytest.raises(ConfigParseError) as err:
            parse_config(bad)
        assert err.value.line is not None

    def test_nodes_below_minimum(self):
        bad = MINIMAL_HEAT.replace("nodes = 65", "nodes = 8")
        with pytest.raises(ConfigParseError):
            parse_config(bad)

    def test_duplicate_key_rejected(self):
        bad = MINIMAL_HEAT.replace("dt = 0.001", "dt = 0.001\ndt = 0.002")
        with pytest.raises(ConfigParseError):
            parse_config(bad)

    def test_missing_required_section(self):
        bad = MINIMAL_HEAT.replace("[numerics]", "[experiment2]".replace("2", ""))
        with pytest.raises(ConfigParseError):
            parse_config(MINIMAL_HEAT.split("[numerics]")[0] + "[experiment]\nkind = solve\n")

    def test_family_requires_schedules(self):
        bad = MINIMAL_HEAT.replace("kind = solve", "kind = family")
        with pytest.raises(ConfigParseError):
            parse_config(bad)

    def test_list_values(self):
        doc = MINIMAL_HEAT.replace(
            "kind = solve",
            "kind = family\neps_list = 0.2, 0.1, 0.05, 0.025\neta_list = 0.1, 0.05, 0.025",
        )
        cfg = parse_config(doc)
        assert cfg.sections["experiment"]["eps_list"] == [0.2, 0.1, 0.05, 0.025]

    @pytest.mark.parametrize("old, new, key", [
        ("c = 1.0", "c = 1.0\nalpha = 2.0", "alpha"),
        ("c = 1.0", "c = 1.0\nfile = nope.txt", "file"),
        ("b = 1.0", "b = 1.0\nr_out = 5.0", "r_out"),
        ("b = 1.0", "b = 1.0\ndim = 3", "dim"),
        ("kind = linear", "kind = linear\nm = 2.0", "m"),
        ("value = 0.0", "value = 0.0\nfrequency = 2.0", "frequency"),
        ("amplitude = 1.0", "amplitude = 1.0\nvalue = 0.3", "value"),
    ])
    def test_keys_of_other_kinds_rejected(self, old, new, key):
        # These used to be accepted and ignored.
        doc = MINIMAL_HEAT.replace(old, new)
        with pytest.raises(ConfigParseError, match=f"key '{key}' does not apply") as err:
            parse_config(doc)
        assert err.value.line == doc.splitlines().index(new.splitlines()[1]) + 1

    def test_bool_words(self):
        for key, word, value in [("assert_convergence", "no", False),
                                 ("scale_nodes_with_eps", "yes", True)]:
            exp = parse_config(with_setting("experiment", key, word)).sections["experiment"]
            assert exp[key] is value

    @pytest.mark.parametrize("kind", list(_KINDS["experiment"]))
    def test_experiment_keys_apply_per_kind(self, tmp_path, capsys, kind):
        # [experiment] used to accept every key under every kind and ignore
        # the ones the kind does not read.
        accepted = set()
        for key in set(_SCHEMA["experiment"]) - {"kind"}:
            doc = with_setting("experiment", key, VALID.get(key, "1.0"), kind)
            if key in takes("experiment", kind):
                parse_config(doc)
                accepted.add(key)
                continue
            path = tmp_path / "exp.cfg"
            path.write_text(doc)
            line = doc.splitlines().index(f"{key} = {VALID.get(key, '1.0')}") + 1
            message = f"config error: key {key!r} does not apply to experiment kind {kind!r} "
            for command in ("validate", kind):
                assert cli_main([command, "--config", str(path),
                                 "--out", str(tmp_path / "out")]) == 2, (key, command)
                assert capsys.readouterr().err == f"{message}(line {line})\n"
            assert not (tmp_path / "out").exists()
        assert accepted == own_keys("experiment", kind) | {"eps"}

    def test_forty_experiment_keys_are_settable(self):
        assert sum(len(takes("experiment", kind) - {"kind"}) for kind in _KINDS["experiment"]) == 40

    def test_keys_of_every_kind_accepted(self):
        doc = MINIMAL_HEAT.replace("b = 1.0", "b = 1.0\ncollar_cap = 0.2").replace(
            "value = 0.0", "value = 0.0\npositivity_floor = 0.0")
        cfg = parse_config(doc)
        assert cfg.sections["domain"]["collar_cap"] == 0.2

    @pytest.mark.parametrize("value", [",", " , ,", ""])
    def test_empty_list_reports_line(self, value):
        doc = MINIMAL_HEAT.replace("kind = solve", f"kind = family\neps_list = {value}")
        with pytest.raises(ConfigParseError, match="eps_list") as err:
            parse_config(doc)
        assert err.value.line == doc.splitlines().index(f"eps_list = {value}") + 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("sec, key", NUMBER_KEYS, ids=[f"{s}.{k}" for s, k in NUMBER_KEYS])
    def test_every_number_key_must_be_finite(self, sec, key, value):
        parse_config(with_setting(sec, key, VALID.get(key, "1.0")))  # the key applies here
        doc = with_setting(sec, key, value)
        pattern = rf"^{key} (entries )?must be (.+ and )?finite \(line \d+\)$"
        with pytest.raises(ConfigParseError, match=pattern) as err:
            parse_config(doc)
        assert err.value.line == doc.splitlines().index(f"{key} = {value}") + 1


class TestMaterialization:
    def test_builders_produce_models(self):
        cfg = parse_config(MINIMAL_HEAT)
        dom = build_domain(cfg)
        assert dom.kind == "interval"
        rho = build_density(cfg, dom)
        assert rho.rho(0.5) == 1.0
        flux = build_nonlinearity(cfg)
        assert flux.alpha0 == 1.0
        phi = build_boundary(cfg, dom)
        assert phi.phi(0.0, 0.02) == 0.0
        u0 = build_initial(cfg, dom)
        assert u0.u0(0.5) == pytest.approx(1.0)

    def test_table_models_from_files(self, tmp_path):
        table = tmp_path / "rho.txt"
        xs = np.linspace(0.0, 1.0, 17)
        np.savetxt(table, np.column_stack([xs, 1.0 + xs]))
        doc = MINIMAL_HEAT.replace(
            "kind = constant\nc = 1.0", f"kind = table\nfile = {table}"
        )
        cfg = parse_config(doc)
        rho = build_density(cfg, build_domain(cfg))
        assert rho.rho(0.5) == pytest.approx(1.5)


class TestRunExperiment:
    def test_solve_writes_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL_HEAT)
        code = run_experiment(cfg, tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "pass"
        assert report["config"]["numerics"]["nodes"] == 65
        assert (tmp_path / "trajectory.csv").exists()

    def test_report_embeds_every_default(self, tmp_path):
        # Every default of every key that applies, and no key that does not;
        # the [numerics] keys that apply are the experiment kind's.
        configs = {}
        for doc in (MINIMAL_HEAT, BARRIER_CERTIFY.replace("t0 = 0.5\n", "")):
            kind = parse_config(doc).kind
            assert run_experiment(parse_config(doc), tmp_path / kind) == 0
            config = configs[kind] = json.loads((tmp_path / kind / "report.json").read_text())[
                "config"]
            written = set(re.findall(r"^(\w+) =", doc, flags=re.M))
            for sec, keys in _SCHEMA.items():
                applies = takes(sec, config["experiment" if sec == "numerics" else sec]["kind"])
                assert set(config[sec]) == {key for key in applies
                                            if keys[key][1] is not None or key in written}, sec
        assert configs["solve"]["numerics"]["newton_tol"] == 1e-10
        assert "newton_tol" not in configs["barrier-certify"]["numerics"]
        assert configs["barrier-certify"]["experiment"]["t0"] == pytest.approx(0.5)  # t_final / 2

    def test_identical_configs_write_identical_csv(self, tmp_path):
        cfg = parse_config(MINIMAL_HEAT)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a/trajectory.csv").read_bytes() == (
            tmp_path / "b/trajectory.csv"
        ).read_bytes()

    def test_h4_failure_emits_regime_warning(self, tmp_path):
        doc = MINIMAL_HEAT.replace(
            "kind = constant\nc = 1.0", "kind = power\nalpha = 2.0"
        ).replace(
            "kind = solve",
            "kind = attainment\neps_list = 0.2, 0.1, 0.05, 0.025",
        ).replace("dt = 0.001", "dt = 0.005").replace("t_final = 0.05", "t_final = 0.2")
        cfg = parse_config(doc)
        code = run_experiment(cfg, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("uniqueness-without-boundary" in w for w in report["warnings"])
        assert code in (0, 1)  # regime warning, not an error

    def test_duality_experiment(self, tmp_path):
        doc = MINIMAL_HEAT.replace("kind = solve", "kind = duality\neps = 0.125")
        cfg = parse_config(doc)
        assert run_experiment(cfg, tmp_path) == 0
        payload = json.loads((tmp_path / "duality.json").read_text())
        assert payload["levels"][0]["flux_identity_ok"]

    def test_hypothesis_report_experiment(self, tmp_path):
        doc = MINIMAL_HEAT.replace("kind = solve", "kind = hypothesis-report")
        cfg = parse_config(doc)
        assert run_experiment(cfg, tmp_path) == 0
        payload = json.loads((tmp_path / "hypothesis.json").read_text())
        assert payload["h1_density_positive"] and payload["h2_flux_monotone"]

    def test_hypothesis_report_checks_once(self, tmp_path, monkeypatch):
        import collar.experiments as experiments

        calls = []
        check = experiments.check_hypotheses
        monkeypatch.setattr(experiments, "check_hypotheses",
                            lambda *a, **k: calls.append(1) or check(*a, **k))
        cfg = parse_config(MINIMAL_HEAT.replace("kind = solve", "kind = hypothesis-report"))
        assert run_experiment(cfg, tmp_path) == 0
        assert len(calls) == 1


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def test_solve_roundtrip(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL_HEAT)
        code = cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out/report.json").exists()

    def test_trace_peak_on_the_lattice_keeps_the_max_principle(self, tmp_path):
        # sin(pi t) peaks at t = 0.5, a lattice time, so the interface carries
        # 1 + eta = 1.1; the sampled sup of the trace misses the peak, so
        # bound_K alone is 1.0999953 and used to fail this correct solve.
        doc = (MINIMAL_HEAT
               .replace("kind = constant\nvalue = 0.0",  # the boundary
                        "kind = sine\noffset = 0.0\namplitude = 1.0\nfrequency = 0.5")
               .replace("kind = sine\namplitude = 1.0", "kind = constant\nvalue = 0.0")
               .replace("nodes = 65\ndt = 0.001\nt_final = 0.05",
                        "nodes = 41\ndt = 0.002\nt_final = 1.0")
               .replace("kind = solve", "kind = solve\neta = 0.1\neta_cap = 0.1"))
        cfg = self._write(tmp_path, doc)
        assert cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        meta = json.loads((tmp_path / "out/trajectory_meta.json").read_text())
        assert meta["max_principle_ok"] and meta["bound_K"] < 1.1

    def test_validate_subcommand(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL_HEAT)
        code = cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out/hypothesis.json").exists()

    def test_validate_matches_hypothesis_report(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL_HEAT.replace("kind = solve", "kind = hypothesis-report"))
        assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        assert cli_main(["hypothesis-report", "--config", str(cfg),
                         "--out", str(tmp_path / "h")]) == 0
        validated = (tmp_path / "v/hypothesis.json").read_bytes()
        assert validated == (tmp_path / "h/hypothesis.json").read_bytes()
        report = json.loads((tmp_path / "h/report.json").read_text())
        assert report["hypothesis"] == json.loads(validated)

    def test_subcommand_must_match_config_kind(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL_HEAT)
        code = cli_main(["duality", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        for command in ("validate", "solve"):
            code = cli_main([command, "--config", str(tmp_path / "nope.cfg")])
            assert code == 2
            assert "config error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, capsys, command):
        # It used to end in a NotADirectoryError traceback and exit 1, a failed verdict.
        cfg = self._write(tmp_path, MINIMAL_HEAT)
        (tmp_path / "file").write_text("")
        code = cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "file" / "x")])
        assert code == 2
        assert "config error: cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_file(self, tmp_path, capsys, command, kind):
        path = tmp_path / "exp.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe" + MINIMAL_HEAT.encode())
        code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["implicit-newton", "semi-implicit-lagged", "explicit"])
    def test_scheme_is_an_unknown_key(self, tmp_path, capsys, scheme):
        # The solver has one scheme, so [numerics] no longer takes a key naming it.
        doc = MINIMAL_HEAT.replace("t_final = 0.05", f"t_final = 0.05\nscheme = {scheme}")
        code = cli_main(["solve", "--config", str(self._write(tmp_path, doc)),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown key 'scheme'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_output_dir_is_an_unknown_key(self, tmp_path, capsys, command):
        # --out names the output directory; the config does not.
        doc = MINIMAL_HEAT.replace("kind = solve", "kind = solve\noutput_dir = x")
        code = cli_main([command, "--config", str(self._write(tmp_path, doc)),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown key 'output_dir'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("nodes", "inf"), ("nodes", "1e400"),
                                            ("dt", "nan"), ("dt", "inf"), ("t_final", "inf")])
    def test_non_finite_numerics_are_config_errors(self, tmp_path, key, value):
        doc = re.sub(rf"^{key} = .*$", f"{key} = {value}", MINIMAL_HEAT, flags=re.M)
        cfg = self._write(tmp_path, doc)
        assert cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        with pytest.raises(ConfigParseError) as err:
            parse_config(doc)
        if key == "nodes":
            assert err.value.line is not None

    @pytest.mark.parametrize("key, value", [
        ("newton_tol", "inf"), ("newton_tol", "nan"), ("newton_tol", "0.0"),
        ("newton_tol", "-1e-10"),
        ("max_iterations", "0"), ("max_iterations", "-3"),
        ("jacobian_floor", "nan"), ("jacobian_floor", "inf"), ("jacobian_floor", "-1e-8"),
    ])
    def test_solver_settings_out_of_range_are_config_errors(self, tmp_path, capsys, key, value):
        # newton_tol = inf used to pass unsolved and max_iterations = 0 to exit 3.
        doc = MINIMAL_HEAT.replace("t_final = 0.05", f"t_final = 0.05\n{key} = {value}")
        cfg = self._write(tmp_path, doc)
        assert cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        with pytest.raises(ConfigParseError, match=key):
            parse_config(doc)

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("old, new, message", [
        ("b = 1.0", "b = -1.0", "need lo < hi"),
        ("b = 1.0", "b = 1.0\ncollar_cap = 0.9", "collar cap 0.9 must lie in (0, 0.5)"),
        ("kind = solve", "kind = solve\neps = 0.01", "eps 0.01 below 2h"),
    ], ids=["endpoints", "collar-cap", "eps-below-2h"])
    def test_geometry_mistakes_are_config_errors(self, tmp_path, capsys, command, old, new,
                                                 message):
        # These used to exit 3 (validate: "model error", or 0 for eps).
        cfg = self._write(tmp_path, MINIMAL_HEAT.replace(old, new))
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        if command == "validate":
            assert f"config error: {message}" in capsys.readouterr().err
        else:
            report = json.loads((tmp_path / "out/report.json").read_text())
            assert report["verdict"] == "error"
            assert message in report["error"]["message"]

    @pytest.mark.parametrize("command, experiment, message", [
        ("attainment", "kind = attainment\neps_list = 0.2, 0.1, 0.05, 0.0", "eps_list"),
        ("attainment", "kind = attainment\neps_list = 0.2, 0.1, 0.05, -0.1", "eps_list"),
        ("solve", "kind = solve\neps = -0.2", "collar width -0.2 must be >= 0"),
        ("solve", "kind = solve\neps = nan", "eps must be finite (line {line})"),
        ("solve", "kind = solve\neta = inf\neta_cap = inf", "eta"),
    ], ids=["zero-level", "negative-level", "negative-eps", "nan-eps", "infinite-lift"])
    def test_bad_collar_widths_and_lifts_are_config_errors(self, tmp_path, capsys, command,
                                                           experiment, message):
        # These used to raise ZeroDivisionError, fail the verdict, pass as if
        # eps were 0 (validate too), raise ValueError, and exit 3.
        doc = MINIMAL_HEAT.replace("kind = solve", experiment)
        cfg = self._write(tmp_path, doc)
        line = doc.splitlines().index(experiment.splitlines()[-1]) + 1
        assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert f"config error: {message.format(line=line)}" in capsys.readouterr().err
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command, experiment, message", [
        ("dichotomy-sweep", "kind = dichotomy-sweep\neps_list = 0.2, 0.1, 0.05, 0.025\n"
         "alpha_list = nan", "alpha_list entries must be finite"),
        ("dichotomy-sweep", "kind = dichotomy-sweep\neps_list = 0.2, 0.1, 0.05, 0.025\n"
         "alpha_list = 1.0, inf", "alpha_list entries must be finite"),
        ("attainment", "kind = attainment\neps_list = 0.2, 0.1, 0.05, 0.025\nthreshold = nan",
         "threshold must be positive and finite"),
        ("attainment", "kind = attainment\neps_list = 0.2, 0.1, 0.05, 0.025\nthreshold = -1",
         "threshold must be positive and finite"),
    ], ids=["nan-alpha", "infinite-alpha", "nan-threshold", "negative-threshold"])
    def test_bad_alphas_and_thresholds_are_config_errors(self, tmp_path, capsys, command,
                                                         experiment, message):
        # alpha_list = nan used to exit 3 after 11 halvings; threshold = nan
        # or -1 used to exit 1 with verdict fail.
        cfg = self._write(tmp_path, MINIMAL_HEAT.replace("kind = solve", experiment))
        assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, message, at_parse", [
        ("eps = 0.25", "source support must lie strictly inside the core", False),
        ("eps = 0.125\nsource_width = -0.1", "source_width must be positive and finite", True),
        ("eps = 0.125\nsource_center = nan", "source_center must be finite", True),
    ], ids=["bump-in-collar", "negative-width", "nan-center"])
    def test_duality_sources_that_do_not_fit_are_config_errors(self, tmp_path, capsys,
                                                               experiment, message, at_parse):
        # The source is built from the config alone; these used to exit 3, and
        # validate passed them.
        doc = MINIMAL_HEAT.replace("kind = solve", f"kind = duality\n{experiment}")
        cfg = self._write(tmp_path, doc)
        assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert cli_main(["duality", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        if at_parse:  # the key's line is rejected: no run, no report
            assert f"config error: {message}" in capsys.readouterr().err
            assert not (tmp_path / "out/report.json").exists()
            return
        report = json.loads((tmp_path / "out/report.json").read_text())
        assert report["verdict"] == "error"
        assert report["error"]["type"] == "SourceError"
        assert message in report["error"]["message"]

    def test_unknown_barrier_case_is_a_config_error(self, tmp_path, capsys):
        # validate used to exit 0 while barrier-certify exited 2.
        doc = MINIMAL_HEAT.replace("kind = solve", "kind = barrier-certify\nbarrier_case = foo")
        cfg = self._write(tmp_path, doc)
        assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert "config error: unknown barrier case 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", RADIAL_DOMAINS)
    @pytest.mark.parametrize("command, experiment", [
        ("solve", "kind = solve"),
        ("solve", "kind = solve\neps = 0.125"),
        ("attainment", "kind = attainment\neps_list = 0.2, 0.1, 0.05, 0.025"),
        ("duality", "kind = duality\neps = 0.125"),
    ], ids=["solve-eps0", "solve-eps", "attainment", "duality"])
    def test_radial_domains_run(self, tmp_path, domain, command, experiment):
        doc = MINIMAL_HEAT.replace("kind = interval\na = 0.0\nb = 1.0", RADIAL_DOMAINS[domain])
        cfg = self._write(tmp_path, doc.replace("kind = solve", experiment))
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out/report.json").read_text())
        assert report["verdict"] == "pass"
        assert report["config"]["domain"]["dim"] in (2, 3)

    def test_parse_error_exit_code(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL_HEAT.replace("nodes = 65", "nodes = 8"))
        code = cli_main(["solve", "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("model", ["kind = constant\nc = 1.0", "kind = linear"],
                             ids=["density", "nonlinearity"])
    @pytest.mark.parametrize("content, reason", [
        (None, "cannot be read"),
        ("0.0 1.0\n0.5 abc\n", "is not a numeric table"),
        ("0.0 0.0\n0.5 nan\n1.0 2.0\n", "has an entry that is not finite"),
        ("0.0 0.0\n0.5 inf\n1.0 2.0\n", "has an entry that is not finite"),
        ("0.0 1.0\nnan 1.0\n1.0 1.0\n", "has an entry that is not finite"),
        ("0.0 1.0\ninf 1.0\n1.0 1.0\n", "has an entry that is not finite"),
        ("0.0 1.0\n", "must have at least two rows"),  # np.loadtxt reads one row as 1-D
    ], ids=["missing", "malformed", "nan-value", "inf-value", "nan-coordinate", "inf-coordinate",
            "one-row"])
    def test_unreadable_table_is_a_config_error(self, tmp_path, capsys, model, content, reason):
        table = tmp_path / "table.txt"
        if content is not None:
            table.write_text(content)
        cfg = self._write(tmp_path, MINIMAL_HEAT.replace(model, f"kind = table\nfile = {table}"))
        assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert f"config error: table file {str(table)!r} {reason}" in capsys.readouterr().err
        assert cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        report = json.loads((tmp_path / "s/report.json").read_text())
        assert report["verdict"] == "error"
        assert report["error"]["type"] == "ConfigParseError"
        assert str(table) in report["error"]["message"]

    @pytest.mark.parametrize("content", ["", "# no rows\n"], ids=["empty", "comment-only"])
    def test_empty_table_file_prints_only_the_config_error(self, tmp_path, capsys, content):
        # np.loadtxt warns of a file without data; the config error says it alone.
        table = tmp_path / "table.txt"
        table.write_text(content)
        cfg = self._write(tmp_path, MINIMAL_HEAT.replace("kind = linear",
                                                         f"kind = table\nfile = {table}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().err == (
            f"config error: table file {str(table)!r} must have at least two rows\n")

    @pytest.mark.parametrize("command, doc, states", FLUX_TABLE_SHORT.values(),
                             ids=list(FLUX_TABLE_SHORT))
    def test_flux_table_short_of_what_the_run_reads(self, tmp_path, capsys, command, doc,
                                                    states):
        us = np.linspace(-5.0, 5.0, 101)
        table = np.column_stack([us, us + 0.1 * us**3])
        wide, short = tmp_path / "wide.txt", tmp_path / "short.txt"
        np.savetxt(wide, table)
        np.savetxt(short, table[40:61])  # knots -1 to 1
        cfg = self._write(tmp_path, doc.replace("{flux}", str(wide)))
        assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
        capsys.readouterr()
        cfg = self._write(tmp_path, doc.replace("{flux}", str(short)))
        assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().err == f"config error: flux table covers [-1, 1], not {states}\n"
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        report = json.loads((tmp_path / "r/report.json").read_text())
        assert report["error"]["type"] == "ConfigError"

    def test_non_finite_initial_data_is_a_config_error(self, tmp_path, capsys):
        # This used to exit 3 with a SolveError; TestNonFinite covers the
        # solver's own guard through the API.
        cfg = self._write(tmp_path, MINIMAL_HEAT.replace("amplitude = 1.0", "amplitude = nan"))
        code = cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: amplitude must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out/report.json").exists()

    @pytest.mark.parametrize("command, doc", CONFIG_MISTAKES.values(), ids=list(CONFIG_MISTAKES))
    def test_config_mistakes_exit_2_under_validate_and_the_run(self, tmp_path, capsys, command,
                                                               doc):
        # Each used to pass validate, or to exit 1, 3 or even 0 under one of the two;
        # a run that met the error after parsing printed nothing to say why.
        table, table3, short = tmp_path / "rho.txt", tmp_path / "rho3.txt", tmp_path / "short.txt"
        np.savetxt(table, [[0.0, 1.0], [0.5, 0.0], [1.0, 1.0]])
        np.savetxt(table3, [[0.0, 1.0, 2.0], [1.0, 1.0, 2.0]])
        np.savetxt(short, [[0.0, 1.0], [0.5, 1.0]])
        flux = write_flux_table(tmp_path / "flux.txt")
        for name, path in (("{table}", table), ("{table3}", table3), ("{short}", short),
                           ("{flux}", flux)):
            doc = doc.replace(name, str(path))
        cfg = self._write(tmp_path, doc)
        assert cli_main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        checked = capsys.readouterr().err.splitlines()[0]
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines()[0] == checked
        assert checked.startswith("config error: ")

    @given(barrier_configs())
    @settings(max_examples=100, deadline=None)
    def test_no_barrier_config_exits_3(self, doc):
        # Every error a barrier config can cause is a config error, and validate
        # builds the barriers the run builds, so both reject the same configs.
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "exp.cfg"
            cfg.write_text(doc.replace("{flux}", str(write_flux_table(Path(tmp) / "flux.txt"))))
            checked = cli_main(["validate", "--config", str(cfg), "--out", f"{tmp}/v"])
            run = cli_main(["barrier-certify", "--config", str(cfg), "--out", f"{tmp}/r"])
        assert 3 not in (checked, run)
        assert (checked == 2) == (run == 2)


class TestMoreRunners:
    def test_family_experiment(self, tmp_path):
        doc = MINIMAL_HEAT.replace("nodes = 65", "nodes = 81").replace(
            "kind = solve",
            "kind = family\neps_list = 0.2, 0.1, 0.05, 0.025\neta_list = 0.1, 0.05, 0.025",
        )
        cfg = parse_config(doc)
        assert run_experiment(cfg, tmp_path) == 0
        diag = json.loads((tmp_path / "family_diagnostics.json").read_text())
        assert diag["converged"]
        assert (tmp_path / "limit_candidate.csv").exists()

    def test_barrier_certify_experiment(self, tmp_path):
        cfg = parse_config(BARRIER_CERTIFY)
        assert run_experiment(cfg, tmp_path) == 0
        certs = json.loads((tmp_path / "barrier_certificates.json").read_text())
        assert all(c["residual"]["verdict"] == "pass" for c in certs["certificates"])
        # The worked constants with their safety factor, embedded for audit.
        lower = certs["certificates"][0]["constants"]
        assert lower["beta"] == pytest.approx(8.8 * 1.05, rel=1e-9)
        assert lower["M"] == pytest.approx(26.4 * 1.05, rel=1e-9)
        # A constant density's power-law majorant gives V in closed form, with no table.
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["payload"]["potential_table"] is None

    def test_barrier_certify_reports_the_potential_rows_it_filled(self, tmp_path):
        # The certify-table workload's problem, as in test_barriers.py's
        # test_certify_fills_only_the_table_rows_it_reads, through the run.
        xs = np.linspace(0.0, 2.0, 81)
        rho = 1.0 + 0.2 * np.sin(0.5 * np.pi * xs) + 0.05 * np.cos(np.pi * xs)
        np.savetxt(tmp_path / "density.txt", np.column_stack([xs, rho]), fmt="%.17g")
        doc = (BARRIER_CERTIFY
               .replace("kind = constant\nc = 1.0", f"kind = table\nfile = {tmp_path / 'density.txt'}")
               .replace("kind = constant\nvalue = 1.0\n\n[initial]",
                        "kind = sine\noffset = 1.0\namplitude = 0.035\nfrequency = 0.5\n\n[initial]")
               .replace("nodes = 201", "nodes = 801"))
        assert run_experiment(parse_config(doc), tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["payload"]["potential_table"] == {"rows_filled": 153, "rows": 1025}
        certs = json.loads((tmp_path / "out" / "barrier_certificates.json").read_text())
        assert "potential_table" not in certs

    def test_miller_certify_experiment(self, tmp_path):
        doc = """
[domain]
kind = interval
a = 0.0
b = 2.0
collar_cap = 0.6

[density]
kind = constant
c = 1.0

[nonlinearity]
kind = linear

[boundary]
kind = constant
value = 1.0

[initial]
kind = constant
value = 1.0

[numerics]
nodes = 201
dt = 0.001
t_final = 1.0

[experiment]
kind = barrier-certify
barrier_case = miller-stationary
barrier_side = both
sigma = 0.1
"""
        cfg = parse_config(doc)
        assert run_experiment(cfg, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["payload"]["potential_table"] is None
