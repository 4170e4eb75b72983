"""Every function the package defines is one a command-line run calls, and
every ``[experiment]`` and ``[numerics]`` key a kind takes is one its run reads.

A fresh interpreter installs a profile hook before it imports ``collar.cli``,
then runs ``cli.main`` under ``validate`` and under the run on small configs
that cover every experiment kind and every domain, density, flux, boundary
and initial kind.  The functions, methods and nested functions of the
package that no call reached must equal ``ALLOWED``, each kept for a stated
reason; the match is exact, so an entry goes stale as soon as a run reaches
it or it is deleted.  A function no package code names is never called, so
this catches everything a walk over the names in the source would.

The same calls record each ``[experiment]`` and ``[numerics]`` key read after
parsing, under the experiment kind.  For each kind, the ``[experiment]`` keys
read must equal the keys ``config._KINDS`` lists for it, plus ``eps``, which
every kind reads to build its grid; the ``[numerics]`` keys read must equal
the keys ``config._NUMERICS`` lists for it, plus ``nodes`` and ``t_final``,
which every kind reads to build its grid and data.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from collar.config import _KINDS, _NUMERICS

SRC = Path(__file__).resolve().parent.parent / "src"

ALLOWED = {
    "solver.step_implicit": "the layer sweep of bench/layers.py times it",
    "solver._newton.<locals>.fail_non_finite": "a non-finite Jacobian or Newton update, "
    "which test_solver.py::TestNonFinite drives",
    "errors.LinearSolveError.__init__": "a pivot of factor_spd or solve_spd_once that is not "
    "positive, which test_solver.py::TestTridiagonal::test_singular_system_raises_typed_error "
    "drives",
    "errors.RangeError.__init__": "a table flux inverted outside its range, which "
    "test_models.py drives",
}

_HEAD = """
[domain]
{domain}
[density]
{density}
[nonlinearity]
{flux}
[boundary]
{boundary}
[initial]
{initial}
[numerics]
{numerics}
[experiment]
kind = {kind}
{experiment}
"""

_BALL = "kind = ball\nr_out = 1.0\ndim = 3"
_ANNULUS = "kind = annulus\nr_in = 1.0\nr_out = 2.0\ndim = 2"
_WIDE = "kind = interval\na = 0.0\nb = 2.0\ncollar_cap = 0.6"
_PME = "kind = porous-medium\nm = 2.0"
_LEVELS = "eps_list = 0.2, 0.1, 0.05, 0.025"
_ETAS = "eta_list = 0.1, 0.05, 0.025"
_BASE = dict(domain="kind = interval\na = 0.0\nb = 1.0", density="kind = constant",
             flux="kind = linear", boundary="kind = constant\nvalue = 0.0",
             initial="kind = sine", numerics="nodes = 33\ndt = 0.01\nt_final = 0.02",
             experiment="", codes=(0, 0))

# Each config differs from _BASE in the keys it names; ``codes`` are its exit
# codes under validate and under the run.  Together they take every kind of
# every section, the Miller, numeric-potential and closed-form-potential
# barriers, a family that does not converge, a config error and a solve that
# fails.  {density_table} and
# {flux_table} name files the test writes.
CONFIGS = [dict(_BASE, **config) for config in [
    dict(kind="solve"),
    dict(kind="solve", experiment="tau = 1.0", codes=(2, 2)),
    # One Newton iteration per step cannot reach the tolerance on a degenerate flux.
    dict(kind="solve", flux=_PME, boundary="kind = constant\nvalue = 1.0",
         initial="kind = constant\nvalue = 0.0",
         numerics="nodes = 33\ndt = 0.5\nt_final = 0.5\nmax_iterations = 1", codes=(0, 3)),
    dict(kind="family", domain=_BALL, density="kind = power\nalpha = 0.5", flux=_PME,
         boundary="kind = ramp\nvalue = 0.5\nrate = 1.0", initial="kind = constant\nvalue = 0.5",
         numerics="nodes = 81\ndt = 0.01\nt_final = 0.02",
         experiment=f"{_LEVELS}\n{_ETAS}"),
    # Its lift differences grow, so the family does not converge, which it may.
    dict(kind="family", flux="kind = porous-medium\nm = 4.0",
         boundary="kind = sided\nleft = 1.0\nright = 0.0", initial="kind = constant\nvalue = 0.0",
         numerics="nodes = 81\ndt = 0.1\nt_final = 0.2",
         experiment=f"{_LEVELS}\n{_ETAS}\nassert_convergence = false"),
    dict(kind="attainment", domain=_ANNULUS, density="kind = table\nfile = {density_table}",
         flux="kind = table\nfile = {flux_table}",
         boundary="kind = sided\nleft = 1.0\nright = 0.5",
         initial="kind = sine\namplitude = 0.2\noffset = 0.7", experiment=_LEVELS),
    dict(kind="dichotomy-sweep", flux=_PME,
         boundary="kind = sine\noffset = 0.6\namplitude = 0.1\nfrequency = 0.5",
         initial="kind = constant\nvalue = 0.3", experiment=f"{_LEVELS}\nalpha_list = 1.0"),
    dict(kind="duality", domain=_BALL, experiment="eps_list = 0.2, 0.1"),
    dict(kind="barrier-certify", domain=_ANNULUS, boundary="kind = constant\nvalue = 1.0",
         initial="kind = constant\nvalue = 1.0", numerics="nodes = 101\ndt = 0.01",
         experiment="barrier_case = miller-stationary\nanchor = right"),
    dict(kind="barrier-certify", domain=_WIDE, density="kind = table\nfile = {density_table}",
         boundary="kind = sine\noffset = 1.0\namplitude = 0.03\nfrequency = 0.5",
         initial="kind = constant\nvalue = 1.0", numerics="nodes = 101\ndt = 0.01",
         experiment="t0 = 0.5"),
    dict(kind="barrier-certify", domain=_WIDE, density="kind = power\nalpha = 0.5", flux=_PME,
         boundary="kind = constant\nvalue = 1.0", initial="kind = constant\nvalue = 1.0",
         numerics="nodes = 101\ndt = 0.01", experiment="barrier_case = potential-stationary"),
    # The trace swings too far for the cap, so the radius is bisected.
    dict(kind="barrier-certify", domain=_WIDE,
         boundary="kind = sine\noffset = 1.0\namplitude = 0.3\nfrequency = 0.5",
         numerics="nodes = 101\ndt = 0.01", experiment="barrier_case = miller-timed\nt0 = 0.5"),
    dict(kind="hypothesis-report"),
]]

# Runs in a fresh interpreter, so the hook sees every import of the package.
_SCRIPT = r"""
import contextlib, io, json, os, sys, types

import numpy  # noqa: F401  (imported before the hook, which it would slow down)

reached = set()
reads = {}


def hook(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


class Recorded(dict):  # a section that records each key read from it, per experiment kind
    def __init__(self, values, section, kind):
        super().__init__(values)
        self.keys_read = reads.setdefault(section, {}).setdefault(kind, set())

    def __getitem__(self, key):
        self.get(key)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):  # an optional key that is absent is read too
        self.keys_read.add(key)
        return dict.get(self, key, default)


def parse_recorded(path):
    cfg = parse(path)
    for section in ("experiment", "numerics"):
        cfg.sections[section] = Recorded(cfg.sections[section], section, cfg.kind)
    return cfg


sys.setprofile(hook)
from collar import cli

parse, cli.parse_config_file = cli.parse_config_file, parse_recorded
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
sys.setprofile(None)

package = os.path.dirname(cli.__file__) + os.sep
modules = [c for c in reached if c.co_name == "<module>" and c.co_filename.startswith(package)]
never, stack = [], list(modules)
while stack:
    code = stack.pop()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            stack.append(const)
            if not const.co_name.startswith("<") and const not in reached:
                stem = os.path.splitext(os.path.basename(const.co_filename))[0]
                never.append(f"{stem}.{const.co_qualname}")
stems = [os.path.splitext(os.path.basename(c.co_filename))[0] for c in modules]
reads = {sec: {kind: sorted(keys) for kind, keys in kinds.items()} for sec, kinds in reads.items()}
print(json.dumps({"codes": codes, "modules": sorted(stems), "never": sorted(never),
                  "reads": reads}))
"""


@pytest.fixture(scope="module")
def result(tmp_path_factory) -> dict:
    tmp_path = tmp_path_factory.mktemp("runs")
    xs = np.linspace(0.0, 2.0, 41)
    density_table = tmp_path / "density.txt"
    np.savetxt(density_table, np.column_stack([xs, 1.0 + 0.2 * np.sin(xs)]))
    us = np.linspace(-5.0, 5.0, 41)  # a run exits 2 unless it covers every state G is read at
    flux_table = tmp_path / "flux.txt"
    np.savetxt(flux_table, np.column_stack([us, us + 0.1 * us**3]))
    calls = []
    for i, config in enumerate(CONFIGS):
        path = tmp_path / f"{i}.cfg"
        path.write_text(_HEAD.format(**config).format(density_table=density_table,
                                                      flux_table=flux_table))
        for command in ("validate", config["kind"]):
            calls.append([command, "--config", str(path), "--out", str(tmp_path / f"{i}-{command}")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # -W error: a warning in any run fails the test.
    argv = [sys.executable, "-W", "error", "-c", _SCRIPT, json.dumps(calls)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code objects' co_qualname")
def test_every_function_is_reached_by_a_cli_run(result):
    assert result["codes"] == [code for config in CONFIGS for code in config["codes"]]
    assert result["modules"] == sorted(path.stem for path in (SRC / "collar").glob("*.py"))
    assert set(result["never"]) == set(ALLOWED)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code objects' co_qualname")
@pytest.mark.parametrize("kind", list(_KINDS["experiment"]))
def test_every_experiment_key_a_kind_takes_is_read(result, kind):
    listed = {key.rstrip("*") for key in _KINDS["experiment"][kind]}
    assert set(result["reads"]["experiment"][kind]) == listed | {"eps", "kind"}


# Kinds that take ``dt`` only so that a config can change kind by one line.
_DT_UNREAD = {"duality", "hypothesis-report"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code objects' co_qualname")
@pytest.mark.parametrize("kind", list(_NUMERICS))
def test_every_numerics_key_a_kind_takes_is_read(result, kind):
    listed = {key.rstrip("*") for key in _NUMERICS[kind]}
    if kind in _DT_UNREAD:
        listed.discard("dt")
    assert set(result["reads"]["numerics"][kind]) == listed | {"nodes", "t_final"}
