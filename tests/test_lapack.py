"""The LAPACK boundary, and which modules each experiment kind loads.

``collar.tridiagonal`` loads scipy's private ``_flapack`` extension from its
file, skipping the package inits of ``scipy`` and ``scipy.linalg``.  These
tests pin that the routines are scipy's own (bit for bit, in either import
order) and that the public import takes over when the file is missing.
``import collar.cli`` loads no scipy module at all, and ``import
collar.solver`` loads ``_flapack`` and nothing else of scipy.  Parsing a
config loads exactly the collar modules its kind runs; a first experiment
call after that loads no further collar module and nothing of scipy,
``numpy.ma``, ``numpy.polynomial`` or ``locale``.  ``import collar`` alone
loads no submodule and no numpy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import scipy.linalg.lapack

from collar import tridiagonal
from collar.config import EXPERIMENT_KINDS

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, cwd=None) -> str:
    """Runs ``code`` in a fresh interpreter with ``collar`` importable; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def within(module: str, *packages: str) -> bool:
    """Whether ``module`` is one of ``packages`` or inside one."""
    return any(module == p or module.startswith(p + ".") for p in packages)


BIT_IDENTITY = """
import numpy as np
{first}
{second}
ops, lapack = collar.tridiagonal, scipy.linalg.lapack
assert ops.dptsv is lapack.dptsv and ops.dpttrf is lapack.dpttrf and ops.dpttrs is lapack.dpttrs
rng = np.random.default_rng(11)
for n in (5, 6, 17, 64, 201, 400, 801):
    for margin in (1.0, 1e-4):  # diagonal over the off-diagonal sums
        up = rng.uniform(-1.0, 1.0, n)
        di = np.abs(up) + np.abs(np.roll(up, 1)) + margin * rng.uniform(0.1, 1.0, n)
        *factors, info = lapack.dpttrf(di, up[:-1])
        assert info == 0
        mine = ops.factor_spd(di, up)
        assert all(np.array_equal(a, b) for a, b in zip(mine, factors))
        for b in (rng.standard_normal(n), rng.standard_normal(n)):
            x, info = lapack.dpttrs(*factors, b)
            assert info == 0 and np.array_equal(ops.solve_spd(mine, b), x)
            # ptsv is pttrf then pttrs, bit for bit
            *_, once, info = lapack.dptsv(di, up[:-1], b)
            assert info == 0 and np.array_equal(once, x)
            assert np.array_equal(ops.solve_spd_once(di.copy(), up, b.copy()), x)
print("ok")
"""


def test_routines_are_scipys_bit_for_bit_with_collar_imported_first():
    code = BIT_IDENTITY.format(first="import collar.tridiagonal", second="import scipy.linalg.lapack")
    assert run_python(code).strip() == "ok"


def test_routines_are_scipys_bit_for_bit_with_scipy_imported_first():
    code = BIT_IDENTITY.format(first="import scipy.linalg.lapack", second="import collar.tridiagonal")
    assert run_python(code).strip() == "ok"


def test_public_import_when_the_extension_file_is_missing(monkeypatch):
    monkeypatch.setattr(tridiagonal, "_flapack_path", lambda: None)
    monkeypatch.delitem(sys.modules, tridiagonal._FLAPACK)
    module = tridiagonal._load_lapack()
    assert module is scipy.linalg.lapack
    di, up = np.full(9, 2.5), np.full(9, -1.0)
    rhs = np.linspace(0.0, 1.0, 9)
    *_, x, info = module.dptsv(di, up[:-1], rhs)
    assert info == 0 and np.array_equal(x, tridiagonal.solve_spd_once(di.copy(), up, rhs.copy()))


def test_cli_starts_openblas_with_one_thread_unless_the_user_chose(monkeypatch):
    code = """
        import os
        from collar import cli
        print(os.environ["OPENBLAS_NUM_THREADS"])
    """
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run_python(code).strip() == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run_python(code).strip() == "2"


def test_import_leaves_scipy_package_inits_out():
    out = run_python("""
        import json, sys
        import collar.cli
        cli = sorted(sys.modules)
        import collar.solver
        print(json.dumps([cli, sorted(set(sys.modules) - set(cli))]))
    """)
    cli, solver = json.loads(out)
    assert [m for m in cli if within(m, "scipy")] == []
    assert [m for m in solver if within(m, "scipy")] == ["scipy.linalg._flapack"]
    assert [m for m in cli + solver if within(m, "numpy.testing", "numpy.f2py", "numpy.ma")] == []


def test_package_import_loads_no_submodule_and_no_numpy():
    out = run_python("""
        import json, sys
        import collar
        print(json.dumps(sorted(sys.modules)))
    """)
    assert [m for m in json.loads(out) if within(m, "numpy") or m.startswith("collar.")] == []


FAMILY = """
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
nodes = 81
dt = 0.001
t_final = 0.05

[experiment]
kind = family
eps_list = 0.2, 0.1, 0.05, 0.025
eta_list = 0.1, 0.05, 0.025
"""

SWEEP = """
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
offset = 0.6
amplitude = 0.15
frequency = 0.5

[initial]
kind = constant
value = 0.3

[numerics]
nodes = 41
dt = 0.01
t_final = 0.2

[experiment]
kind = dichotomy-sweep
eps_list = 0.2, 0.15, 0.1, 0.05
alpha_list = 1.0, 3.0
tau = 0.1
"""

CERTIFY = """
[domain]
kind = interval
a = 0.0
b = 2.0
collar_cap = 0.6

[density]
kind = table
file = density.txt

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


def with_experiment(text: str, lines: str) -> str:
    """``text`` with the body of its [experiment] section replaced by ``lines``."""
    return text.split("[experiment]")[0] + "[experiment]\n" + lines + "\n"


# Collar modules loaded once ``collar.cli`` is imported, and the ones each
# kind's parse adds: the modules its run calls, with what they import.
CLI_MODULES = {"collar", "collar.cli", "collar.config", "collar.errors", "collar.experiments",
               "collar.geometry", "collar.models"}
STEPPING = {"collar.solver", "collar.operators", "collar.tridiagonal", "collar.csvfmt"}
KINDS = {
    "solve": (with_experiment(FAMILY, "kind = solve\neps = 0.1\neta = 0.05"), STEPPING),
    "family": (FAMILY, STEPPING),
    "barrier-certify": (CERTIFY, {"collar.barriers", "collar.operators"}),
    "duality": (with_experiment(FAMILY, "kind = duality\neps_list = 0.2, 0.1"),
                STEPPING | {"collar.analysis"}),
    "attainment": (SWEEP.replace("kind = dichotomy-sweep", "kind = attainment")
                   .replace("alpha_list = 1.0, 3.0\n", ""), STEPPING | {"collar.analysis"}),
    "dichotomy-sweep": (SWEEP, STEPPING | {"collar.analysis"}),
    "hypothesis-report": (with_experiment(FAMILY, "kind = hypothesis-report"), set()),
}


def test_first_calls_leave_numpy_ma_scipy_linalg_and_locale_unloaded(tmp_path):
    xs = np.linspace(0.0, 2.0, 41)
    np.savetxt(tmp_path / "density.txt", np.column_stack([xs, 1.0 + 0.2 * np.sin(xs)]))
    assert set(KINDS) == set(EXPERIMENT_KINDS)
    for kind, (text, parse_loads) in KINDS.items():
        (tmp_path / f"{kind}.cfg").write_text(text)
        out = run_python(f"""
            import contextlib, io, json, sys
            from collar import cli
            from collar.config import parse_config_file
            parse_config_file("{kind}.cfg")
            parsed = sorted(sys.modules)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["{kind}", "--config", "{kind}.cfg", "--out", "{kind}"])
            print(json.dumps([code, parsed, sorted(set(sys.modules) - set(parsed))]))
        """, cwd=tmp_path)
        code, parsed, new = json.loads(out)
        assert code == 0, (kind, code)
        assert {m for m in parsed if within(m, "collar")} == CLI_MODULES | parse_loads, kind
        unwanted = [m for m in new
                    if within(m, "collar", "scipy", "numpy.ma", "numpy.polynomial", "locale")]
        assert unwanted == [], (kind, unwanted)
        loaded = set(parsed + new)
        if kind == "barrier-certify":
            assert not loaded & {"collar.solver", "collar.analysis", "scipy.linalg._flapack"}
        if kind == "family":
            assert not loaded & {"collar.barriers", "collar.analysis"}
