"""Tridiagonal solves through LAPACK, for the solver and the duality potential.

Each matrix is symmetric positive definite as its caller scales it: ``ptsv``
serves a one-off solve, ``pttrf`` once and ``pttrs`` per right-hand side a
reused one.  Bands are full-length arrays as ``collar.operators`` stores them.

The three routines come from scipy's compiled LAPACK wrapper,
``scipy.linalg._flapack``, loaded straight from its file when this module is
imported.  Importing it through ``scipy.linalg.lapack`` would run the package
inits of ``scipy`` and ``scipy.linalg``, which pull in
``scipy._lib._array_api``, ``numpy.testing`` and ``numpy.f2py`` and roughly
double the import time of ``collar``.  The extension needs numpy alone.  It
is registered in ``sys.modules`` under its own name, so a later ``import
scipy.linalg`` reuses the same module and the same routine objects; if scipy
imported it first, that module is reused here.  ``_flapack`` is private to
scipy: when its file is not where this loader looks, the public
``scipy.linalg.lapack`` is imported instead.  Only ``collar.solver`` and
``collar.analysis`` import this module, so the experiment kinds that solve
no tridiagonal system never map the extension.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from .errors import LinearSolveError

_FLAPACK = "scipy.linalg._flapack"


def _flapack_path():
    """File of scipy's compiled LAPACK wrapper, found without importing scipy; None if absent."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "linalg", "_flapack" + suffix)
            if path.is_file():
                return path
    return None


def _load_lapack():
    """The module holding scipy's ``d*`` LAPACK routines, without scipy's package inits."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    path = _flapack_path()
    if path is None:
        from scipy.linalg import lapack

        return lapack
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    spec.loader.exec_module(module)
    return module


_lapack = _load_lapack()
dptsv, dpttrf, dpttrs = _lapack.dptsv, _lapack.dpttrf, _lapack.dpttrs


def _check(info: int, routine: str) -> None:
    if info != 0:
        raise LinearSolveError(f"LAPACK {routine} failed with info = {info}", info=info)


def solve_spd_once(di: np.ndarray, up: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite matrix with diagonal ``di`` and
    off-diagonal ``up[:-1]`` in one ``ptsv`` call, which overwrites ``di`` and
    ``rhs``; ``LinearSolveError`` unless positive definite."""
    _, _, x, info = dptsv(di, up[:-1], rhs, overwrite_d=1, overwrite_b=1)
    _check(info, "dptsv")
    return x


def factor_spd(di: np.ndarray, up: np.ndarray) -> tuple:
    """``L D L^T`` factors of the symmetric tridiagonal matrix with diagonal ``di``
    and off-diagonal ``up[:-1]``; ``LinearSolveError`` unless positive definite."""
    *factors, info = dpttrf(di, up[:-1])
    _check(info, "dpttrf")
    return tuple(factors)


def solve_spd(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve with factors from ``factor_spd``; bit for bit LAPACK's ``ptsv``."""
    x, info = dpttrs(*factors, rhs)
    _check(info, "dpttrs")
    return x
