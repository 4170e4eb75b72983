"""Discrete Laplacian in the reduced radial metric, shared by all solvers.

The operator is assembled in conservative finite-volume form on the uniform
grid: node cells carry the exact volume of the ``r^(N-1)`` measure and faces
carry the exact area, so summing ``L[u]_i V_i`` telescopes to the boundary
face fluxes with no quadrature error.  For N = 1 this reduces to the classic
three-point second difference.  The ball center is handled by the natural
zero-flux inner face.

Tridiagonal systems go straight to LAPACK: ``gtsv`` for a one-off solve, or
``gttrf`` once and ``gttrs`` per right-hand side when the matrix is reused.

The three routines come from scipy's compiled LAPACK wrapper,
``scipy.linalg._flapack``, loaded straight from its file.  Importing it
through ``scipy.linalg.lapack`` would run the package inits of ``scipy`` and
``scipy.linalg``, which pull in ``scipy._lib._array_api``, ``numpy.testing``
and ``numpy.f2py`` and roughly double the import time of ``collar``.  The
extension needs numpy alone.  It is registered in ``sys.modules`` under its
own name, so a later ``import scipy.linalg`` reuses the same module and the
same routine objects; if scipy imported it first, that module is reused here.
``_flapack`` is private to scipy: when its file is not where this loader
looks, the public ``scipy.linalg.lapack`` is imported instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LinearSolveError
from .geometry import BALL, Grid

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
dgtsv, dgttrf, dgttrs = _lapack.dgtsv, _lapack.dgttrf, _lapack.dgttrs


@dataclass(frozen=True)
class DiffusionOperator:
    """Three-band stencil ``L[u]_i = lo_i u_{i-1} + di_i u_i + up_i u_{i+1}``.

    Rows for the two end nodes are zero; callers overwrite them with boundary
    conditions.  ``volumes`` are the cell volumes of the reduced metric and
    ``face_areas[i]`` the area of the face between nodes ``i`` and ``i+1``.
    """

    lo: np.ndarray
    di: np.ndarray
    up: np.ndarray
    volumes: np.ndarray
    face_areas: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Stencil along the last axis of ``values``."""
        out = self.di * values
        out[..., 1:] += self.lo[1:] * values[..., :-1]
        out[..., :-1] += self.up[:-1] * values[..., 1:]
        return out

    def window(self, m0: int, m1: int) -> "DiffusionOperator":
        """The stencil restricted to nodes ``m0..m1``; end rows keep their bands."""
        w = slice(m0, m1 + 1)
        return DiffusionOperator(
            lo=self.lo[w], di=self.di[w], up=self.up[w],
            volumes=self.volumes[w], face_areas=self.face_areas[m0:m1],
        )


def stack_operators(ops) -> DiffusionOperator:
    """Block-diagonal stencil: the operators laid end to end, uncoupled.

    The band entries that would link the last node of one block to the first
    node of the next are zero, and so is the area of the face between them.
    """
    sizes = np.array([op.di.size for op in ops])
    starts = np.cumsum(sizes) - sizes
    lo, di, up, volumes = (np.concatenate([getattr(op, b) for op in ops])
                           for b in ("lo", "di", "up", "volumes"))
    lo[starts] = 0.0
    up[starts + sizes - 1] = 0.0
    faces = np.concatenate([a for op in ops for a in (op.face_areas, [0.0])][:-1])
    return DiffusionOperator(lo=lo, di=di, up=up, volumes=volumes, face_areas=faces)


def assemble_diffusion(grid: Grid) -> DiffusionOperator:
    dom = grid.domain
    n = grid.n
    h = grid.h
    nu = dom.dim
    r = grid.nodes
    faces = 0.5 * (r[:-1] + r[1:])

    if nu == 1:
        area = np.ones(n - 1)
        vol = np.full(n, h)
        vol[0] = vol[-1] = 0.5 * h
    else:
        area = faces ** (nu - 1)
        left_edge = np.concatenate(([r[0]], faces))
        right_edge = np.concatenate((faces, [r[-1]]))
        vol = (right_edge**nu - left_edge**nu) / nu

    lo = np.zeros(n)
    di = np.zeros(n)
    up = np.zeros(n)
    inner = slice(1, n - 1)
    lo[inner] = area[:-1] / (h * vol[inner])
    up[inner] = area[1:] / (h * vol[inner])
    di[inner] = -(area[:-1] + area[1:]) / (h * vol[inner])

    if dom.kind == BALL:
        # Center node: zero-flux inner face, one outgoing face.
        up[0] = area[0] / (h * vol[0])
        di[0] = -up[0]

    return DiffusionOperator(lo=lo, di=di, up=up, volumes=vol, face_areas=area)


def _check(info: int, routine: str) -> None:
    if info != 0:
        raise LinearSolveError(f"LAPACK {routine} failed with info = {info}", info=info)


def solve_tridiagonal(lo: np.ndarray, di: np.ndarray, up: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with the given bands (full-length arrays).

    ``lo[0]`` and ``up[-1]`` lie outside the matrix and are ignored.
    """
    *_, x, info = dgtsv(lo[1:], di, up[:-1], rhs)
    _check(info, "dgtsv")
    return x


def factor_tridiagonal(lo: np.ndarray, di: np.ndarray, up: np.ndarray) -> tuple:
    """LU factors of the tridiagonal matrix, for repeated ``solve_factored`` calls."""
    *factors, info = dgttrf(lo[1:], di, up[:-1])
    _check(info, "dgttrf")
    return tuple(factors)


def solve_factored(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve with factors from ``factor_tridiagonal``; same pivots as ``solve_tridiagonal``."""
    x, info = dgttrs(*factors, rhs)
    _check(info, "dgttrs")
    return x
