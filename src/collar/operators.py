"""Discrete Laplacian in the reduced radial metric, shared by all solvers.

The operator is assembled in conservative finite-volume form on the uniform
grid: node cells carry the exact volume of the ``r^(N-1)`` measure and faces
carry the exact area, so summing ``L[u]_i V_i`` telescopes to the boundary
face fluxes with no quadrature error.  For N = 1 this reduces to the classic
three-point second difference.  The ball center is handled by the natural
zero-flux inner face.

This module is the stencil alone.  Tridiagonal solves live in
``collar.tridiagonal``, so the barrier certifier, which only applies the
stencil, never loads LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BALL, Grid


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

