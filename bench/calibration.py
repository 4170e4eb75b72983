"""Host-speed calibration for the timed segments of the untraced run.

The benchmark runs on a shared host whose speed swings by as much as half
within seconds; wall and CPU seconds swing with it.  Each timed segment (a
set-up, a call) is therefore bracketed by two runs of a fixed kernel that
never touches collar, and reported scaled by REFERENCE_S over the mean of the
two kernel times: the seconds the segment would take on a host where the
kernel takes REFERENCE_S.  The unscaled seconds are recorded next to them.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_banded

# Kernel seconds at the reference host speed: close to the kernel's median on
# a shared 2-core x86-64 host with Python 3.11, numpy 2.4 and scipy 1.17.
REFERENCE_S = 0.05
ROUNDS = 600
NODES = 801


def kernel_s() -> float:
    """Seconds of one run of the kernel: small banded solves and a Python loop."""
    x = np.linspace(0.0, 1.0, NODES)
    ab = np.zeros((3, NODES))
    ab[0, 1:], ab[1], ab[2, :-1] = -1.0, 2.5, -1.0
    u = np.sin(np.pi * x)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        u = solve_banded((1, 1), ab, 0.5 * np.sin(u) + x)
        for j in range(40):
            acc += (j * 0.5) ** 0.5
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two kernel runs into reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
