"""Density, nonlinearity, boundary and initial data, and hypothesis checks.

Model objects are immutable after construction and their evaluators are pure
functions, so they can be shared freely between concurrent solves.  Analytic
hypotheses are certified either in closed form (power-law densities) or by
dense sampling; every verdict records which method produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, RangeError
from .geometry import Domain, Grid

#: 16-point Gauss-Legendre rule on [-1, 1], bit for bit ``leggauss(16)``, which
#: returns symmetric nodes and weights; written out so numpy.polynomial is not imported.
_GAUSS_HALF_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                 0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                 0.9445750230732326, 0.9894009349916499)
_GAUSS_HALF_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                 0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                 0.062253523938647456, 0.027152459411754176)
_GAUSS_X = np.concatenate((-np.array(_GAUSS_HALF_X[::-1]), _GAUSS_HALF_X))
_GAUSS_W = np.concatenate((_GAUSS_HALF_W[::-1], _GAUSS_HALF_W))

#: Pieces with ratio above this are treated as failing to decay geometrically.
_DECAY_CUTOFF = 0.999

#: Time samples per boundary point for the sup and min of a boundary trace.
_TRACE_SAMPLES = 512

#: Hypothesis checks: sample count, flux arguments sampled for monotonicity,
#: and the largest initial/boundary gap at t = 0 still called compatible.
_HYPOTHESIS_SAMPLES = 1024
_WORKING_RANGE = (-4.0, 4.0)
_COMPAT_BAND = 0.05


# ---------------------------------------------------------------------------
# Majorants and the integral dichotomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerMajorant:
    """Distance majorant ``coef * eta**(-alpha)``, closed-form integrable."""

    coef: float
    alpha: float

    def __call__(self, eta):
        eta = np.asarray(eta, dtype=float)
        return self.coef * eta ** (-self.alpha)


@dataclass(frozen=True)
class TabulatedMajorant:
    """Piecewise-linear majorant of distance, flat beyond its knots."""

    knots: np.ndarray
    values: np.ndarray

    def __call__(self, eta):
        return np.interp(np.asarray(eta, dtype=float), self.knots, self.values)


@dataclass(frozen=True)
class H4Result:
    """Verdict of the weighted collar integral: finite with a value, or divergent."""

    finite: bool
    value: float | None
    method: str
    detail: str = ""


def _dyadic_pieces(f, upper, n_pieces: int = 60):
    """Integrals of ``eta * f(eta)`` over [u 2^-k-1, u 2^-k], k = 0.., per upper limit u.

    Returns ``(pieces, counts)`` with one row per entry of ``upper``.  Row r
    uses ``pieces[r, :counts[r]]``: it stops at its first piece below 1e-300,
    which is included, and is zero past it.  Only the used pieces must see a
    positive, finite majorant.
    """
    upper = np.asarray(upper, dtype=float).reshape(-1)
    hi = upper[:, None] * np.ldexp(1.0, -np.arange(n_pieces))
    lo = 0.5 * hi
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[..., None] + half[..., None] * _GAUSS_X
    fx = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    pieces = half * ((x * fx) @ _GAUSS_W)
    below = pieces < 1e-300
    counts = np.where(below.any(axis=1), np.argmax(below, axis=1) + 1, n_pieces)
    used = np.arange(n_pieces) < counts[:, None]
    bad = np.any(~np.isfinite(fx) | (fx <= 0.0), axis=2)
    if np.any(bad & used):
        raise ModelError("majorant must be positive and finite on (0, cap]")
    return np.where(used, pieces, 0.0), counts


def h4_integral(majorant, eps_hat: float) -> H4Result:
    """Classify the collar integral of ``eta * majorant(eta)`` on (0, eps_hat].

    Power-law majorants use the closed form: finite with value
    ``coef * eps_hat**(2-alpha) / (2-alpha)`` exactly when ``alpha < 2``.
    Other majorants are integrated over dyadic subintervals; divergence is
    declared when the pieces fail to decay geometrically.
    """
    if eps_hat <= 0.0:
        raise ModelError(f"collar cap must be positive, got {eps_hat}")
    if isinstance(majorant, PowerMajorant):
        a = majorant.alpha
        if a >= 2.0:
            return H4Result(False, None, "closed-form", f"exponent {a} >= 2")
        value = majorant.coef * eps_hat ** (2.0 - a) / (2.0 - a)
        return H4Result(True, value, "closed-form")
    if not callable(majorant):
        raise ModelError("majorant must be a PowerMajorant or a callable of distance")

    rows, counts = _dyadic_pieces(majorant, eps_hat)
    pieces = rows[0, : counts[0]]
    if pieces.size < 8:
        return H4Result(True, float(pieces.sum()), "quadrature", "pieces vanished early")
    ratios = pieces[1:] / pieces[:-1]
    tail_ratio = float(np.max(ratios[-8:]))
    if tail_ratio >= _DECAY_CUTOFF:
        return H4Result(
            False, None, "quadrature", f"piece ratio {tail_ratio:.6f} >= {_DECAY_CUTOFF}"
        )
    value = float(pieces.sum() + pieces[-1] * tail_ratio / (1.0 - tail_ratio))
    return H4Result(True, value, "quadrature")


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


class DensityModel:
    """Positive spatial density with positivity flags and a distance majorant.

    Kinds: ``constant`` (value c), ``power`` (coef * d(x)**(-alpha)), and
    ``table`` (piecewise linear in the reduced coordinate).
    """

    def __init__(self, kind, domain, *, coef=1.0, alpha=None, knots=None, values=None):
        self.kind = kind
        self.domain = domain
        self.coef = float(coef)
        self.alpha = None if alpha is None else float(alpha)
        self._knots = knots
        self._values = values
        if kind == "constant":
            if self.coef <= 0.0:
                raise ModelError("constant density must be positive")
            self.is_bounded = True
            self.majorant = PowerMajorant(self.coef, 0.0)
        elif kind == "power":
            if self.coef <= 0.0:
                raise ModelError("power-law density needs a positive coefficient")
            self.is_bounded = self.alpha <= 0.0
            self.majorant = PowerMajorant(self.coef, self.alpha)
        elif kind == "table":
            v = np.asarray(values, dtype=float)
            k = np.asarray(knots, dtype=float)
            if k.ndim != 1 or k.size < 2 or np.any(np.diff(k) <= 0):
                raise ModelError("density table needs a strictly increasing coordinate column")
            if np.any(v <= 0.0) or np.any(~np.isfinite(v)):
                raise ModelError("density table values must be positive and finite")
            self._knots, self._values = k, v
            self.is_bounded = True
            self.majorant = self._table_majorant()
        else:
            raise ModelError(f"unknown density kind {kind!r}")

    @classmethod
    def constant(cls, c: float, domain: Domain) -> "DensityModel":
        return cls("constant", domain, coef=c)

    @classmethod
    def power_law(cls, alpha: float, domain: Domain, coef: float = 1.0) -> "DensityModel":
        return cls("power", domain, coef=coef, alpha=alpha)

    @classmethod
    def from_table(cls, coords, values, domain: Domain) -> "DensityModel":
        return cls("table", domain, knots=coords, values=values)

    def rho(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            out = np.full(x.shape, self.coef)
        elif self.kind == "power":
            d = np.maximum(self.domain.distance(x), 1e-300)
            out = self.coef * d ** (-self.alpha)
        else:
            out = np.interp(x, self._knots, self._values)
        return float(out) if out.ndim == 0 else out

    def _table_majorant(self) -> TabulatedMajorant:
        # Worst tabulated value over all points at a given boundary distance.
        dom = self.domain
        etas = np.linspace(0.0, dom.collar_cap, 513)
        sides = []
        for b in dom.boundary_points():
            inward = 1.0 if b == dom.lo else -1.0
            sides.append(np.interp(b + inward * etas, self._knots, self._values))
        return TabulatedMajorant(knots=etas, values=np.max(sides, axis=0))

    def inf_on(self, grid: Grid) -> float:
        idx = grid.interior_indices()
        return float(np.min(self.rho(grid.nodes[idx])))

    def sup_on(self, grid: Grid) -> float:
        idx = grid.interior_indices()
        return float(np.max(self.rho(grid.nodes[idx])))


# ---------------------------------------------------------------------------
# Nonlinearity
# ---------------------------------------------------------------------------


class Nonlinearity:
    """Monotone flux with evaluators for value, derivative, and inverse.

    ``alpha0`` is the degeneracy floor: positive exactly when the derivative
    stays above it everywhere (the nondegenerate regime), zero otherwise.
    """

    def __init__(self, kind, g, dg, g_inv, alpha0, g_range=(-np.inf, np.inf)):
        self.kind = kind
        self._g = g
        self._dg = dg
        self._g_inv = g_inv
        self.alpha0 = float(alpha0)
        self.g_range = g_range

    @classmethod
    def linear(cls, slope: float = 1.0) -> "Nonlinearity":
        if slope <= 0.0:
            raise ModelError("linear flux needs a positive slope")

        return cls(
            "linear",
            lambda u: slope * np.asarray(u, dtype=float),
            lambda u: np.full(np.shape(np.asarray(u)), slope) if np.ndim(u) else slope,
            lambda y: np.asarray(y, dtype=float) / slope,
            alpha0=slope,
        )

    @classmethod
    def porous_medium(cls, m: float) -> "Nonlinearity":
        if m <= 1.0:
            raise ModelError(f"porous-medium exponent must exceed 1, got {m}")

        def g(u):
            u = np.asarray(u, dtype=float)
            return np.sign(u) * np.abs(u) ** m

        def dg(u):
            u = np.asarray(u, dtype=float)
            return m * np.abs(u) ** (m - 1.0)

        def g_inv(y):
            y = np.asarray(y, dtype=float)
            return np.sign(y) * np.abs(y) ** (1.0 / m)

        return cls("porous-medium", g, dg, g_inv, alpha0=0.0)

    @classmethod
    def from_table(cls, u_knots, g_values) -> "Nonlinearity":
        u = np.asarray(u_knots, dtype=float)
        v = np.asarray(g_values, dtype=float)
        if u.ndim != 1 or u.size < 2 or np.any(np.diff(u) <= 0):
            raise ModelError("flux table needs a strictly increasing argument column")
        if np.any(np.diff(v) <= 0):
            raise ModelError("flux table values must be strictly increasing")
        slopes = np.diff(v) / np.diff(u)
        alpha0 = float(np.min(slopes))

        def dg(x):
            x = np.asarray(x, dtype=float)
            j = np.clip(np.searchsorted(u, x, side="right") - 1, 0, slopes.size - 1)
            out = slopes[j]
            return float(out) if out.ndim == 0 else out

        return cls(
            "table",
            lambda x: np.interp(np.asarray(x, dtype=float), u, v),
            dg,
            lambda y: np.interp(np.asarray(y, dtype=float), v, u),
            alpha0=alpha0 if alpha0 > 0 else 0.0,
            g_range=(float(v[0]), float(v[-1])),
        )

    def g(self, u):
        return self._g(u)

    def dg(self, u):
        return self._dg(u)

    def g_inv(self, y):
        y_arr = np.asarray(y, dtype=float)
        lo, hi = self.g_range
        tol = 1e-12 * max(1.0, float(np.max(np.abs(y_arr))) if y_arr.size else 1.0)
        outside = (y_arr < lo - tol) | (y_arr > hi + tol)
        if np.any(outside):
            bad = float(y_arr[outside].flat[0])
            raise RangeError(
                f"inverse flux argument {bad} outside range [{lo}, {hi}]",
                node=int(np.argmax(outside)) if y_arr.ndim >= 1 else None,
                argument=bad,
            )
        return self._g_inv(y)


# ---------------------------------------------------------------------------
# Boundary and initial data
# ---------------------------------------------------------------------------


class BoundaryData:
    """Dirichlet trace ``phi(x0, t)`` on boundary points over [0, horizon]."""

    def __init__(self, func, *, horizon=1.0, time_dependent=True, positivity_floor=0.0):
        self._func = func
        self.horizon = float(horizon)
        self.time_dependent = bool(time_dependent)
        self.positivity_floor = float(positivity_floor)

    @classmethod
    def constant(cls, value: float, horizon: float = 1.0, positivity_floor: float = 0.0):
        return cls(
            lambda x, t: np.broadcast_arrays(np.asarray(x, float) * 0.0 + value,
                                             np.asarray(t, float))[0],
            horizon=horizon,
            time_dependent=False,
            positivity_floor=positivity_floor,
        )

    @classmethod
    def ramp(cls, value0: float, rate: float, horizon: float = 1.0, positivity_floor: float = 0.0):
        return cls(
            lambda x, t: np.asarray(x, float) * 0.0 + value0 + rate * np.asarray(t, float),
            horizon=horizon,
            time_dependent=(rate != 0.0),
            positivity_floor=positivity_floor,
        )

    @classmethod
    def sine(cls, offset: float, amplitude: float, frequency: float, horizon: float = 1.0,
             positivity_floor: float = 0.0):
        def f(x, t):
            return (np.asarray(x, float) * 0.0 + offset
                    + amplitude * np.sin(2.0 * np.pi * frequency * np.asarray(t, float)))

        return cls(f, horizon=horizon, time_dependent=(amplitude != 0.0),
                   positivity_floor=positivity_floor)

    @classmethod
    def sided(cls, left: float, right: float, domain: Domain, horizon: float = 1.0,
              positivity_floor: float = 0.0):
        mid = 0.5 * (domain.lo + domain.hi)

        def f(x, t):
            x = np.asarray(x, float)
            out = np.where(x < mid, left, right) + 0.0 * np.asarray(t, float)
            return out

        return cls(f, horizon=horizon, time_dependent=False,
                   positivity_floor=positivity_floor)

    def phi(self, x, t):
        out = np.asarray(self._func(x, t), dtype=float)
        return float(out) if out.ndim == 0 else out

    def sup_norm(self, domain: Domain) -> float:
        ts = np.linspace(0.0, self.horizon, _TRACE_SAMPLES)
        return float(max(np.max(np.abs(self.phi(b, ts))) for b in domain.boundary_points()))

    def min_value(self, domain: Domain) -> float:
        ts = np.linspace(0.0, self.horizon, _TRACE_SAMPLES)
        return float(min(np.min(self.phi(b, ts)) for b in domain.boundary_points()))


class InitialData:
    """Bounded continuous initial state ``u0(x)`` on the open domain."""

    def __init__(self, func):
        self._func = func

    @classmethod
    def constant(cls, value: float):
        return cls(lambda x: np.asarray(x, float) * 0.0 + value)

    @classmethod
    def sine(cls, domain: Domain, amplitude: float = 1.0, mode: int = 1, offset: float = 0.0):
        w = domain.width

        def f(x):
            x = np.asarray(x, float)
            return offset + amplitude * np.sin(mode * np.pi * (x - domain.lo) / w)

        return cls(f)

    def u0(self, x):
        out = np.asarray(self._func(x), dtype=float)
        return float(out) if out.ndim == 0 else out

    def sup_norm(self, grid: Grid) -> float:
        return float(np.max(np.abs(self.u0(grid.nodes))))


def global_bound(u0_sup: float, phi_sup: float, eta_cap: float) -> float:
    """A-priori bound on every lifted approximation: data sup plus the lift cap."""
    return max(u0_sup, phi_sup) + eta_cap


# ---------------------------------------------------------------------------
# Hypothesis report
# ---------------------------------------------------------------------------


@dataclass
class HypothesisReport:
    """Per-hypothesis verdicts with the evidence that produced them."""

    h1_density_positive: bool
    h2_flux_monotone: bool
    h3_initial_bounded: bool
    h4: H4Result
    h4_majorant_dominates: bool
    h5_nondegenerate: bool
    compat_initial_boundary: bool
    compat_at_time_zero: bool
    positivity_route: bool
    evidence: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def core_ok(self) -> bool:
        return self.h1_density_positive and self.h2_flux_monotone and self.h3_initial_bounded


def _continuity_score(values_coarse: np.ndarray, values_fine: np.ndarray, abs_tol: float) -> bool:
    # A continuous profile roughly halves its adjacent oscillation when the
    # sample is refined; a jump keeps it constant.
    osc_c = float(np.max(np.abs(np.diff(values_coarse)))) if values_coarse.size > 1 else 0.0
    osc_f = float(np.max(np.abs(np.diff(values_fine)))) if values_fine.size > 1 else 0.0
    return osc_f <= max(0.75 * osc_c, abs_tol)


def check_hypotheses(
    rho: DensityModel,
    flux: Nonlinearity,
    phi: BoundaryData,
    initial: InitialData,
    grid: Grid,
) -> HypothesisReport:
    """Certify the model hypotheses on dense samples plus closed forms.

    Sampled verdicts are honest about being finite checks: the evidence dict
    records sample counts and worst points.
    """
    dom = grid.domain
    w = dom.width
    evidence: dict = {}
    notes: list[str] = []

    pad = 1e-6 * w
    xs = np.linspace(dom.lo + pad, dom.hi - pad, _HYPOTHESIS_SAMPLES)

    rho_vals = rho.rho(xs)
    h1 = bool(np.all(rho_vals > 0.0))
    evidence["h1"] = {"method": "sampled", "n": int(xs.size),
                      "min_rho": float(np.min(rho_vals))}

    us = np.linspace(*_WORKING_RANGE, _HYPOTHESIS_SAMPLES)
    g_vals = np.asarray(flux.g(us))
    g_zero = float(np.abs(np.asarray(flux.g(0.0))))
    monotone = bool(np.all(np.diff(g_vals) > 0.0))
    deriv_pos = bool(np.all(np.asarray(flux.dg(us[np.abs(us) > 1e-9])) > 0.0))
    h2 = monotone and deriv_pos and g_zero <= 1e-10
    evidence["h2"] = {"method": "sampled", "n": int(us.size), "g_at_zero": g_zero,
                      "strictly_increasing": monotone}

    u0_coarse = initial.u0(np.linspace(dom.lo + pad, dom.hi - pad, _HYPOTHESIS_SAMPLES // 2))
    u0_fine = initial.u0(xs)
    u0_sup = float(np.max(np.abs(u0_fine)))
    h3 = bool(np.all(np.isfinite(u0_fine))) and _continuity_score(
        np.asarray(u0_coarse), np.asarray(u0_fine), abs_tol=1e-8 * max(1.0, u0_sup)
    )
    evidence["h3"] = {"method": "sampled", "n": int(xs.size), "sup": u0_sup}

    h4 = h4_integral(rho.majorant, dom.collar_cap)
    etas = dom.collar_cap * 2.0 ** (-np.arange(1, 21, dtype=float))
    dominated = True
    for b in dom.boundary_points():
        inward = 1.0 if b == dom.lo else -1.0
        pts = b + inward * etas
        gap = rho.rho(pts) - np.asarray(rho.majorant(dom.distance(pts)))
        if np.any(gap > 1e-9 * np.maximum(1.0, np.abs(rho.rho(pts)))):
            dominated = False
    evidence["h4"] = {"method": h4.method, "dominates_samples": int(etas.size)}
    if not h4.finite:
        notes.append(
            "collar integral divergent: uniqueness-without-boundary-conditions regime"
        )

    h5 = flux.alpha0 > 0.0
    evidence["h5"] = {"method": "closed-form" if flux.kind == "linear" else "sampled",
                      "alpha0": flux.alpha0}

    # Compatibility of the initial trace with the boundary data at t = 0.
    compat = True
    probes = dom.collar_cap * 2.0 ** (-np.arange(4, 15, dtype=float))
    worst = 0.0
    for b in dom.boundary_points():
        inward = 1.0 if b == dom.lo else -1.0
        vals = initial.u0(b + inward * probes)
        target = phi.phi(b, 0.0)
        gap = float(np.max(np.abs(np.asarray(vals)[-2:] - target)))
        worst = max(worst, gap)
        if gap > _COMPAT_BAND:
            compat = False
    evidence["compatibility"] = {"method": "sampled", "band": _COMPAT_BAND, "worst_gap": worst}
    compat_e301 = compat and not phi.time_dependent

    phi_min = phi.min_value(dom)
    near_u0 = min(
        float(np.min(initial.u0(b + (1.0 if b == dom.lo else -1.0) * probes)))
        for b in dom.boundary_points()
    )
    floor = phi.positivity_floor
    positivity = bool(phi_min > 0.0 and floor > 0.0 and near_u0 >= floor - 1e-12)
    evidence["positivity"] = {"phi_min": phi_min, "floor": floor, "u0_near_boundary": near_u0}

    if not h5 and not positivity and phi.time_dependent:
        notes.append(
            "time-dependent data with a degenerate flux and no positivity floor: "
            "set [boundary] positivity_floor above zero, with the data and the "
            "initial trace staying above it"
        )

    return HypothesisReport(
        h1_density_positive=h1,
        h2_flux_monotone=h2,
        h3_initial_bounded=h3,
        h4=h4,
        h4_majorant_dominates=dominated,
        h5_nondegenerate=h5,
        compat_initial_boundary=compat_e301,
        compat_at_time_zero=compat,
        positivity_route=positivity,
        evidence=evidence,
        notes=notes,
    )
