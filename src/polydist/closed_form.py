"""Analytic distance density inside an arbitrary triangle.

Independent of the sweep engine in :mod:`polydist.km_engine`: the density is
assembled from explicit antiderivatives, evaluated per orientation band.

Geometry convention: the triangle is normalized so its longest side has
length 1 and lies on the x-axis (see ``TriangleParams``).  Chord
orientations ``theta`` in [0, pi) fall into three bands delimited by the
directions of the remaining two sides:

* ``low``: theta in [0, gamma],
* ``mid``: theta in [gamma, pi - beta],
* ``high``: theta in [pi - beta, pi].

In each band the longest chord at orientation theta has length ``base``
and splits the offset range into a near part (width ``p1``) and a far
part (width ``p2``); chord length varies linearly with offset on either
part.  Integrating the within-region kernel 2*d*(l - d)/area**2 over
offsets leaves, per orientation,

    d * p_k * (base - d)**2 / base        (k = near, far)

and the functions below are closed-form theta-antiderivatives of these,
one (near, far) pair per band.  Band integrals divided by area**2 give
the density contribution; thresholds from arcsin guard the subranges
where base >= d.

Every entry point takes one distance or an array of them, and both run
the same array code: the thresholds of all nodes at once (NaN where a
band is unrestricted), each band's case split as per-node [lo, hi]
intervals, and the antiderivatives as numpy expressions over the nodes
whose interval is not empty.

Logarithm arguments keep a fixed sign over each band, so they are
evaluated as log|.| and the sign consistency is asserted at both
endpoints of every difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geom import Triangle
from .km_engine import DensityCurve, DiagnosticError

__all__ = [
    "DomainError",
    "TriangleParams",
    "CaseThresholds",
    "antiderivative",
    "closed_form_pdf",
    "closed_form_curve",
]

BANDS = ("low", "mid", "high")
PARTS = ("near", "far")

# an arcsin argument may exceed 1 by roundoff when d sits exactly on a
# threshold; beyond this slack the band is genuinely unrestricted
ARCSIN_SLACK = 1e-12

# one-sided offset used to step off a removable endpoint singularity
ENDPOINT_NUDGE = 1e-9

# roundoff may leave a density just below 0; below this the antiderivative
# differences have cancelled away the value (a sliver triangle)
NEGATIVE_TOL = 1e-9

# divisions and logarithms may meet a singular endpoint; such values are
# found with isfinite and recomputed just inside, so numpy need not warn
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


class DomainError(ValueError):
    """An antiderivative was evaluated outside its valid range."""


@dataclass(frozen=True)
class TriangleParams:
    """Normalized triangle: sides a = 1 >= b >= c opposite angles
    alpha >= beta >= gamma, longest side on the x-axis."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float
    area: float

    def __post_init__(self):
        if abs(self.a - 1.0) > 1e-9:
            raise DomainError(f"longest side must be normalized to 1, got {self.a!r}")
        if not (self.a >= self.b - 1e-12 and self.b >= self.c - 1e-12 and self.c > 0):
            raise DomainError("side lengths must satisfy a >= b >= c > 0")
        if not (self.alpha >= self.beta - 1e-12 and self.beta >= self.gamma - 1e-12
                and self.gamma > 0):
            raise DomainError("angles must satisfy alpha >= beta >= gamma > 0")
        if abs(self.alpha + self.beta + self.gamma - math.pi) > 1e-9:
            raise DomainError("angles must sum to pi")
        # law of sines ties sides to angles; catch inconsistent inputs early
        for side, ang in ((self.b, self.beta), (self.c, self.gamma)):
            if abs(side - math.sin(ang) / math.sin(self.alpha)) > 1e-9:
                raise DomainError("sides inconsistent with angles")
        if abs(self.area - 0.5 * self.b * math.sin(self.gamma)) > 1e-9:
            raise DomainError("area inconsistent with sides")

    @classmethod
    def from_angles(cls, alpha: float, beta: float, gamma: float) -> "TriangleParams":
        alpha, beta, gamma = sorted((alpha, beta, gamma), reverse=True)
        b = math.sin(beta) / math.sin(alpha)
        c = math.sin(gamma) / math.sin(alpha)
        return cls(1.0, b, c, alpha, beta, gamma, 0.5 * b * math.sin(gamma))

    @classmethod
    def from_triangle(cls, triangle: Triangle) -> "TriangleParams":
        """Parameters of ``triangle`` rescaled so the longest side is 1."""
        alpha, beta, gamma = triangle.angles
        return cls.from_angles(alpha, beta, gamma)


def _nodes(d) -> tuple[np.ndarray, bool]:
    """``d`` as a 1-d float array, and whether it was a scalar."""
    arr = np.asarray(d, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _require_interior(params: TriangleParams, d: np.ndarray):
    outside = ~((d > 0.0) & (d < params.a))
    if outside.any():
        raise DomainError(f"need 0 < d < {params.a}, got {float(d[outside][0])!r}")


def _arcsin_or_nan(x: np.ndarray) -> np.ndarray:
    """arcsin clamped into [0, pi/2]; NaN where the argument exceeds 1
    beyond roundoff slack (the band is then unrestricted)."""
    t = np.arcsin(np.minimum(x, 1.0))
    t[x > 1.0 + ARCSIN_SLACK] = np.nan
    return t


@dataclass(frozen=True)
class CaseThresholds:
    """Orientation thresholds where the longest chord equals d, per band.

    For an array of distances every field is an array, with NaN where
    every orientation in that band admits a chord of length d, so no
    threshold restricts the integration range.  For one distance the
    fields are floats, with None in place of NaN.
    """

    low_first: np.ndarray | float | None
    low_second: np.ndarray | float | None
    mid_first: np.ndarray | float | None
    mid_second: np.ndarray | float | None
    high_first: np.ndarray | float | None
    high_second: np.ndarray | float | None

    @classmethod
    def compute(cls, params: TriangleParams, d) -> "CaseThresholds":
        nodes, scalar = _nodes(d)
        t = cls._of_nodes(params, nodes)
        if not scalar:
            return t
        values = (float(getattr(t, f.name)[0]) for f in fields(cls))
        return cls(*(None if math.isnan(v) else v for v in values))

    @classmethod
    def _of_nodes(cls, p: TriangleParams, d: np.ndarray) -> "CaseThresholds":
        if not (d > 0.0).all():
            raise DomainError(f"thresholds need d > 0, got {float(d[~(d > 0.0)][0])!r}")
        with np.errstate(**_QUIET):
            t_low = _arcsin_or_nan(p.b * math.sin(p.alpha) / d)
            t_mid = _arcsin_or_nan(p.c * math.sin(p.beta) / d)
            t_high = _arcsin_or_nan(p.c * math.sin(p.alpha) / d)
        return cls(
            low_first=t_low - p.beta,
            low_second=math.pi - t_low - p.beta,
            mid_first=t_mid,
            mid_second=math.pi - t_mid,
            high_first=math.pi - t_high + p.gamma,
            high_second=t_high + p.gamma,
        )


# ---------------------------------------------------------------------------
# Antiderivatives
# ---------------------------------------------------------------------------


def _log_abs(x):
    return np.log(np.abs(x))


def _h_low_near(th, p: TriangleParams, d):
    al, be, ga, b = p.alpha, p.beta, p.gamma, p.b
    sa = math.sin(al)
    return d / (2.0 * sa) * (
        d * d / 2.0 * np.sin(be - ga + 2.0 * th)
        - d * (4.0 * b * sa * np.cos(ga - th) + d * th * math.cos(be + ga))
        + b * b / 2.0 * _log_abs(-np.sin(be + th) / np.cos(ga - th))
        * (2.0 * math.sin(be + ga) - math.sin(2.0 * al + be + ga)
           + math.sin(2.0 * al - be - ga))
        + sa * sa * (2.0 * b * b * (ga - th) * math.cos(be + ga)
                     - b * b * np.log(np.tan(ga - th) ** 2 + 1.0)
                     * math.sin(be + ga))
    )


def _h_low_far(th, p: TriangleParams, d):
    al, be, b = p.alpha, p.beta, p.b
    sa = math.sin(al)
    return p.a * d / (b * sa) * (
        d * d * th / 2.0 * math.cos(be)
        - d * d / 4.0 * np.sin(be + 2.0 * th)
        + b * b * th * math.cos(be) * sa * sa
        + 2.0 * b * d * sa * np.cos(th)
        - b * b * _log_abs(np.sin(be + th)) * math.sin(be) * sa * sa
    )


def _h_mid_near(th, p: TriangleParams, d):
    be, ga, b, c = p.beta, p.gamma, p.b, p.c
    sb = math.sin(be)
    return b * d / (4.0 * c * sb) * (
        d * d * np.sin(ga - 2.0 * th)
        + 2.0 * d * d * th * math.cos(ga)
        - 4.0 * c * c * sb * sb * (_log_abs(np.sin(th)) * math.sin(ga)
                                   - th * math.cos(ga))
        + 8.0 * c * d * sb * np.cos(ga - th)
    )


def _h_mid_far(th, p: TriangleParams, d):
    be, c = p.beta, p.c
    sb = math.sin(be)
    return d / (4.0 * sb) * (
        2.0 * d * d * th * math.cos(be)
        - d * d * np.sin(be + 2.0 * th)
        + 4.0 * c * c * sb * sb * (_log_abs(np.sin(th)) * sb
                                   + th * math.cos(be))
        + 8.0 * c * d * np.cos(be + th) * sb
    )


def _h_high_near(th, p: TriangleParams, d):
    # the base-adjacent angle gamma appears throughout: with beta in its
    # place the derivative does not reproduce the chord integrand
    # d*sin(th)*(base-d)^2/base (checked to 40 digits)
    al, ga, c = p.alpha, p.gamma, p.c
    sa = math.sin(al)
    return p.a * d / (4.0 * c * sa) * (
        d * d * np.sin(ga - 2.0 * th)
        + 2.0 * d * d * th * math.cos(ga)
        + 8.0 * c * d * sa * np.cos(th)
        + 4.0 * c * c * sa * sa * (th * math.cos(ga)
                                   + math.sin(ga) * _log_abs(np.sin(ga - th)))
    )


def _h_high_far(th, p: TriangleParams, d):
    al, be, ga, c = p.alpha, p.beta, p.gamma, p.c
    sa = math.sin(al)
    return 2.0 * d / sa * (
        d * d / 8.0 * np.sin(be - ga + 2.0 * th)
        - th / 4.0 * math.cos(be + ga) * (2.0 * c * c * sa * sa + d * d)
        - c * d * np.cos(be + th) * sa
        - c * c / 2.0 * _log_abs(np.sin(ga - th))
        * math.sin(be + ga) * sa * sa
    )


_H_FUNCS = {
    ("low", "near"): _h_low_near,
    ("low", "far"): _h_low_far,
    ("mid", "near"): _h_mid_near,
    ("mid", "far"): _h_mid_far,
    ("high", "near"): _h_high_near,
    ("high", "far"): _h_high_far,
}

# raw log arguments, used for the sign-consistency assertion and to find
# singular endpoints
_LOG_ARGS = {
    ("low", "near"): lambda th, p: -np.sin(p.beta + th) / np.cos(p.gamma - th),
    ("low", "far"): lambda th, p: np.sin(p.beta + th),
    ("mid", "near"): lambda th, p: np.sin(th),
    ("mid", "far"): lambda th, p: np.sin(th),
    ("high", "near"): lambda th, p: np.sin(p.gamma - th),
    ("high", "far"): lambda th, p: np.sin(p.gamma - th),
}


def _degenerate(arg: np.ndarray) -> np.ndarray:
    return (arg == 0.0) | ~np.isfinite(arg)


def antiderivative(which: str, params: TriangleParams, d, theta):
    """Evaluate one of the six band antiderivatives at ``theta``.

    ``which`` is "<band>_<part>" with band in {"low", "mid", "high"} and
    part in {"near", "far"}.  ``d`` and ``theta`` broadcast; a float comes
    back when both are scalars.
    """
    try:
        band, part = which.split("_")
        func = _H_FUNCS[(band, part)]
    except (ValueError, KeyError):
        raise DomainError(f"unknown antiderivative {which!r}") from None
    nodes, _ = _nodes(d)
    _require_interior(params, nodes)
    th = np.asarray(theta, dtype=float)
    with np.errstate(**_QUIET):
        if _degenerate(_LOG_ARGS[(band, part)](th, params)).any():
            raise DomainError(f"logarithm argument degenerate in {which}")
        value = func(th, params, np.asarray(d, dtype=float))
    return float(value) if np.ndim(value) == 0 else value


def _ends(band: str, part: str, p: TriangleParams, d: np.ndarray,
          ends: np.ndarray, inward: np.ndarray) -> np.ndarray:
    """One antiderivative at interval ends; a singular end (degenerate log
    argument or non-finite value) is re-evaluated ``inward`` of it."""
    func = _H_FUNCS[(band, part)]
    value = func(ends, p, d)
    bad = _degenerate(_LOG_ARGS[(band, part)](ends, p)) | ~np.isfinite(value)
    if bad.any():
        # removable endpoint singularity: step just inside
        value[bad] = func(ends[bad] + inward[bad], p, d[bad])
        if not np.isfinite(value[bad]).all():
            k = int(np.flatnonzero(bad)[0])
            raise DiagnosticError(
                f"closed form: {band}_{part} antiderivative is not finite near "
                f"theta={float(ends[k])!r} at d={float(d[k])!r}"
            )
    return value


def _band_integral(band: str, params: TriangleParams, d: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of the band's density contribution over theta in [lo, hi],
    per node: equal-length arrays with hi > lo."""
    m = len(d)
    with np.errstate(**_QUIET):
        log_arg = _LOG_ARGS[(band, "near")]
        flips = log_arg(lo, params) * log_arg(hi, params) < 0.0
        if flips.any():
            k = int(np.argmax(flips))
            raise DiagnosticError(
                f"closed form: logarithm argument changes sign over "
                f"[{float(lo[k])!r}, {float(hi[k])!r}] in band {band} at d={float(d[k])!r}"
            )
        # both ends in one evaluation: hi in the first half, lo in the second
        ends = np.concatenate([hi, lo])
        dd = np.concatenate([d, d])
        inward = np.repeat([-ENDPOINT_NUDGE, ENDPOINT_NUDGE], m)
        near = _ends(band, "near", params, dd, ends, inward)
        far = _ends(band, "far", params, dd, ends, inward)
    total = near[:m] - near[m:] + far[:m] - far[m:]
    return total / (params.area * params.area)


def _band_intervals(band: str, p: TriangleParams, t: CaseThresholds):
    """The band's integration intervals at every node, as up to two
    (lo, hi, active) triples: the split on the triangle's shape picks the
    formula, and each node's thresholds (NaN: unrestricted) its limits."""
    half = math.pi / 2.0
    if band == "low":
        t1, t2 = t.low_first, t.low_second
        free = np.isnan(t1)
        if p.gamma <= half - p.beta:
            return [(0.0, np.where(free, p.gamma, np.minimum(t1, p.gamma)),
                     free | (t1 >= 0.0))]
        return [(0.0, np.where(free, p.gamma, t1),
                 free | ((0.0 <= t1) & (t1 <= half - p.beta))),
                (t2, p.gamma, t2 <= p.gamma)]
    if band == "mid":
        t1, t2 = t.mid_first, t.mid_second
        free = np.isnan(t1)
        hi = math.pi - p.beta
        return [(p.gamma, np.where(free, hi, t1),
                 free | ((p.gamma <= t1) & (t1 <= half))),
                (t2, hi, t2 <= hi)]
    lo, hi = math.pi - p.beta, math.pi
    t1, t2 = t.high_first, t.high_second
    free = np.isnan(t1)
    if p.beta <= half - p.gamma:
        return [(np.where(free, lo, np.maximum(t1, lo)), hi, free | (t1 <= math.pi))]
    return [(lo, np.where(free, hi, t2), free | ((lo <= t2) & (t2 <= half + p.gamma))),
            (t1, hi, t1 <= math.pi)]


def _band_density(band: str, p: TriangleParams, d: np.ndarray,
                  t: CaseThresholds) -> np.ndarray:
    out = np.zeros_like(d)
    for lo, hi, active in _band_intervals(band, p, t):
        lo, hi = np.broadcast_to(lo, d.shape), np.broadcast_to(hi, d.shape)
        idx = np.flatnonzero(active & (hi > lo))
        if idx.size:
            out[idx] += _band_integral(band, p, d[idx], lo[idx], hi[idx])
    return out


def closed_form_pdf(params: TriangleParams, d):
    """Density of the distance between two uniform points in the triangle.

    Defined on 0 <= d <= a with value 0 at both endpoints (continuity).
    ``d`` is a float, or an array evaluated in one pass.  A density that
    cancellation drives negative or non-finite raises ``DiagnosticError``.
    """
    nodes, scalar = _nodes(d)
    edge = (nodes == 0.0) | (nodes == params.a)
    inside = (nodes > 0.0) & (nodes < params.a)
    if not (edge | inside).all():
        bad = float(nodes[~(edge | inside)][0])
        raise DomainError(f"distance {bad!r} outside [0, {params.a}]")
    out = np.zeros_like(nodes)
    x = nodes[inside]
    t = CaseThresholds._of_nodes(params, x)
    value = sum(_band_density(band, params, x, t) for band in BANDS)
    broken = ~np.isfinite(value) | (value < -NEGATIVE_TOL)
    if broken.any():
        k = int(np.argmax(broken))
        what = "non-finite" if not np.isfinite(value[k]) else "negative"
        raise DiagnosticError(
            f"closed form: {what} density {float(value[k])!r} at d={float(x[k])!r}"
            f" (longest side 1)"
        )
    out[inside] = np.maximum(value, 0.0)
    return float(out[0]) if scalar else out


def closed_form_curve(params: TriangleParams, n: int = 500):
    """Density sampled on a uniform grid of n+1 nodes over [0, a], in one
    array pass over the grid.

    Returns a :class:`polydist.km_engine.DensityCurve` so downstream CDF and
    resampling helpers apply unchanged.
    """
    grid = np.linspace(0.0, params.a, n + 1)
    meta = {
        "method": "closed_form",
        "angles": [params.alpha, params.beta, params.gamma],
        "sides": [params.a, params.b, params.c],
    }
    return DensityCurve(params.a, closed_form_pdf(params, grid), meta)
