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

Logarithm arguments keep a fixed sign over each band, so they are
evaluated as log|.| and the sign consistency is asserted at both
endpoints of every difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Triangle

__all__ = [
    "DomainError",
    "TriangleParams",
    "CaseThresholds",
    "antiderivative",
    "pdf_case",
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


def _arcsin_or_none(x: float) -> float | None:
    """arcsin clamped into [0, pi/2]; None when the argument exceeds 1
    beyond roundoff slack (the band is then unrestricted)."""
    if x > 1.0 + ARCSIN_SLACK:
        return None
    return math.asin(min(x, 1.0))


@dataclass(frozen=True)
class CaseThresholds:
    """Orientation thresholds where the longest chord equals d, per band.

    ``None`` means every orientation in that band admits a chord of
    length d, so no threshold restricts the integration range.
    """

    low_first: float | None
    low_second: float | None
    mid_first: float | None
    mid_second: float | None
    high_first: float | None
    high_second: float | None

    @classmethod
    def compute(cls, params: TriangleParams, d: float) -> "CaseThresholds":
        if d <= 0.0:
            raise DomainError(f"thresholds need d > 0, got {d!r}")
        t_low = _arcsin_or_none(params.b * math.sin(params.alpha) / d)
        t_mid = _arcsin_or_none(params.c * math.sin(params.beta) / d)
        t_high = _arcsin_or_none(params.c * math.sin(params.alpha) / d)
        return cls(
            low_first=None if t_low is None else t_low - params.beta,
            low_second=None if t_low is None else math.pi - t_low - params.beta,
            mid_first=t_mid,
            mid_second=None if t_mid is None else math.pi - t_mid,
            high_first=None if t_high is None else math.pi - t_high + params.gamma,
            high_second=None if t_high is None else t_high + params.gamma,
        )


# ---------------------------------------------------------------------------
# Antiderivatives
# ---------------------------------------------------------------------------


def _log_abs(x: float, term: str) -> float:
    if x == 0.0 or not math.isfinite(x):
        raise DomainError(f"logarithm argument degenerate in {term}")
    return math.log(abs(x))


def _h_low_near(th, p: TriangleParams, d):
    al, be, ga, b = p.alpha, p.beta, p.gamma, p.b
    sa = math.sin(al)
    if sa == 0.0:
        raise DomainError("sin(alpha) vanishes in low_near")
    return d / (2.0 * sa) * (
        d * d / 2.0 * math.sin(be - ga + 2.0 * th)
        - d * (4.0 * b * sa * math.cos(ga - th) + d * th * math.cos(be + ga))
        + b * b / 2.0 * _log_abs(-math.sin(be + th) / math.cos(ga - th), "low_near")
        * (2.0 * math.sin(be + ga) - math.sin(2.0 * al + be + ga)
           + math.sin(2.0 * al - be - ga))
        + sa * sa * (2.0 * b * b * (ga - th) * math.cos(be + ga)
                     - b * b * math.log(math.tan(ga - th) ** 2 + 1.0)
                     * math.sin(be + ga))
    )


def _h_low_far(th, p: TriangleParams, d):
    al, be, b = p.alpha, p.beta, p.b
    sa = math.sin(al)
    if sa == 0.0 or b == 0.0:
        raise DomainError("degenerate prefactor in low_far")
    return p.a * d / (b * sa) * (
        d * d * th / 2.0 * math.cos(be)
        - d * d / 4.0 * math.sin(be + 2.0 * th)
        + b * b * th * math.cos(be) * sa * sa
        + 2.0 * b * d * sa * math.cos(th)
        - b * b * _log_abs(math.sin(be + th), "low_far") * math.sin(be) * sa * sa
    )


def _h_mid_near(th, p: TriangleParams, d):
    be, ga, b, c = p.beta, p.gamma, p.b, p.c
    sb = math.sin(be)
    if sb == 0.0 or c == 0.0:
        raise DomainError("degenerate prefactor in mid_near")
    return b * d / (4.0 * c * sb) * (
        d * d * math.sin(ga - 2.0 * th)
        + 2.0 * d * d * th * math.cos(ga)
        - 4.0 * c * c * sb * sb * (_log_abs(math.sin(th), "mid_near") * math.sin(ga)
                                   - th * math.cos(ga))
        + 8.0 * c * d * sb * math.cos(ga - th)
    )


def _h_mid_far(th, p: TriangleParams, d):
    be, c = p.beta, p.c
    sb = math.sin(be)
    if sb == 0.0:
        raise DomainError("sin(beta) vanishes in mid_far")
    return d / (4.0 * sb) * (
        2.0 * d * d * th * math.cos(be)
        - d * d * math.sin(be + 2.0 * th)
        + 4.0 * c * c * sb * sb * (_log_abs(math.sin(th), "mid_far") * sb
                                   + th * math.cos(be))
        + 8.0 * c * d * math.cos(be + th) * sb
    )


def _h_high_near(th, p: TriangleParams, d):
    # the base-adjacent angle gamma appears throughout: with beta in its
    # place the derivative does not reproduce the chord integrand
    # d*sin(th)*(base-d)^2/base (checked to 40 digits)
    al, ga, c = p.alpha, p.gamma, p.c
    sa = math.sin(al)
    if sa == 0.0 or c == 0.0:
        raise DomainError("degenerate prefactor in high_near")
    return p.a * d / (4.0 * c * sa) * (
        d * d * math.sin(ga - 2.0 * th)
        + 2.0 * d * d * th * math.cos(ga)
        + 8.0 * c * d * sa * math.cos(th)
        + 4.0 * c * c * sa * sa * (th * math.cos(ga)
                                   + math.sin(ga) * _log_abs(math.sin(ga - th),
                                                             "high_near"))
    )


def _h_high_far(th, p: TriangleParams, d):
    al, be, ga, c = p.alpha, p.beta, p.gamma, p.c
    sa = math.sin(al)
    if sa == 0.0:
        raise DomainError("sin(alpha) vanishes in high_far")
    return 2.0 * d / sa * (
        d * d / 8.0 * math.sin(be - ga + 2.0 * th)
        - th / 4.0 * math.cos(be + ga) * (2.0 * c * c * sa * sa + d * d)
        - c * d * math.cos(be + th) * sa
        - c * c / 2.0 * _log_abs(math.sin(ga - th), "high_far")
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

# raw log arguments, used for the sign-consistency assertion
_LOG_ARGS = {
    ("low", "near"): lambda th, p: -math.sin(p.beta + th) / math.cos(p.gamma - th),
    ("low", "far"): lambda th, p: math.sin(p.beta + th),
    ("mid", "near"): lambda th, p: math.sin(th),
    ("mid", "far"): lambda th, p: math.sin(th),
    ("high", "near"): lambda th, p: math.sin(p.gamma - th),
    ("high", "far"): lambda th, p: math.sin(p.gamma - th),
}


def antiderivative(which: str, params: TriangleParams, d: float, theta: float) -> float:
    """Evaluate one of the six band antiderivatives at ``theta``.

    ``which`` is "<band>_<part>" with band in {"low", "mid", "high"} and
    part in {"near", "far"}.
    """
    try:
        band, part = which.split("_")
        func = _H_FUNCS[(band, part)]
    except (ValueError, KeyError):
        raise DomainError(f"unknown antiderivative {which!r}") from None
    if not 0.0 < d < params.a:
        raise DomainError(f"need 0 < d < {params.a}, got {d!r}")
    return func(theta, params, d)


def _band_integral(band: str, params: TriangleParams, d: float,
                   lo: float, hi: float) -> float:
    """Integral of the band's density contribution over theta in [lo, hi]."""
    if hi <= lo:
        return 0.0
    log_arg = _LOG_ARGS[(band, "near")]
    s_lo, s_hi = log_arg(lo, params), log_arg(hi, params)
    if s_lo * s_hi < 0.0:
        raise DomainError(
            f"logarithm argument changes sign over [{lo!r}, {hi!r}] in band {band}"
        )
    total = 0.0
    for part in PARTS:
        func = _H_FUNCS[(band, part)]
        for end, sign in ((hi, 1.0), (lo, -1.0)):
            try:
                value = func(end, params, d)
            except DomainError:
                # removable endpoint singularity: step just inside
                nudged = end - sign * ENDPOINT_NUDGE
                value = func(nudged, params, d)
            if not math.isfinite(value):
                value = func(end - sign * ENDPOINT_NUDGE, params, d)
            total += sign * value
    return total / (params.area * params.area)


def pdf_case(band: str, params: TriangleParams, d: float) -> float:
    """Density contribution of one orientation band at distance ``d``."""
    if band not in BANDS:
        raise DomainError(f"unknown band {band!r}")
    if not 0.0 < d < params.a:
        raise DomainError(f"need 0 < d < {params.a}, got {d!r}")
    p = params
    t = CaseThresholds.compute(p, d)
    if band == "low":
        lo, hi = 0.0, p.gamma
        if t.low_first is None:
            return _band_integral(band, p, d, lo, hi)
        t1, t2 = t.low_first, t.low_second
        if p.gamma <= math.pi / 2.0 - p.beta:
            if 0.0 <= t1 <= p.gamma:
                return _band_integral(band, p, d, 0.0, t1)
            if t1 > p.gamma:
                return _band_integral(band, p, d, 0.0, p.gamma)
            return 0.0
        out = 0.0
        if 0.0 <= t1 <= math.pi / 2.0 - p.beta:
            out += _band_integral(band, p, d, 0.0, t1)
        if t2 <= p.gamma:
            out += _band_integral(band, p, d, t2, p.gamma)
        return out
    if band == "mid":
        lo, hi = p.gamma, math.pi - p.beta
        if t.mid_first is None:
            return _band_integral(band, p, d, lo, hi)
        out = 0.0
        if p.gamma <= t.mid_first <= math.pi / 2.0:
            out += _band_integral(band, p, d, p.gamma, t.mid_first)
        if t.mid_second <= math.pi - p.beta:
            out += _band_integral(band, p, d, t.mid_second, math.pi - p.beta)
        return out
    lo, hi = math.pi - p.beta, math.pi
    if t.high_first is None:
        return _band_integral(band, p, d, lo, hi)
    t1, t2 = t.high_first, t.high_second
    if p.beta <= math.pi / 2.0 - p.gamma:
        if t1 < lo:
            return _band_integral(band, p, d, lo, hi)
        if lo <= t1 <= math.pi:
            return _band_integral(band, p, d, t1, hi)
        return 0.0
    out = 0.0
    if lo <= t2 <= math.pi / 2.0 + p.gamma:
        out += _band_integral(band, p, d, lo, t2)
    if t1 <= math.pi:
        out += _band_integral(band, p, d, t1, hi)
    return out


def closed_form_pdf(params: TriangleParams, d: float) -> float:
    """Density of the distance between two uniform points in the triangle.

    Defined on 0 <= d <= a with value 0 at both endpoints (continuity).
    """
    if d < 0.0 or d > params.a:
        raise DomainError(f"distance {d!r} outside [0, {params.a}]")
    if d == 0.0 or d == params.a:
        return 0.0
    value = sum(pdf_case(band, params, d) for band in BANDS)
    if value < -1e-9:
        raise DomainError(f"negative density {value!r} at d={d!r}")
    return max(0.0, value)


def closed_form_curve(params: TriangleParams, n: int = 500):
    """Density sampled on a uniform grid of n+1 nodes over [0, a].

    Returns a :class:`polydist.km_engine.DensityCurve` so downstream CDF and
    resampling helpers apply unchanged.
    """
    from .km_engine import DensityCurve

    grid = np.linspace(0.0, params.a, n + 1)
    values = np.array([closed_form_pdf(params, float(d)) for d in grid])
    meta = {
        "method": "closed_form",
        "angles": [params.alpha, params.beta, params.gamma],
        "sides": [params.a, params.b, params.c],
    }
    return DensityCurve(params.a, values, meta)
