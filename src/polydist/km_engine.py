"""Distance distributions by discretized integration over the line space.

The engine sweeps the invariant line measure dp dtheta (theta in [0, pi),
p the signed offset) over a region or a pair of regions.  Every line
contributes through its chords:

* within one region, a chord of length l adds 2*d*(l-d)/S^2 for d <= l,
  the autocorrelation of the chord with itself,
* between two interior-disjoint regions with chords of lengths l1 and l3
  separated by a gap l2 along the same line, the cross-correlation is the
  trapezoid kernel T(d) = max(0, min(d-l2, l1, l3, l1+l2+l3-d)) and the
  line adds d*T(d)/(S1*S2).

Summed with the measure weights dp*dtheta, both densities integrate to 1.
Note the absent factor 2 in the pair case: chords of disjoint regions
overlap under a shift in only one of the two directions along the line,
while the within-region autocorrelation is symmetric and counts both.

Accumulation is exact per grid node: every chord contributes piecewise
linear functions of d, which are binned by their breakpoints and summed
with prefix sums, so no per-node tolerance is introduced beyond the line
discretization itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

from .geom import (
    ConvexClipper,
    SimplePolygon,
    Triangle,
    TrianglePairSpec,
    hull_diameter,
)

NORMALIZATION_TOL = 5e-3
CDF_TAIL_MIN = 0.995


class DiagnosticError(RuntimeError):
    """A numeric self-check failed (for example, resolution too coarse)."""


@dataclass(frozen=True)
class KMConfig:
    """Resolution settings for the line-measure sweep.

    d_theta   orientation step (radians); the sweep uses round(pi/d_theta)
              midpoints of [0, pi).
    d_p       offset step as a fraction of the sweep frame's diameter;
              within each orientation the step is shrunk to divide the
              frame's support width evenly.
    grid_points  number N of grid cells; curves carry N+1 samples at
              d_k = k * d_max / N.
    """

    d_theta: float = math.pi / 720.0
    d_p: float = 1.0 / 2000.0
    grid_points: int = 500

    def __post_init__(self):
        if not 0.0 < self.d_theta <= math.pi / 90.0:
            raise ValueError(f"d_theta must lie in (0, pi/90], got {self.d_theta}")
        if not 0.0 < self.d_p <= 1.0 / 200.0:
            raise ValueError(f"d_p must lie in (0, 1/200], got {self.d_p}")
        if self.grid_points < 50:
            raise ValueError(f"grid_points must be >= 50, got {self.grid_points}")


def _grid(d_max: float, n: int) -> np.ndarray:
    return np.linspace(0.0, d_max, n + 1)


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """Sampled probability density of the point-pair distance.

    ``values[k]`` is f(d_k) at d_k = k * d_max / N.  Construction checks
    that f(0) = 0, samples are nonnegative, and the trapezoid integral is
    1 within NORMALIZATION_TOL (otherwise the resolution was too coarse
    and a DiagnosticError is raised).
    """

    d_max: float
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("density curve needs a 1-d array of >= 2 samples")
        if not (self.d_max > 0.0 and math.isfinite(self.d_max)):
            raise ValueError(f"d_max must be positive, got {self.d_max}")
        peak = float(vals.max(initial=0.0))
        if vals[0] != 0.0 and abs(vals[0]) > 1e-12 * max(peak, 1.0):
            raise DiagnosticError(f"density must vanish at d=0, got {vals[0]!r}")
        if float(vals.min()) < -1e-9 * max(peak, 1.0):
            raise DiagnosticError(f"negative density sample {float(vals.min())!r}")
        vals = np.clip(vals, 0.0, None)
        total = float(np.trapezoid(vals, dx=self.d_max / (len(vals) - 1)))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise DiagnosticError(
                f"density integrates to {total!r}, outside 1 +/- {NORMALIZATION_TOL}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> np.ndarray:
        return _grid(self.d_max, len(self.values) - 1)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.d_max / (len(self.values) - 1)))

    def evaluate(self, d) -> np.ndarray:
        return np.interp(d, self.grid, self.values, left=0.0, right=0.0)


@dataclass(frozen=True, eq=False)
class CdfCurve:
    """Sampled cumulative distribution of the point-pair distance.

    Nondecreasing, F(0) = 0, values in [0, 1]; the final sample must reach
    at least CDF_TAIL_MIN so essentially all mass lies on the grid.
    """

    d_max: float
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("cdf curve needs a 1-d array of >= 2 samples")
        if not (self.d_max > 0.0 and math.isfinite(self.d_max)):
            raise ValueError(f"d_max must be positive, got {self.d_max}")
        if abs(float(vals[0])) > 1e-12:
            raise DiagnosticError(f"cdf must start at 0, got {vals[0]!r}")
        if float(np.diff(vals).min(initial=0.0)) < -1e-9:
            raise DiagnosticError("cdf is decreasing beyond tolerance")
        if float(vals.min()) < -1e-12 or float(vals.max()) > 1.0 + 1e-9:
            raise DiagnosticError("cdf leaves [0, 1] beyond tolerance")
        final = float(vals[-1])
        if final < CDF_TAIL_MIN:
            raise DiagnosticError(
                f"cdf reaches only {final!r} at d_max; resolution or support wrong"
            )
        vals = np.clip(vals, 0.0, 1.0)
        vals = np.maximum.accumulate(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> np.ndarray:
        return _grid(self.d_max, len(self.values) - 1)

    def evaluate(self, d) -> np.ndarray:
        return np.interp(d, self.grid, self.values, left=0.0, right=float(self.values[-1]))


def pdf_to_cdf(curve: DensityCurve) -> CdfCurve:
    """Cumulative trapezoid integration of a density curve, clamped to [0, 1]."""
    vals = curve.values
    dx = curve.d_max / (len(vals) - 1)
    steps = 0.5 * (vals[1:] + vals[:-1]) * dx
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    cdf = np.minimum(cdf, 1.0)
    return CdfCurve(curve.d_max, cdf, dict(curve.meta))


def trapezoid_kernel(l1, l2, l3, d):
    """Cross-correlation at shift d of two chords of lengths l1 and l3
    separated by a gap l2 along one line.

    Zero up to d = l2, rises with unit slope, plateaus at min(l1, l3), and
    falls back to zero at d = l1 + l2 + l3.  Symmetric in l1 <-> l3; its
    integral over d is l1 * l3.
    """
    l1 = np.asarray(l1, dtype=np.float64)
    l3 = np.asarray(l3, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    rise = d - l2
    fall = l1 + l2 + l3 - d
    t = np.minimum(np.minimum(rise, fall), np.minimum(l1, l3))
    out = np.maximum(t, 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Chord sources
# ---------------------------------------------------------------------------


class ConvexSource:
    """Chords of a single convex region (triangle or convex polygon)."""

    def __init__(self, vertices):
        self._clipper = ConvexClipper(vertices)
        self.vertices = self._clipper.vertices

    def support(self, theta: float) -> tuple[float, float]:
        return self._clipper.support(theta)

    def chords(self, theta: float, p: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        return [self._clipper.chord(theta, p)]


class UnionSource:
    """Chords of a union of interior-disjoint convex pieces (one per piece).

    Pieces touching along shared edges need no merging: the correlation
    kernels are additive over a disjoint decomposition of the chord.
    """

    def __init__(self, pieces: Sequence):
        arrays = [p.vertices if isinstance(p, Triangle) else np.asarray(p) for p in pieces]
        if not arrays:
            raise ValueError("union source needs at least one piece")
        self._clippers = [ConvexClipper(a) for a in arrays]
        self.vertices = np.vstack(arrays)

    def support(self, theta: float) -> tuple[float, float]:
        bounds = [c.support(theta) for c in self._clippers]
        return min(b[0] for b in bounds), max(b[1] for b in bounds)

    def chords(self, theta: float, p: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        return [c.chord(theta, p) for c in self._clippers]


class DifferenceSource:
    """Chords of a convex region minus a strictly interior convex hole.

    Each line yields at most two pieces: the chord parts before and after
    the hole chord.
    """

    def __init__(self, outer_vertices, hole_vertices):
        self._outer = ConvexClipper(outer_vertices)
        self._hole = ConvexClipper(hole_vertices)
        self.vertices = np.asarray(self._outer.vertices)

    def support(self, theta: float) -> tuple[float, float]:
        return self._outer.support(theta)

    def chords(self, theta: float, p: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        o0, o1 = self._outer.chord(theta, p)
        h0, h1 = self._hole.chord(theta, p)
        has_hole = (h1 - h0) > 0.0
        first = (o0, np.where(has_hole, np.minimum(o1, h0), o1))
        second = (np.where(has_hole, np.maximum(o0, h1), 0.0),
                  np.where(has_hole, o1, 0.0))
        return [first, second]


class PolygonSource:
    """Chords of the even-odd interior of one or more closed vertex loops.

    A simple polygon is one loop; each hole, convex or not, is one more
    loop.  On every line the edges crossing it (half-open rule: an edge
    crosses when exactly one endpoint lies strictly above the line) are
    sorted along the line, and consecutive crossings pair up into the
    interior intervals.  Piece j of the result is the j-th interval on each
    line, empty where a line has fewer; like the convex sources, it always
    returns at least one piece.
    """

    def __init__(self, *loops):
        arrays = [_as_loop(loop) for loop in loops]
        if not arrays:
            raise ValueError("polygon source needs at least one loop")
        self.vertices = np.vstack(arrays)
        self._ends = np.vstack([np.roll(a, -1, axis=0) for a in arrays])

    def support(self, theta: float) -> tuple[float, float]:
        nx, ny = -math.sin(theta), math.cos(theta)
        proj = self.vertices[:, 0] * nx + self.vertices[:, 1] * ny
        return float(proj.min()), float(proj.max())

    def chords(self, theta: float, p: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        p = np.atleast_1d(np.asarray(p, dtype=np.float64))[:, None]
        ux, uy = math.cos(theta), math.sin(theta)
        nx, ny = -uy, ux
        a, b = self.vertices, self._ends
        s_a = a[:, 0] * nx + a[:, 1] * ny
        s_b = b[:, 0] * nx + b[:, 1] * ny
        t_a = a[:, 0] * ux + a[:, 1] * uy
        t_b = b[:, 0] * ux + b[:, 1] * uy
        crosses = (s_a > p) != (s_b > p)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t_a + (t_b - t_a) * ((p - s_a) / (s_b - s_a))
        t = np.sort(np.where(crosses, t, np.inf), axis=1)
        # closed loops cross every line an even number of times
        count = crosses.sum(axis=1)
        pieces = []
        for j in range(0, max(2, int(count.max(initial=0))), 2):
            inside = count > j
            pieces.append((np.where(inside, t[:, j], 0.0),
                           np.where(inside, t[:, j + 1], 0.0)))
        return pieces


def _as_loop(vertices) -> np.ndarray:
    arr = np.asarray(vertices, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 3:
        raise ValueError(f"a loop needs an (n >= 3, 2) vertex array, got shape {arr.shape}")
    return arr


def _clean_pieces(pieces):
    """Convert (t_lo, t_hi) bounds to (start, length) with empties at zero."""
    cleaned = []
    for t0, t1 in pieces:
        length = np.maximum(0.0, t1 - t0)
        start = np.where(length > 0.0, t0, 0.0)
        cleaned.append((start, length))
    return cleaned


def _piece_gap(start_a, len_a, start_b, len_b):
    return np.maximum(
        0.0, np.maximum(start_a, start_b) - np.minimum(start_a + len_a, start_b + len_b)
    )


# ---------------------------------------------------------------------------
# Exact per-node accumulation
# ---------------------------------------------------------------------------


class _KernelBins:
    """Accumulates piecewise linear kernel contributions exactly per node.

    Ramp-down terms max(0, l - d) are stored as (l, w) points; trapezoid
    terms are decomposed into four signed ramps max(0, d - a).  Prefix
    sums over the breakpoint bins then give the exact weighted sums at
    every grid node.
    """

    def __init__(self, n: int, d_max: float):
        self.n = n
        self.dx = d_max / n
        self._up_w = np.zeros(n + 2)
        self._up_wa = np.zeros(n + 2)
        self._dn_w = np.zeros(n + 2)
        self._dn_wl = np.zeros(n + 2)
        self._dn_w_tot = 0.0
        self._dn_wl_tot = 0.0

    def _bins(self, a: np.ndarray) -> np.ndarray:
        k = np.ceil(a / self.dx)
        return np.clip(k, 0.0, self.n + 1).astype(np.int64)

    def add_ramp_down(self, lengths: np.ndarray, w: float):
        k = self._bins(lengths)
        self._dn_w += w * np.bincount(k, minlength=self.n + 2)
        self._dn_wl += w * np.bincount(k, weights=lengths, minlength=self.n + 2)
        self._dn_w_tot += w * len(lengths)
        self._dn_wl_tot += w * float(lengths.sum())

    def add_trapezoids(self, l1: np.ndarray, gap: np.ndarray, l3: np.ndarray, w: float):
        lo = np.minimum(l1, l3)
        hi = np.maximum(l1, l3)
        a = np.concatenate([gap, gap + lo, gap + hi, gap + lo + hi])
        m = len(gap)
        sign = np.concatenate([np.ones(m), -np.ones(m), -np.ones(m), np.ones(m)])
        k = self._bins(a)
        self._up_w += w * np.bincount(k, weights=sign, minlength=self.n + 2)
        self._up_wa += w * np.bincount(k, weights=sign * a, minlength=self.n + 2)

    def node_sums(self) -> np.ndarray:
        """Weighted kernel sum at each node d_k (before any d prefactor)."""
        d = np.arange(self.n + 1) * self.dx
        cum_up_w = np.cumsum(self._up_w)[: self.n + 1]
        cum_up_wa = np.cumsum(self._up_wa)[: self.n + 1]
        up = d * cum_up_w - cum_up_wa
        cum_dn_w = np.cumsum(self._dn_w)[: self.n + 1]
        cum_dn_wl = np.cumsum(self._dn_wl)[: self.n + 1]
        down = (self._dn_wl_tot - cum_dn_wl) - d * (self._dn_w_tot - cum_dn_w)
        return up + down


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _theta_steps(cfg: KMConfig) -> tuple[int, float]:
    k = max(1, int(round(math.pi / cfg.d_theta)))
    return k, math.pi / k


def _lattice(frame, frame_diameter: float, sources, cfg: KMConfig):
    """The lines one sweep visits, as (theta, offsets, measure weight).

    At each orientation the lattice lines are the midpoints of
    ceil(width / (d_p * frame_diameter)) equal cells spanning the frame's
    support; the sweep keeps those that fall inside every source's support.
    Sweeps sharing one frame therefore see the same lines, so their
    discretization errors match where their curves are combined.
    """
    n_theta, d_theta = _theta_steps(cfg)
    dp_nom = cfg.d_p * frame_diameter
    for j in range(n_theta):
        theta = (j + 0.5) * d_theta
        f_lo, f_hi = frame.support(theta)
        lo, hi = f_lo, f_hi
        for src in sources:
            if src is not frame:
                s_lo, s_hi = src.support(theta)
                lo, hi = max(lo, s_lo), min(hi, s_hi)
        width = f_hi - f_lo
        if width <= 0.0 or hi <= lo:
            continue
        m = max(1, math.ceil(width / dp_nom))
        dp = width / m
        first = max(0, math.ceil((lo - f_lo) / dp - 0.5))
        stop = min(m, math.ceil((hi - f_lo) / dp - 0.5))
        if stop > first:
            yield theta, f_lo + (np.arange(first, stop) + 0.5) * dp, dp * d_theta


def sweep_within(source, area: float, d_max: float, cfg: KMConfig,
                 frame=None, meta: dict | None = None) -> DensityCurve:
    """Distance density of two uniform points in one region.

    ``source`` provides the region's chords; ``area`` its area; ``d_max``
    its diameter.  The lines come from the lattice of ``frame`` (see
    ``_lattice``), by default the source itself with diameter d_max.
    """
    if frame is None:
        frame, frame_diameter = source, d_max
    else:
        frame_diameter = hull_diameter(frame.vertices)
    bins = _KernelBins(cfg.grid_points, d_max)
    for theta, p, w in _lattice(frame, frame_diameter, [source], cfg):
        pieces = _clean_pieces(source.chords(theta, p))
        for start, length in pieces:
            bins.add_ramp_down(length, w)
        for i in range(len(pieces)):
            for k in range(i + 1, len(pieces)):
                si, li = pieces[i]
                sk, lk = pieces[k]
                bins.add_trapezoids(li, _piece_gap(si, li, sk, lk), lk, w)
    grid = _grid(d_max, cfg.grid_points)
    values = (2.0 * grid / (area * area)) * bins.node_sums()
    return DensityCurve(d_max, values, meta or {})


def sweep_between(source_a, area_a: float, source_b, area_b: float,
                  d_max: float, cfg: KMConfig, frame,
                  meta: dict | None = None) -> DensityCurve:
    """Distance density between points of two interior-disjoint regions.

    Only lattice lines of ``frame`` meeting both supports contribute; each
    pair of chord pieces adds its trapezoid cross-correlation.
    """
    bins = _KernelBins(cfg.grid_points, d_max)
    lines = _lattice(frame, hull_diameter(frame.vertices), [source_a, source_b], cfg)
    for theta, p, w in lines:
        pieces_a = _clean_pieces(source_a.chords(theta, p))
        pieces_b = _clean_pieces(source_b.chords(theta, p))
        for sa, la in pieces_a:
            for sb, lb in pieces_b:
                bins.add_trapezoids(la, _piece_gap(sa, la, sb, lb), lb, w)
    grid = _grid(d_max, cfg.grid_points)
    # one direction of shift only, hence d and not 2d (see module docstring)
    values = (grid / (area_a * area_b)) * bins.node_sums()
    return DensityCurve(d_max, values, meta or {})


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def within_triangle_pdf(triangle: Triangle, cfg: KMConfig | None = None) -> DensityCurve:
    """Density of the distance between two uniform points in a triangle."""
    cfg = cfg or KMConfig()
    a, b, c = triangle.side_lengths
    meta = {
        "region": "triangle",
        "sides": [a, b, c],
        "area": triangle.area,
        "config": asdict(cfg),
    }
    return sweep_within(
        ConvexSource(triangle.vertices), triangle.area, triangle.diameter, cfg, meta=meta
    )


def within_convex_pdf(polygon: SimplePolygon | Triangle, cfg: KMConfig | None = None) -> DensityCurve:
    """Density of the distance between two uniform points in a convex polygon,
    integrated directly without triangulating."""
    cfg = cfg or KMConfig()
    if isinstance(polygon, Triangle):
        return within_triangle_pdf(polygon, cfg)
    if not polygon.is_convex():
        raise ValueError("within_convex_pdf needs a convex polygon")
    meta = {
        "region": "convex_polygon",
        "n_vertices": len(polygon.vertices),
        "area": polygon.area,
        "config": asdict(cfg),
    }
    return sweep_within(
        ConvexSource(polygon.vertices), polygon.area, polygon.diameter, cfg, meta=meta
    )


def cross_pair_pdf(pair: TrianglePairSpec, cfg: KMConfig | None = None) -> DensityCurve:
    """Density of the distance between uniform points of two disjoint-interior
    triangles (shared side, shared vertex, or fully disjoint)."""
    cfg = cfg or KMConfig()
    meta = {
        "region": "triangle_pair",
        "kind": pair.kind,
        "areas": list(pair.areas),
        "config": asdict(cfg),
    }
    return sweep_between(
        ConvexSource(pair.tri_a.vertices),
        pair.areas[0],
        ConvexSource(pair.tri_b.vertices),
        pair.areas[1],
        pair.max_distance,
        cfg,
        frame=PolygonSource(pair.tri_a.vertices, pair.tri_b.vertices),
        meta=meta,
    )
