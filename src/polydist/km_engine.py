"""Distance distributions by integration over the line space.

The engine sweeps the invariant line measure dp dtheta (theta in [0, pi),
p the signed offset) over a region or a pair of regions.  Every line
contributes through its chords:

* within one region, a chord of length l adds 2*d*(l-d)/S^2 for d <= l,
  the autocorrelation of the chord with itself,
* between two interior-disjoint regions with chords of lengths l1 and l3
  separated by a gap l2 along the same line, the cross-correlation is the
  trapezoid kernel T(d) = max(0, min(d-l2, l1, l3, l1+l2+l3-d)) and the
  line adds d*T(d)/(S1*S2).

Integrated against dp dtheta, both densities integrate to 1.
Note the absent factor 2 in the pair case: chords of disjoint regions
overlap under a shift in only one of the two directions along the line,
while the within-region autocorrelation is symmetric and counts both.

The offset integral is exact.  At each orientation the vertex
projections cut the offsets into slabs; inside a slab every chord end
moves linearly with p, so each kernel breakpoint (a difference of two
chord ends) does too, and the p-integral of every piecewise linear kernel
term over the slab is a closed-form quadratic in d.  These are binned by
breakpoint and summed exactly at every grid node.  The only
discretization left is the orientation rule (composite Gauss-Legendre).
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
)

NORMALIZATION_TOL = 5e-3
CDF_TAIL_MIN = 0.995


class DiagnosticError(RuntimeError):
    """A numeric self-check failed (for example, resolution too coarse)."""


@dataclass(frozen=True)
class KMConfig:
    """Resolution settings for the line-measure sweep.

    d_theta   orientation step (radians): n = round(pi/d_theta)
              orientations, placed by a 4-point Gauss-Legendre rule on
              ceil(n/4) equal cells of [0, pi).
    d_p       unused: the sweep integrates offsets exactly.  Still
              accepted and validated, because perfbench/ builds
              KMConfig(d_p=...).
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
#
# The sweeps read a source's ``loops``: the even-odd interior of those
# closed vertex loops is the region.  ``chords`` and ``support`` serve
# checks that clip single lines.


class ConvexSource:
    """Chords of a single convex region (triangle or convex polygon)."""

    def __init__(self, vertices):
        self._clipper = ConvexClipper(vertices)
        self.loops = [self._clipper.vertices]

    def support(self, theta: float) -> tuple[float, float]:
        return self._clipper.support(theta)

    def chords(self, theta: float, p: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        return [self._clipper.chord(theta, p)]


class UnionSource:
    """A union of interior-disjoint convex pieces, one loop per piece.

    Pieces touching along shared edges need no merging: a shared edge
    crosses a line twice at one position, and the correlation kernels are
    additive over a disjoint decomposition of the chord.
    """

    def __init__(self, pieces: Sequence):
        self.loops = [_as_loop(p.vertices if isinstance(p, Triangle) else p) for p in pieces]
        if not self.loops:
            raise ValueError("union source needs at least one piece")


class DifferenceSource:
    """A region minus a strictly interior hole: the outer and the hole loop."""

    def __init__(self, outer_vertices, hole_vertices):
        self.loops = [_as_loop(outer_vertices), _as_loop(hole_vertices)]


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
        self.loops = [_as_loop(loop) for loop in loops]
        if not self.loops:
            raise ValueError("polygon source needs at least one loop")
        self.vertices, self._ends = _edges(self)

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


def _edges(source) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points of every edge of a source's loops."""
    return (np.vstack(source.loops),
            np.vstack([np.roll(loop, -1, axis=0) for loop in source.loops]))


# ---------------------------------------------------------------------------
# Exact per-node accumulation
# ---------------------------------------------------------------------------


class _SlabMoments:
    """Exact per-node sums of ramps whose breakpoints move across slabs.

    A term (x, q) stands for q times the mean, over one slab of offsets, of
    the ramp-up (d - x)_+ or the ramp-down (x - d)_+, where the breakpoint
    x moves linearly from x[0] to x[1] across the slab.  With lo, hi the
    smaller and larger end, the mean ramp-up is

        ((d - lo)_+^2 - (d - hi)_+^2) / (2 (hi - lo)),

    zero below lo, quadratic on [lo, hi] and linear, d - (lo + hi)/2,
    above; the mean ramp-down mirrors it.  Each quadratic piece is binned by
    its breakpoint as its three coefficients in d, and prefix sums
    (ramp-ups) or suffix sums (ramp-downs, which vanish towards d_max)
    evaluate every term at every node.  When hi - lo < dx at most one node
    lies on the quadratic part: the term is binned as its linear limit and
    that node receives its exact value directly, which keeps the
    coefficients bounded by q / dx.
    """

    def __init__(self, n: int, d_max: float):
        self.n = n
        self.dx = d_max / n
        # rows: coefficients of d^2, d and 1.  Ramp-up bin k holds terms
        # active from node k on; ramp-down bin k + 1 those active up to node k.
        self._up = np.zeros((3, n + 2))
        self._down = np.zeros((3, n + 2))
        self._direct = np.zeros(n + 1)

    def add_up(self, x: np.ndarray, q: np.ndarray):
        lo, hi = np.minimum(x[0], x[1]), np.maximum(x[0], x[1])
        k_lo, k_hi = (np.clip(np.ceil(v / self.dx), 0, self.n + 1).astype(np.intp)
                      for v in (lo, hi))
        self._add(self._up, q, lo, hi, k_lo, k_hi, 1.0, k_lo)

    def add_down(self, x: np.ndarray, q: np.ndarray):
        lo, hi = np.minimum(x[0], x[1]), np.maximum(x[0], x[1])
        k_lo, k_hi = (np.clip(np.floor(v / self.dx), -1, self.n).astype(np.intp) + 1
                      for v in (lo, hi))
        self._add(self._down, q, hi, lo, k_hi, k_lo, -1.0, k_hi - 1)

    def _add(self, table, q, near, far, k_near, k_far, sign, node):
        """Bin q * (c (d - near)^2 from k_near, -c (d - far)^2 from k_far)
        with c = 1 / (2 |far - near|), or for a narrow term its linear limit
        sign * (d - mean) from k_far plus the exact value at ``node``."""
        width = np.abs(far - near)
        wide = width >= self.dx
        c = np.where(wide, q, 0.0) / (2.0 * np.where(wide, width, 1.0))
        lin = np.where(wide, 0.0, sign * q)
        mean = 0.5 * (near + far)
        rows = (np.concatenate([c, -c]),
                np.concatenate([-2.0 * c * near, 2.0 * c * far + lin]),
                np.concatenate([c * near * near, -c * far * far - lin * mean]))
        idx = np.concatenate([k_near, k_far])
        for row, coef in zip(table, rows):
            row += np.bincount(idx, weights=coef, minlength=self.n + 2)
        hit = ~wide & (k_near != k_far)
        gap = near[hit] - node[hit] * self.dx
        self._direct += np.bincount(node[hit], weights=q[hit] * gap * gap / (2.0 * width[hit]),
                                    minlength=self.n + 1)

    def node_sums(self) -> np.ndarray:
        """Weighted kernel sum at each node d_k (before any d prefactor)."""
        d = np.arange(self.n + 1) * self.dx
        up = np.cumsum(self._up, axis=1)[:, : self.n + 1]
        down = np.cumsum(self._down[:, ::-1], axis=1)[:, -2::-1]
        coef = up + down
        return d * d * coef[0] + d * coef[1] + coef[2] + self._direct


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# Orientations: composite 4-point Gauss-Legendre rule, nodes and weights on
# [-1, 1] (hardcoded: importing numpy.polynomial costs more than the rule).
_GAUSS_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                         0.3399810435848563, 0.8611363115940526])
_GAUSS_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                           0.6521451548625461, 0.3478548451374538])
# A block of orientations keeps its (slab x edge) crossing table near this
# many cells.  A block's kernel terms grow with it, so this bounds a sweep's
# memory; larger blocks gained no measurable time on triangles or pairs.
_BLOCK_CELLS = 1 << 13


def _orientations(cfg: KMConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the orientation rule: ceil(n/4) equal cells of
    [0, pi), four Gauss-Legendre nodes each, n = round(pi / d_theta)."""
    n_theta = max(1, int(round(math.pi / cfg.d_theta)))
    cells = -(-n_theta // 4)
    width = math.pi / cells
    theta = ((np.arange(cells)[:, None] + 0.5 * (1.0 + _GAUSS_NODES)) * width).ravel()
    return theta, np.tile(0.5 * width * _GAUSS_WEIGHTS, cells)


def _blocks(n_points: int, cfg: KMConfig):
    """(cos, sin, weight) of the orientations, in bounded blocks."""
    theta, weight = _orientations(cfg)
    size = max(1, _BLOCK_CELLS // (n_points * n_points))
    for lo in range(0, len(theta), size):
        block = theta[lo: lo + size]
        yield np.cos(block), np.sin(block), weight[lo: lo + size]


def _slabs(points, cos, sin):
    """Slabs of positive width between consecutive vertex projections:
    (orientation within the block, lower offset, upper offset)."""
    s = np.sort(np.outer(-sin, points[:, 0]) + np.outer(cos, points[:, 1]), axis=1)
    j, k = np.nonzero(s[:, 1:] > s[:, :-1])
    return j, s[j, k], s[j, k + 1]


def _pieces(edges, cos, sin, orient, p0, p1):
    """Even-odd chord pieces of every slab, as (slab, start, end).

    No vertex projects inside a slab, so the edges crossing its middle line
    cross all of its lines in the same order, each at a position affine in
    the offset.  ``start`` and ``end`` hold the piece ends at the slab's
    lower (row 0) and upper (row 1) offset; pieces come sorted by slab and
    along the line.
    """
    a, b = edges
    s_a = np.outer(-sin, a[:, 0]) + np.outer(cos, a[:, 1])
    s_b = np.outer(-sin, b[:, 0]) + np.outer(cos, b[:, 1])
    mid = (0.5 * (p0 + p1))[:, None]
    slab, e = np.nonzero((s_a[orient] > mid) != (s_b[orient] > mid))
    j = orient[slab]
    t_a = cos[j] * a[e, 0] + sin[j] * a[e, 1]
    t_b = cos[j] * b[e, 0] + sin[j] * b[e, 1]
    slope = (t_b - t_a) / (s_b[j, e] - s_a[j, e])
    t = t_a + slope * (np.stack([p0[slab], p1[slab]]) - s_a[j, e])
    order = np.lexsort((t[0] + t[1], slab))
    t, slab = t[:, order], slab[order]
    # every slab holds an even number of crossings, so pairs never straddle slabs
    return slab[0::2], t[:, 0::2], t[:, 1::2]


def _pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (i, k) with lo[i] <= k < hi[i]."""
    count = hi - lo
    i = np.repeat(np.arange(len(lo)), count)
    k = np.arange(len(i)) + np.repeat(lo - (np.cumsum(count) - count), count)
    return i, k


def _add_trapezoids(moments, start_1, end_1, start_2, end_2, q):
    """Trapezoid kernels of piece pairs, piece 1 before piece 2 on the line:
    ramp-ups at the gap, gap + l1, gap + l2 and the span, signs + - - +."""
    x = np.concatenate([start_2 - end_1, start_2 - start_1,
                        end_2 - end_1, end_2 - start_1], axis=1)
    moments.add_up(x, np.concatenate([q, -q, -q, q]))


def sweep_within(source, area: float, d_max: float, cfg: KMConfig,
                 meta: dict | None = None) -> DensityCurve:
    """Distance density of two uniform points in one region.

    ``source`` provides the region's loops; ``area`` its area; ``d_max``
    its diameter.  Every slab adds each piece's ramp-down and the
    trapezoid of each pair of its pieces, integrated exactly over offsets.
    """
    edges = _edges(source)
    moments = _SlabMoments(cfg.grid_points, d_max)
    for cos, sin, weight in _blocks(len(edges[0]), cfg):
        orient, p0, p1 = _slabs(edges[0], cos, sin)
        slab, start, end = _pieces(edges, cos, sin, orient, p0, p1)
        q = (weight[orient] * (p1 - p0))[slab]
        moments.add_down(end - start, q)
        i, k = _pairs(np.arange(1, len(slab) + 1), np.searchsorted(slab, slab, side="right"))
        _add_trapezoids(moments, start[:, i], end[:, i], start[:, k], end[:, k], q[i])
    grid = _grid(d_max, cfg.grid_points)
    values = (2.0 * grid / (area * area)) * moments.node_sums()
    return DensityCurve(d_max, values, meta or {})


def sweep_between(source_a, area_a: float, source_b, area_b: float,
                  d_max: float, cfg: KMConfig, meta: dict | None = None) -> DensityCurve:
    """Distance density between points of two interior-disjoint regions.

    Slabs run between the vertex projections of both regions; each pair of
    an A-piece and a B-piece in one slab adds its trapezoid.
    """
    edges_a, edges_b = _edges(source_a), _edges(source_b)
    points = np.vstack([edges_a[0], edges_b[0]])
    moments = _SlabMoments(cfg.grid_points, d_max)
    for cos, sin, weight in _blocks(len(points), cfg):
        orient, p0, p1 = _slabs(points, cos, sin)
        slab_a, start_a, end_a = _pieces(edges_a, cos, sin, orient, p0, p1)
        slab_b, start_b, end_b = _pieces(edges_b, cos, sin, orient, p0, p1)
        i, k = _pairs(np.searchsorted(slab_b, slab_a, side="left"),
                      np.searchsorted(slab_b, slab_a, side="right"))
        sa, ea, sb, eb = start_a[:, i], end_a[:, i], start_b[:, k], end_b[:, k]
        # disjoint pieces keep their order across a slab: compare midpoints
        a_first = sa[0] + sa[1] + ea[0] + ea[1] < sb[0] + sb[1] + eb[0] + eb[1]
        q = (weight[orient] * (p1 - p0))[slab_a[i]]
        _add_trapezoids(moments, np.where(a_first, sa, sb), np.where(a_first, ea, eb),
                        np.where(a_first, sb, sa), np.where(a_first, eb, ea), q)
    grid = _grid(d_max, cfg.grid_points)
    # one direction of shift only, hence d and not 2d (see module docstring)
    values = (grid / (area_a * area_b)) * moments.node_sums()
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
        meta=meta,
    )
