"""Distance distributions by integration over the line space.

The engine sweeps the invariant line measure dp dtheta (theta in [0, pi),
p the signed offset) over a region or a pair of regions.  A line crosses
edges e at positions t_e, entering the region (s_e = +1) or leaving it
(s_e = -1).  For d >= 0 the autocorrelation of its chords is

    A(d) = L - (n/2) d - sum_{e<f} s_e s_f (d - |t_f - t_e|)_+

(L the chord length, n the number of crossings), and the cross-correlation
of two interior-disjoint regions, over both directions of shift, is the
pair sum alone over e in A and f in B.  The lines' L integrate to pi S
and their n/2 to the perimeter P (Crofton), so the densities are
(2d/S^2) (pi S - P d - pair sum) within a region of area S and
(d/(S1 S2)) (- pair sum) between two; both integrate to 1.

A region with holes splits its pair sum by class: outer-outer OO,
hole-hole HH and outer-hole OH pairs, with the perimeter split as P_O and
P_H.  One sweep then gives four curves: the outer boundary's region
(OO, P_O), the holes (HH, P_H), holes to ring, whose pair sum
2 P_H d - 2 HH - OH pairs each hole edge with itself reversed, with the
other hole edges and with the outer edges, and the ring itself, whose
pair sum is all three classes and whose perimeter is P_O + P_H
(``sweep_ring``).

Loops are oriented with the interior on their left (outer boundaries
counter-clockwise, holes clockwise), so at one orientation an edge keeps
its sign over its whole offset range and crosses the lines at a position
affine in p.  Two edges interact only where their offset ranges overlap,
and there |t_f - t_e| is affine too, since region edges do not cross: the
p-integral of each pair's ramp is one closed-form piece, quadratic in d,
binned exactly per grid node.  Between two regions every edge of A may
meet every edge of B, so one broadcast mask over the A x B edge rectangle
of a block of orientations finds the overlapping pairs, with a few array
calls per block in place of a sort.  A region of few edges (a triangle, a
small polygon or ring, up to _MASK_EDGES) takes the same mask over its
own edge square: a triangle sweeps in one block.  A larger region, whose
n^2 candidates would outgrow its pairs (about one per edge and orientation
for a polygon), sorts its offset ranges once per block and enumerates only
the overlapping pairs with a range query.  The only discretization left is
the orientation rule (composite Gauss-Legendre); it integrates P too,
consistently with the pair terms.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geom import (
    ConvexClipper,
    SimplePolygon,
    Triangle,
    TrianglePairSpec,
    _next,
    _project,
    _signed_area,
)

NORMALIZATION_TOL = 5e-3
CDF_TAIL_MIN = 0.995
# Coarsest orientation step, radians (2 degrees).
D_THETA_MAX = math.pi / 90.0
# Most grid cells.  A sweep keeps four rows of n + 2 bins per curve it bins
# (four curves for a ring), and its peak memory grew by about 90 bytes a cell
# for a triangle's pdf and cdf and 330 for a ring's curves (ru_maxrss, 2^14 to
# 2^16 cells): about 100 and 350 MB at this bound, tens of GB at 10^8 cells.
GRID_POINTS_MAX = 1 << 20


class DiagnosticError(RuntimeError):
    """A numeric self-check failed (for example, resolution too coarse)."""


def _require_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a Python or numpy integer."""
    # bool is an int subclass, and a float would be truncated or fail in numpy
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class KMConfig:
    """Resolution settings for the line-measure sweep.

    d_theta   orientation step (radians): n = round(pi/d_theta)
              orientations, placed by a 4-point Gauss-Legendre rule on
              ceil(n/4) equal cells of [0, pi).
    d_p       unused: the sweep integrates offsets exactly.  Still
              accepted and validated, because acceptance test 7 passes
              it positionally and test 8 reads ``default.d_p``.
    grid_points  number N of grid cells, 50 <= N <= GRID_POINTS_MAX; curves
              carry N+1 samples at d_k = k * d_max / N.
    """

    d_theta: float = math.pi / 720.0
    d_p: float = 1.0 / 2000.0
    grid_points: int = 500

    def __post_init__(self):
        if not 0.0 < self.d_theta <= D_THETA_MAX:
            raise ValueError(f"d_theta must lie in (0, pi/90], got {self.d_theta}")
        if not 0.0 < self.d_p <= 1.0 / 200.0:
            raise ValueError(f"d_p must lie in (0, 1/200], got {self.d_p}")
        _require_integer("grid_points", self.grid_points)
        if not 50 <= self.grid_points <= GRID_POINTS_MAX:
            raise ValueError(f"grid_points must lie in [50, {GRID_POINTS_MAX}], "
                             f"got {self.grid_points}")


def _grid(d_max: float, n: int) -> np.ndarray:
    """The n + 1 nodes k * (d_max / n), the last set to d_max: the array
    np.linspace(0, d_max, n + 1) makes, without its call overhead."""
    grid = np.arange(n + 1) * (d_max / n)
    grid[-1] = d_max
    return grid


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
        vals = np.maximum(vals, 0.0)
        # np.trapezoid's sum, without its call overhead
        total = float((self.d_max / (len(vals) - 1) * (vals[1:] + vals[:-1]) / 2.0).sum())
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
        if float((vals[1:] - vals[:-1]).min(initial=0.0)) < -1e-9:
            raise DiagnosticError("cdf is decreasing beyond tolerance")
        if float(vals.min()) < -1e-12 or float(vals.max()) > 1.0 + 1e-9:
            raise DiagnosticError("cdf leaves [0, 1] beyond tolerance")
        final = float(vals[-1])
        if final < CDF_TAIL_MIN:
            raise DiagnosticError(
                f"cdf reaches only {final!r} at d_max; resolution or support wrong"
            )
        vals = np.maximum.accumulate(vals.clip(0.0, 1.0))
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> np.ndarray:
        return _grid(self.d_max, len(self.values) - 1)

    def evaluate(self, d) -> np.ndarray:
        return np.interp(d, self.grid, self.values, left=0.0, right=float(self.values[-1]))


def pdf_to_cdf(curve: DensityCurve, meta: dict | None = None) -> CdfCurve:
    """Cumulative trapezoid integration of a density curve, clamped to [0, 1].

    The CDF carries ``meta``, or a copy of the density's meta without it."""
    vals = curve.values
    dx = curve.d_max / (len(vals) - 1)
    cdf = np.zeros(len(vals))
    (0.5 * (vals[1:] + vals[:-1]) * dx).cumsum(out=cdf[1:])
    np.minimum(cdf, 1.0, out=cdf)
    return CdfCurve(curve.d_max, cdf, dict(curve.meta) if meta is None else meta)


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
    # one output array, worked in place: fall, then the rise, then the plateau
    out = np.asarray(l1 + l2 + l3 - d)
    np.minimum(out, d - l2, out=out)
    np.clip(out, 0.0, np.minimum(l1, l3), out=out)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Chord sources
# ---------------------------------------------------------------------------
#
# The sweeps read a source's ``loops``, each oriented once by its role:
# the interior lies left of every edge, and ``geom._project`` projects the
# edges at each orientation.  ``ConvexSource`` is no sweep input: it clips
# single lines (``chords``, ``support``) from the same projection, for
# checks of the line measure.


class ConvexSource:
    """Chords of a single convex region (triangle or convex polygon)."""

    def __init__(self, vertices):
        self._clipper = ConvexClipper(vertices)

    def support(self, theta: float) -> tuple[float, float]:
        return self._clipper.support(theta)

    def chords(self, theta: float, p: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        return [self._clipper.chord(theta, p)]


class UnionSource:
    """A union of interior-disjoint convex pieces, one counter-clockwise
    loop per piece.

    Pieces touching along shared edges need no merging: a shared edge
    crosses a line twice at one position, once entering and once leaving,
    and the correlation kernels are additive over a disjoint decomposition
    of the chord.
    """

    def __init__(self, pieces: Sequence):
        self.loops = [_oriented(p.vertices if isinstance(p, Triangle) else p, ccw=True)
                      for p in pieces]
        if not self.loops:
            raise ValueError("union source needs at least one piece")


class PolygonSource:
    """A polygon, given as its outer loop and any holes: the sweeps orient
    the first loop counter-clockwise and every later loop (a hole inside
    it) clockwise."""

    def __init__(self, *loops):
        if not loops:
            raise ValueError("polygon source needs at least one loop")
        self.loops = [_oriented(loop, ccw=k == 0) for k, loop in enumerate(loops)]


# A region minus a strictly interior hole: DifferenceSource(outer, hole).
DifferenceSource = PolygonSource


def _oriented(vertices, ccw: bool) -> np.ndarray:
    """A vertex loop, listed counter-clockwise if ``ccw``, else clockwise."""
    arr = np.asarray(vertices, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 3:
        raise ValueError(f"a loop needs an (n >= 3, 2) vertex array, got shape {arr.shape}")
    return arr if (_signed_area(arr) > 0.0) == ccw else arr[::-1]


def _edges(*sources) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points of every edge of the sources' loops."""
    loops = [loop for source in sources for loop in source.loops]
    return np.concatenate(loops), np.concatenate([_next(loop) for loop in loops])


# ---------------------------------------------------------------------------
# Exact per-node accumulation
# ---------------------------------------------------------------------------


class _SlabMoments:
    """Exact per-node sums of ramp-ups whose breakpoints move with the offset.

    A term (x, q) stands for q times the mean, over a range of offsets, of
    the ramp-up (d - x)_+, where the breakpoint x moves linearly from x[0]
    to x[1] across the range.  With lo, hi the smaller and larger end, the
    mean ramp-up is

        ((d - lo)_+^2 - (d - hi)_+^2) / (2 (hi - lo)),

    zero below lo, quadratic on [lo, hi] and linear, d - (lo + hi)/2,
    above.  Each quadratic piece is binned by its breakpoint as its three
    coefficients in d, and prefix sums evaluate every term at every node.
    When hi - lo < dx at most one node lies on the quadratic part: the term
    is binned as its linear limit and that node receives its exact value
    directly, which keeps the coefficients bounded by q / dx.

    The sums are stacked rows, one per entry of ``d_max``: row r sums its
    own terms over the n + 1 nodes of [0, d_max[r]].
    """

    def __init__(self, n: int, d_max):
        self.n = n
        self.dx = np.array(d_max, dtype=np.float64, ndmin=1) / n
        # rows: coefficients of d^2, d and 1; bin k of a sum's n + 2 bins holds
        # its terms active from node k on
        self._bins = np.zeros((3, len(self.dx) * (n + 2)))
        # exact values at single nodes, laid out like the bins
        self._direct = np.zeros(len(self.dx) * (n + 2))

    def add_up(self, x, q: np.ndarray, row: np.ndarray | None = None):
        """Bin the terms into the sum ``row[i]`` each, or all into the first.

        Temporaries are reused in place, which keeps a chunk's peak memory
        near the size of its terms."""
        dx = self.dx[0] if row is None else self.dx[row]
        m = len(q)
        ends = np.empty(2 * m)
        lo, hi = np.minimum(x[0], x[1], out=ends[:m]), np.maximum(x[0], x[1], out=ends[m:])
        width = hi - lo
        wide = width >= dx
        nodes = ends.reshape(2, -1) / dx
        # ends are |t_f - t_e| >= 0, so only the top bin clips
        np.minimum(np.ceil(nodes, out=nodes), self.n + 1, out=nodes)
        idx = nodes.astype(np.intp).ravel()
        if row is not None:
            ends_idx = idx.reshape(2, -1)  # a view: offsets both ends in place
            ends_idx += row * (self.n + 2)
        k_lo = idx[:m]
        # narrow terms with a node on their quadratic part; most chunks of a
        # triangle have none
        hit = ~wide & (k_lo != idx[m:])
        if hit.any():
            gap = lo[hit] - nodes[0][hit] * (dx if row is None else dx[hit])
            self._direct += np.bincount(k_lo[hit], weights=q[hit] * gap * gap / (2.0 * width[hit]),
                                        minlength=len(self._direct))
        del nodes
        # c (d - lo)^2 from lo's node on, minus c (d - hi)^2 from hi's node on;
        # narrow terms: the linear limit d - (lo + hi)/2 from hi's node on.
        # Each coefficient row is binned as soon as it is formed.
        coef = np.zeros(2 * m)
        np.divide(q, 2.0 * width, out=coef[:m], where=wide)
        np.negative(coef[:m], out=coef[m:])
        lin = np.where(wide, 0.0, q)
        d2, d1, d0 = self._bins
        d2 += np.bincount(idx, weights=coef, minlength=len(d2))
        scaled = np.multiply(coef, ends, out=coef)
        weights = -2.0 * scaled
        weights[m:] += lin
        d1 += np.bincount(idx, weights=weights, minlength=len(d1))
        weights = np.multiply(scaled, ends, out=weights)
        mid = np.add(lo, hi, out=width)
        weights[m:] -= np.multiply(lin, np.multiply(mid, 0.5, out=mid), out=mid)
        d0 += np.bincount(idx, weights=weights, minlength=len(d0))

    def node_sums(self) -> np.ndarray:
        """Weighted kernel sums at each node d_k (before any d prefactor),
        one row per sum."""
        n = self.n
        d = np.arange(n + 1) * self.dx[:, None]
        coef = np.cumsum(self._bins.reshape(3, -1, n + 2), axis=2)[:, :, : n + 1]
        direct = self._direct.reshape(-1, n + 2)[:, : n + 1]
        return d * d * coef[0] + d * coef[1] + coef[2] + direct


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# Orientations: composite 4-point Gauss-Legendre rule, nodes and weights on
# [-1, 1] (hardcoded: importing numpy.polynomial costs more than the rule).
_GAUSS_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                         0.3399810435848563, 0.8611363115940526])
_GAUSS_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                           0.6521451548625461, 0.3478548451374538])
# A range-query block of orientations projects about this many (orientation x edge)
# cells, and every sweep bins its edge pairs in chunks of about this many terms, about
# 0.6 MB in all.  At 8192 and 4096, glibc gave the heap back after each sweep: 500 page
# faults per half-step pair.  The bins add up each chunk's terms in pair order, so the
# pair order and the chunk boundaries fix the rounding of every curve: these constants,
# _BLOCK_CANDIDATES and _MASK_EDGES set the output bits.  Chunks of 8192 moved the
# rounding-level gap between two routes over one sum (about 5e-14 of a CDF) by -47% and
# +54% on two seeds of perfbench's polygon_mix.
_BLOCK_CELLS = 1 << 11
_BLOCK_TERMS = 1 << 11
# A mask block tests about this many candidates, one byte of mask each: orientations
# times A x B edges between two regions, or times n x n edges within a region of n.  A
# triangle's 720 orientations, or 1440 at half step, make one block, and so do a
# triangle pair's.
_BLOCK_CANDIDATES = 1 << 16
# A region of at most this many edges sweeps with the mask, a larger one with the range
# query.  The mask pays for all n^2 candidates, the range query for a sort of 2n keys
# and a few calls per pair chunk.  On regular n-gons (``_pair_sums``, best of 7, 2 vCPU,
# numpy 2.4) the two break even between 40 and 44 edges, at KMConfig() and at a 1 degree
# step (KMConfig(): 20 edges 3.29 ms mask, 5.28 ms range; 40: 9.62 against 10.08 ms;
# 44: 10.60 against 10.39 ms).  A 64-gon takes 21.9 ms with the mask and 15.1 ms with
# the range query, a 256-gon 234 against 46 ms.  The limit stays below that break-even:
# moving it would reorder the pair terms, and so change the rounding, of every region
# between the old and the new limit.  A triangle's ``within_triangle_pdf`` takes
# 0.55 ms with the mask and 1.1 ms with the range query.
_MASK_EDGES = 21


def _cells(cfg: KMConfig) -> int:
    """ceil(n/4) cells of the orientation rule, n = round(pi / d_theta)."""
    return -(-max(1, int(round(math.pi / cfg.d_theta))) // 4)


def _orientations(cfg: KMConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the orientation rule: ``_cells`` equal cells of
    [0, pi), four Gauss-Legendre nodes each."""
    cells = _cells(cfg)
    width = math.pi / cells
    theta = ((np.arange(cells)[:, None] + 0.5 * (1.0 + _GAUSS_NODES)) * width).ravel()
    return theta, np.tile(0.5 * width * _GAUSS_WEIGHTS, cells)


def _blocks(size: int, budget: int, cfg: KMConfig) -> tuple:
    """(exp(-i theta), weight) of the orientations, in equal blocks of about
    ``budget / size`` orientations each."""
    n_theta = 4 * _cells(cfg)
    return _rule_blocks(cfg, min(n_theta, -(-n_theta * size // budget)))


@functools.lru_cache(maxsize=64)
def _rule_blocks(cfg: KMConfig, n_blocks: int) -> tuple:
    """The orientation rule split into ``n_blocks`` read-only blocks."""
    theta, weight = _orientations(cfg)
    weight.flags.writeable = False
    blocks = []
    for th, w in zip(np.array_split(theta, n_blocks), np.array_split(weight, n_blocks)):
        rotation = np.exp(-1j * th)
        rotation.flags.writeable = False
        blocks.append((rotation, w))
    return tuple(blocks)


def _range_keys(table: np.ndarray, n_rows: int) -> np.ndarray:
    """Integer keys (lo, hi) of the offset ranges of a projected table.

    Keys order (orientation, offset) lexicographically and tie exactly where
    offsets tie, so one searchsorted answers a range query on every
    orientation at once.  A zero-width range gets a key above every offset
    of its orientation, so it overlaps nothing.
    """
    uniq, rank = np.unique(table[:2], return_inverse=True)
    rank = rank.reshape(2, -1)
    rank[:, table[0] == table[1]] = len(uniq)
    return rank + (len(uniq) + 1) * np.repeat(np.arange(n_rows), table.shape[1] // n_rows)


def _pairs(start: np.ndarray, end: np.ndarray):
    """All index pairs (i, k) with start[i] <= k < end[i], in chunks of
    about _BLOCK_TERMS pairs."""
    count = np.maximum(end - start, 0)
    total = np.cumsum(count)
    lo, done = 0, 0
    while done < total[-1]:
        hi = max(lo + 1, int(np.searchsorted(total, done + _BLOCK_TERMS, side="right")))
        c = count[lo:hi]
        i = np.repeat(np.arange(lo, hi), c)
        k = np.arange(len(i)) + np.repeat(start[lo:hi] - (np.cumsum(c) - c), c)
        yield i, k
        lo, done = hi, int(total[hi - 1])


def _overlaps(tab: np.ndarray, n_rows: int, n_a: int):
    """Index pairs (e, f) of the table's edges whose offset ranges overlap,
    each pair once, in chunks of about _BLOCK_TERMS pairs: e < f when the
    first ``n_a`` edges of each orientation are all its edges, else e
    among them (in A) and f among the rest (in B).

    A region of more than _MASK_EDGES edges finds the partners of each
    edge from the sorted range keys, at about one pair per edge.  Any
    other sweep tests its whole edge rectangle, A x B or the region's own
    n x n with e < f, with one broadcast mask and no sort.  The mask's
    pairs run edge-pair-major, orientation innermost, so that one pair's
    terms at neighbouring orientations are binned one after another: in
    orientation-major order the rounding of the vanishing-hole ring's F23
    against ``sweep_ring`` reached 1.7e-12 of its peak.  The bins add the
    terms in the order given here, so this order and the chunk grouping
    fix the rounding of every curve; a test pins the mask's sequence.
    """
    n = tab.shape[1] // n_rows
    if n_a == n > _MASK_EDGES:
        lo, hi = _range_keys(tab, n_rows)
        order = np.argsort(lo)
        # partners of the edge at sorted position i start later but below its hi
        for i, k in _pairs(np.arange(1, len(lo) + 1), np.searchsorted(lo[order], hi[order])):
            yield order[i], order[k]
        return
    # (edge, orientation) rows, so that the mask is laid out pair-major
    lo, hi = tab[:2].reshape(2, n_rows, n).transpose(0, 2, 1).copy()
    lo[lo == hi] = np.inf  # a zero-width range overlaps nothing
    # within one region f runs over every edge, and the mask keeps f > e
    b = n_a if n_a < n else 0
    later = np.arange(n)[:, None, None] < np.arange(n)[:, None] if b == 0 else None
    lo_b, hi_b = lo[None, b:], hi[None, b:]
    # slices of A keep the mask near _BLOCK_CANDIDATES when one orientation exceeds it
    step = max(1, _BLOCK_CANDIDATES // (n_rows * (n - b)))
    for first in range(0, n_a, step):
        a = slice(first, min(first + step, n_a))
        lo_a, hi_a = lo[a, None], hi[a, None]
        hit = (lo_a < hi_b) & (lo_b < hi_a)
        if later is not None:
            hit &= later[a]
        pair, row = np.divmod(np.flatnonzero(hit), n_rows)
        i, j = np.divmod(pair, n - b)
        e = row * n + first + i
        f = row * n + b + j
        for start in range(0, len(e), _BLOCK_TERMS):
            yield e[start:start + _BLOCK_TERMS], f[start:start + _BLOCK_TERMS]


def _pair_sums(edges, n_a: int, d_max: float, cfg: KMConfig,
               holes: np.ndarray | None = None, holes_d_max: float | None = None):
    """Node sums of -s_e s_f (d - |t_f - t_e|)_+ over the edge pairs whose
    offset ranges overlap, integrated over the common range and the
    orientation rule.  The first ``n_a`` edges form region A: with all
    edges in A the pairs are e < f, else e in A and f in B.

    With ``holes`` (per edge, 1 if it bounds a hole, else 0) the pairs of
    one region are binned by class, the number of hole edges in the pair,
    into rows 0 (outer-outer), 1 (outer-hole) and 2 (hole-hole); row 3
    holds the hole-hole pairs again on the grid over [0, holes_d_max].

    Returns the node sums (one row per class and grid), the perimeter as
    the rule integrates it (weight times half the edges' offset widths;
    outer and hole loops apart with ``holes``), and the counts of
    orientations and of pair terms binned.
    """
    n = len(edges[0])
    if holes is None:
        moments, perimeter = _SlabMoments(cfg.grid_points, d_max), 0.0
    else:
        moments = _SlabMoments(cfg.grid_points, [d_max, d_max, d_max, holes_d_max])
        perimeter = np.zeros(2)
    counts = {"orientations": 0, "pair_terms": 0}
    if n_a < n:
        blocks = _blocks(n_a * (n - n_a), _BLOCK_CANDIDATES, cfg)
    elif n <= _MASK_EDGES:
        blocks = _blocks(n * n, _BLOCK_CANDIDATES, cfg)
    else:
        blocks = _blocks(n, _BLOCK_CELLS, cfg)
    for rotation, weight in blocks:
        tab = _project(edges, rotation, weight)
        counts["orientations"] += len(weight)
        if holes is None:
            perimeter += 0.5 * float(np.abs(tab[5]) @ (tab[1] - tab[0]))
        else:
            side = np.tile(holes, len(weight))
            perimeter += 0.5 * np.bincount(side, np.abs(tab[5]) * (tab[1] - tab[0]), minlength=2)
        for e, f in _overlaps(tab, len(weight), n_a):
            counts["pair_terms"] += len(e)
            # gathered rows and terms are freed before binning and before the next chunk
            if holes is None:
                moments.add_up(*_pair_terms(tab, e, f))
            else:
                moments.add_up(*_by_class(*_pair_terms(tab, e, f), side[e] + side[f]))
    return moments.node_sums(), perimeter, counts


def _by_class(x, q: np.ndarray, row: np.ndarray):
    """Terms with their class rows, the hole-hole terms (row 2) repeated
    for row 3, the holes' own grid."""
    again = np.flatnonzero(row == 2)
    return ([np.concatenate([xi, xi[again]]) for xi in x], np.concatenate([q, q[again]]),
            np.concatenate([row, np.full(len(again), 3)]))


def _pair_terms(tab: np.ndarray, e: np.ndarray, f: np.ndarray):
    """|t_f - t_e| at both ends of the common offset range [p0, p1], and w s_e s_f (p0 - p1)."""
    lo_e, hi_e, t_e, slope_e, _, w_e = np.take(tab, e, axis=1)
    lo_f, hi_f, t_f, slope_f, s_f, _ = np.take(tab, f, axis=1)
    p0, p1 = np.maximum(lo_e, lo_f), np.minimum(hi_e, hi_f)
    x = [np.abs(t_f - t_e + slope_f * (p - lo_f) - slope_e * (p - lo_e)) for p in (p0, p1)]
    return x, w_e * s_f * (p0 - p1)


def sweep_within(source, area: float, d_max: float, cfg: KMConfig,
                 meta: dict | None = None) -> DensityCurve:
    """Distance density of two uniform points in one region.

    ``source`` provides the region's oriented loops; ``area`` its area;
    ``d_max`` its diameter.  ``meta`` is extended by the number of
    orientations swept and of edge-pair terms binned.
    """
    edges = _edges(source)
    (sums,), perimeter, counts = _pair_sums(edges, len(edges[0]), d_max, cfg)
    return DensityCurve(d_max, _within(area, perimeter, sums, d_max),
                        dict(meta or {}, **counts))


def _within(area: float, perimeter: float, sums: np.ndarray, d_max: float) -> np.ndarray:
    """Density (2d/S^2) (pi S - P d + pair sum) at the nodes over [0, d_max]."""
    grid = _grid(d_max, len(sums) - 1)
    return (2.0 * grid / (area * area)) * (math.pi * area - perimeter * grid + sums)


def sweep_between(source_a, area_a: float, source_b, area_b: float,
                  d_max: float, cfg: KMConfig, meta: dict | None = None) -> DensityCurve:
    """Distance density between points of two interior-disjoint regions:
    the pair sum over an edge of each."""
    n_a = sum(len(loop) for loop in source_a.loops)
    (sums,), _, counts = _pair_sums(_edges(source_a, source_b), n_a, d_max, cfg)
    grid = _grid(d_max, cfg.grid_points)
    # both directions of shift in one pair sum, hence d (see module docstring)
    values = (grid / (area_a * area_b)) * sums
    return DensityCurve(d_max, values, dict(meta or {}, **counts))


def sweep_ring(source, area_outer: float, area_holes: float, d_max: float,
               holes_d_max: float, cfg: KMConfig, meta: dict | None = None
               ) -> tuple[DensityCurve, DensityCurve, DensityCurve, DensityCurve]:
    """Distance densities of a region with holes, from one sweep of its loops.

    ``source`` is a ``PolygonSource(outer, *holes)``: the outer loop bounds
    a region of area S1 and diameter ``d_max``, the holes have total area
    S2 and diameter ``holes_d_max``, and the ring between them has area
    S3 = S1 - S2.  Each overlapping edge pair is binned once, as
    outer-outer (OO), outer-hole (OH) or hole-hole (HH), with the perimeter
    split as P_O and P_H.  Returns the densities

        within the outer region    (2d/S1^2) (pi S1 - P_O d + OO)
        within the holes           (2d/S2^2) (pi S2 - P_H d + HH)
        between holes and ring     (d/(S2 S3)) (2 P_H d - 2 HH - OH)
        within the ring            (2d/S3^2) (pi S3 - (P_O + P_H) d + OO + OH + HH)

    the second on the grid over [0, holes_d_max], where HH is binned a
    second time.  The third is the pair sum between the holes, listed
    counter-clockwise, and the ring: a hole edge against its own reversed
    copy gives 2 P_H d, against the other hole edges -2 HH, and against
    the outer edges -OH.  The fourth is ``sweep_within`` of the whole
    source, its pair sum split by class.  ``meta`` is extended as in
    ``sweep_within``.
    """
    edges = _edges(source)
    holes = (np.arange(len(edges[0])) >= len(source.loops[0])).astype(np.intp)
    (oo, oh, hh, hh_own), (p_o, p_h), counts = _pair_sums(
        edges, len(edges[0]), d_max, cfg, holes, holes_d_max)
    s1, s2 = area_outer, area_holes
    s3 = s1 - s2
    grid = _grid(d_max, cfg.grid_points)
    meta = dict(meta or {}, **counts)
    return (
        DensityCurve(d_max, _within(s1, p_o, oo, d_max), dict(meta)),
        DensityCurve(holes_d_max, _within(s2, p_h, hh_own, holes_d_max), dict(meta)),
        DensityCurve(d_max, (grid / (s2 * s3)) * (2.0 * p_h * grid - 2.0 * hh - oh), dict(meta)),
        DensityCurve(d_max, _within(s3, p_o + p_h, oo + oh + hh, d_max), meta),
    )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def within_triangle_pdf(triangle: Triangle, cfg: KMConfig | None = None) -> DensityCurve:
    """Density of the distance between two uniform points in a triangle."""
    cfg = cfg or KMConfig()
    meta = {"region": "triangle", "area": triangle.area}
    return sweep_within(PolygonSource(triangle.vertices), triangle.area, triangle.diameter,
                        cfg, meta=meta)


def within_convex_pdf(polygon: SimplePolygon | Triangle, cfg: KMConfig | None = None) -> DensityCurve:
    """Density of the distance between two uniform points in a convex polygon,
    integrated directly without triangulating."""
    cfg = cfg or KMConfig()
    if isinstance(polygon, Triangle):
        return within_triangle_pdf(polygon, cfg)
    if not polygon.is_convex():
        raise ValueError("within_convex_pdf needs a convex polygon")
    meta = {"region": "convex_polygon", "n_vertices": len(polygon.vertices),
            "area": polygon.area}
    return sweep_within(PolygonSource(polygon.vertices), polygon.area, polygon.diameter,
                        cfg, meta=meta)


def cross_pair_pdf(pair: TrianglePairSpec, cfg: KMConfig | None = None) -> DensityCurve:
    """Density of the distance between uniform points of two disjoint-interior
    triangles (shared side, shared vertex, or fully disjoint)."""
    cfg = cfg or KMConfig()
    meta = {"region": "triangle_pair", "kind": pair.kind, "areas": list(pair.areas)}
    return sweep_between(PolygonSource(pair.tri_a.vertices), pair.areas[0],
                         PolygonSource(pair.tri_b.vertices), pair.areas[1],
                         pair.max_distance, cfg, meta=meta)
