"""Seeded Monte Carlo reference for distance distributions.

Samples independent uniform point pairs, builds empirical CDFs, and
measures sup-norm (KS) distances between curves.  Randomness comes from
counter-based Philox streams keyed by (seed, batch index), so results
are bit-identical for a given :class:`SampleConfig` no matter how the
batches are scheduled.

A point of a polygon first draws its triangle, an area-weighted index
found by inverting the cumulative weights; a point of a triangle skips
that draw.  Then a unit-square pair (u, w) is folded into the unit
triangle and mapped to v0 + u (v1 - v0) + w (v2 - v0), in row blocks of
a few thousand points so that no temporary outgrows the cache.  Distances
are sqrt(dx*dx + dy*dy).  Every seeded draw, and so every seeded output,
is bit for bit what ``Generator.choice(p=...)``, a boolean-mask fold, one
broadcast map, ``np.linalg.norm`` and a stable sort give; the tests keep
that plain formulation as the reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .geom import Disk, GeometryError, SimplePolygon, Triangle, check_ring, triangulate
from .km_engine import CdfCurve

__all__ = [
    "SampleConfig",
    "EmpiricalCdf",
    "HollowRegion",
    "sample_uniform_triangle",
    "sample_uniform_polygon",
    "pdd_mc",
    "ks_distance",
]


@dataclass(frozen=True)
class SampleConfig:
    """Pair count, seed, and pairs-per-stream batch size, all integers."""

    n_pairs: int = 50_000
    seed: int = 0
    batch: int = 250_000

    def __post_init__(self):
        for name in ("n_pairs", "seed", "batch"):
            value = getattr(self, name)
            # bool is an int subclass, and a float seed would be truncated
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_pairs < 1000:
            raise ValueError(f"n_pairs must be >= 1000, got {self.n_pairs}")
        if self.batch < 1:
            raise ValueError(f"batch must be positive, got {self.batch}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Right-continuous step CDF of a sorted sample of distances."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("samples must be a nonempty 1-d array")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("samples must be sorted ascending")
        object.__setattr__(self, "samples", arr)
        arr.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.samples)

    def evaluate(self, d) -> np.ndarray:
        """Fraction of samples <= d (0 before the first, 1 after the last)."""
        return np.searchsorted(self.samples, np.asarray(d, dtype=float),
                               side="right") / self.n

    def evaluate_left(self, d) -> np.ndarray:
        """Left limit: fraction of samples strictly below d."""
        return np.searchsorted(self.samples, np.asarray(d, dtype=float),
                               side="left") / self.n

    def density(self, d, half_width: float | None = None) -> np.ndarray:
        """Centered finite-difference density estimate.

        Window defaults to +-1% of the sample range upper end.
        """
        if half_width is None:
            half_width = 0.01 * float(self.samples[-1])
        d = np.asarray(d, dtype=float)
        return (self.evaluate(d + half_width) - self.evaluate(d - half_width)) \
            / (2.0 * half_width)


@dataclass(frozen=True)
class HollowRegion:
    """A polygon with an excluded hole (polygonal or an exact disk).

    A polygonal hole must lie strictly inside the outer polygon; a disk
    hole must leave some of it uncovered.
    """

    outer: SimplePolygon
    hole: Union[SimplePolygon, Disk]

    def __post_init__(self):
        if not isinstance(self.hole, Disk):
            check_ring(self.outer, self.hole)
        elif bool(self.hole.contains(self.outer.vertices).all()):
            # a disk is convex: holding every vertex, it covers the polygon
            raise GeometryError("disk hole covers the whole outer polygon")


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Rows per block of the point map.  A block's temporaries (64 KiB a
# column) stay under glibc's 128 KiB mmap threshold and in cache, so the
# heap hands the same pages back block after block; unblocked, every
# temporary of a call faults fresh pages in.
_BLOCK_ROWS = 8192


def _affine_columns(v0, v1, v2):
    """Each triangle's map (o, e1, e2) = (v0, v1 - v0, v2 - v0), one row
    per coordinate and one column per triangle: arrays of shape (2, T)."""
    return tuple(np.atleast_2d(a).T for a in (v0, v1 - v0, v2 - v0))


def _fold_and_map(uv, o, e1, e2, cdf=None, r=None):
    """Map unit-square draws ``uv`` (m, 2), in place, to points of triangles.

    Each row (u, w) is folded into the unit triangle (reflected through
    (1/2, 1/2) when u + w > 1) and mapped to (o + u e1) + w e2 of its
    triangle among the (2, T) affine columns: triangle
    ``searchsorted(cdf, r[i], side="right")`` for row i, or triangle 0
    when ``cdf`` is None.
    """
    for lo in range(0, len(uv), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        u, w = uv[rows, 0], uv[rows, 1]
        over = u + w > 1.0
        u = np.where(over, 1.0 - u, u)
        w = np.where(over, 1.0 - w, w)
        k = 0 if cdf is None else np.searchsorted(cdf, r[rows], side="right")
        for c in range(2):
            uv[rows, c] = o[c][k] + u * e1[c][k] + w * e2[c][k]
    return uv


def sample_uniform_triangle(tri: Triangle, rng: np.random.Generator,
                            size: int | None = None) -> np.ndarray:
    """Uniform points in a triangle: u,v ~ U(0,1), reflected if u+v > 1."""
    uv = rng.random((1 if size is None else size, 2))
    pts = _fold_and_map(uv, *_affine_columns(*tri.vertices))
    return pts[0] if size is None else pts


def _fan_sampler(poly):
    """Sampler of uniform points in a simple polygon via area-weighted
    triangles; the polygon is triangulated once, here.

    A point draws its triangle first, by inverting the cumulative area
    weights as ``Generator.choice(p=weights)`` does, and then its
    unit-square pair.
    """
    tris = triangulate(poly)
    areas = np.array([t.area for t in tris])
    cdf = np.cumsum(areas / areas.sum())
    cdf /= cdf[-1]
    cols = _affine_columns(*(np.stack([t.vertices[k] for t in tris]) for k in range(3)))

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        r = rng.random(size)  # the stream gives the triangle draws first
        return _fold_and_map(rng.random((size, 2)), *cols, cdf, r)

    return sample


def sample_uniform_polygon(poly: SimplePolygon, rng: np.random.Generator,
                           size: int | None = None) -> np.ndarray:
    """Uniform points in a simple polygon via area-weighted triangles."""
    pts = _fan_sampler(poly)(rng, 1 if size is None else size)
    return pts[0] if size is None else pts


def _sampler(region):
    """A function (rng, size) -> uniform points of the region."""
    if isinstance(region, Triangle):
        return functools.partial(sample_uniform_triangle, region)
    if isinstance(region, SimplePolygon):
        return _fan_sampler(region)
    if isinstance(region, HollowRegion):
        outer, in_hole = _fan_sampler(region.outer), region.hole.contains

        def sample(rng: np.random.Generator, size: int) -> np.ndarray:
            out = np.empty((0, 2))
            while len(out) < size:
                cand = outer(rng, size - len(out))
                out = np.vstack([out, cand[~in_hole(cand)]])
            return out

        return sample
    raise TypeError(f"cannot sample region of type {type(region).__name__}")


def pdd_mc(region_a, region_b, cfg: SampleConfig | None = None) -> EmpiricalCdf:
    """Empirical CDF of the distance between one point in each region.

    ``region_a`` and ``region_b`` may be the same object: the two points
    of a pair are always drawn independently.  Each region is prepared
    (triangulated) once per call, not once per batch.
    """
    cfg = cfg or SampleConfig()
    sample_a = _sampler(region_a)
    sample_b = sample_a if region_b is region_a else _sampler(region_b)
    distances = np.empty(cfg.n_pairs)
    for index, lo in enumerate(range(0, cfg.n_pairs, cfg.batch)):
        out = distances[lo:lo + cfg.batch]
        rng = _stream(cfg.seed, index)
        # sqrt(dx*dx + dy*dy), worked in place in the first sample's array
        d = sample_a(rng, len(out))
        d -= sample_b(rng, len(out))
        d *= d
        np.sqrt(np.add(d[:, 0], d[:, 1], out=out), out=out)
    distances.sort()
    return EmpiricalCdf(distances)


def _curve_points(curve) -> np.ndarray:
    if isinstance(curve, EmpiricalCdf):
        return curve.samples
    if isinstance(curve, CdfCurve):
        return curve.grid
    raise TypeError(f"cannot measure KS on {type(curve).__name__}")


def _eval_both_sides(curve, points: np.ndarray):
    """(left limit, right value) of the CDF at each point."""
    if isinstance(curve, EmpiricalCdf):
        return curve.evaluate_left(points), curve.evaluate(points)
    vals = curve.evaluate(points)
    return vals, vals


def _ks_curve_vs_samples(curve: CdfCurve, ecdf: EmpiricalCdf) -> float:
    """KS distance of a computed CDF G from an empirical one, by one merge
    of the two sorted inputs.

    At sample i the empirical CDF steps from i/n to (i+1)/n, so
    |G(x_i) - i/n| and |G(x_i) - (i+1)/n| cover both sides of every step;
    within a run of tied samples |G - t| is largest at the run's ends,
    which are its left limit and its value.  The curve's nodes are then
    checked against the empirical left limit and value there.
    """
    x, n = ecdf.samples, ecdf.n
    g = curve.evaluate(x)
    steps = np.arange(n + 1) / n
    # max(|g - lo|, |g - hi|) = max(g - lo, hi - g) for lo < hi
    gap = max(float((g - steps[:-1]).max()), float((steps[1:] - g).max()))
    nodes = curve.grid
    g = curve.evaluate(nodes)
    lo, hi = ecdf.evaluate_left(nodes), ecdf.evaluate(nodes)
    return max(gap, float(np.maximum(np.abs(g - hi), np.abs(g - lo)).max()))


def ks_distance(a, b) -> float:
    """Sup-norm distance between two CDFs.

    Checked at every sample point and grid node of both inputs, on both
    sides of each step discontinuity, which attains the supremum for
    piecewise linear and step functions.  A computed curve against an
    empirical CDF takes one merge of the two sorted inputs; any other
    pair is evaluated on the union of their points.
    """
    if isinstance(a, CdfCurve) and isinstance(b, EmpiricalCdf):
        return _ks_curve_vs_samples(a, b)
    if isinstance(a, EmpiricalCdf) and isinstance(b, CdfCurve):
        return _ks_curve_vs_samples(b, a)
    points = np.union1d(_curve_points(a), _curve_points(b))
    a_lo, a_hi = _eval_both_sides(a, points)
    b_lo, b_hi = _eval_both_sides(b, points)
    # compare like limits with like: left-vs-left covers the approach to
    # each jump, right-vs-right the value at it
    gap = np.maximum(np.abs(a_hi - b_hi), np.abs(a_lo - b_lo))
    return float(gap.max())
