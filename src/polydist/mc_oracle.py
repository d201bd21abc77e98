"""Seeded Monte Carlo reference for distance distributions.

Samples independent uniform point pairs, builds empirical CDFs, and
measures sup-norm (KS) distances between curves.  Randomness comes from
counter-based Philox streams keyed by (seed, batch index), so results
are bit-identical for a given :class:`SampleConfig` no matter how the
batches are scheduled.
"""

from __future__ import annotations

import functools
import math
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
    """Pair count, seed, and pairs-per-stream batch size."""

    n_pairs: int = 50_000
    seed: int = 0
    batch: int = 250_000

    def __post_init__(self):
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


def sample_uniform_triangle(tri: Triangle, rng: np.random.Generator,
                            size: int | None = None) -> np.ndarray:
    """Uniform points in a triangle: u,v ~ U(0,1), reflected if u+v > 1."""
    m = 1 if size is None else size
    uv = rng.random((m, 2))
    over = uv.sum(axis=1) > 1.0
    uv[over] = 1.0 - uv[over]
    v = tri.vertices
    pts = v[0] + uv[:, :1] * (v[1] - v[0]) + uv[:, 1:] * (v[2] - v[0])
    return pts[0] if size is None else pts


def _fan_sampler(poly):
    """Sampler of uniform points in a simple polygon via area-weighted
    triangles; the polygon is triangulated once, here."""
    tris = triangulate(poly)
    areas = np.array([t.area for t in tris])
    weights = areas / areas.sum()
    v0, v1, v2 = (np.stack([t.vertices[k] for t in tris]) for k in range(3))

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.choice(len(weights), size=size, p=weights)
        uv = rng.random((size, 2))
        over = uv.sum(axis=1) > 1.0
        uv[over] = 1.0 - uv[over]
        return v0[idx] + uv[:, :1] * (v1[idx] - v0[idx]) + uv[:, 1:] * (v2[idx] - v0[idx])

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
                cand = outer(rng, size)
                out = np.vstack([out, cand[~in_hole(cand)]])
            return out[:size]

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
    chunks = []
    remaining = cfg.n_pairs
    index = 0
    while remaining > 0:
        m = min(cfg.batch, remaining)
        rng = _stream(cfg.seed, index)
        a = sample_a(rng, m)
        b = sample_b(rng, m)
        chunks.append(np.linalg.norm(a - b, axis=1))
        remaining -= m
        index += 1
    distances = np.concatenate(chunks)
    distances.sort(kind="stable")
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


def ks_distance(a, b) -> float:
    """Sup-norm distance between two CDFs.

    Checked at every sample point and grid node of both inputs, on both
    sides of each step discontinuity, which attains the supremum for
    piecewise linear and step functions.
    """
    points = np.union1d(_curve_points(a), _curve_points(b))
    a_lo, a_hi = _eval_both_sides(a, points)
    b_lo, b_hi = _eval_both_sides(b, points)
    # compare like limits with like: left-vs-left covers the approach to
    # each jump, right-vs-right the value at it
    gap = np.maximum(np.abs(a_hi - b_hi), np.abs(a_lo - b_lo))
    return float(gap.max())
