"""Seeded Monte Carlo reference for distance distributions.

Samples independent uniform point pairs, builds empirical CDFs, and
measures sup-norm (KS) distances between curves.  Randomness comes from
counter-based Philox streams keyed by (seed, batch index), so results
are bit-identical for a given :class:`SampleConfig` no matter how the
batches are scheduled.

One class, ``_Draws``, draws the points of every region: a triangle, a
simple polygon, or a ``geom.HollowRegion`` (an outer boundary with a
polygonal or disk hole strictly inside; the sweep's ``RingSpec`` is the
same class).  A point of any region but a bare triangle first draws its
triangle, an area-weighted key inverted through a guide table built once
per region.  Then a unit-square pair (u, w) is folded into the unit
triangle without a mask and mapped to v0 + u (v1 - v0) + w (v2 - v0).  A
hole drops the points that fall in it and redraws those still missing.

``_Draws`` reads the stream in two ways.  ``draw`` reads in order from one
generator: a round's triangle keys whole, then its pairs block by block.
It serves the ``sample_uniform_*`` functions and a holed region's batches.
``batch`` serves ``pdd_mc``.  A batch of m pairs lays out its stream as
region A's draws, then B's, and a region's m keys before its m pairs.
Each double takes one 64-bit word, so without a hole every part starts at
a known word offset, and ``batch`` opens one generator per part there.
``pdd_mc`` then works in blocks of ``_BLOCK_ROWS`` rows: a block of A's
points and the matching block of B's are mapped and differenced, and
their distances go straight into the output.  A holed region's word count
is known only when its retries end, so its batch is drawn whole by
``draw`` and the other region reads on from where it stopped.

Every seeded draw, and so every seeded output, is bit for bit what
``Generator.choice(p=...)``, a boolean-mask fold, one broadcast map,
``np.linalg.norm`` and a stable sort give; the tests keep that plain
formulation as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .geom import HollowRegion, SimplePolygon, Triangle, triangulate
from .km_engine import CdfCurve, _require_integer

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
            _require_integer(name, getattr(self, name))
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
        if bool((arr[1:] < arr[:-1]).any()):
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


def _part(seed: int, index: int, offset: int) -> np.random.Generator:
    """The stream of batch ``index``, keyed by (seed, index), read from its
    64-bit word ``offset`` on.

    Each double of ``Generator.random`` takes one word and Philox4x64 makes
    four words a counter step, so the generator skips ``offset // 4`` steps
    and discards the ``offset % 4`` doubles left over.
    """
    key = np.array([seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    return rng


# Rows per block of the point map.  Each part's draws fill one buffer,
# block after block, and a block's temporaries (64 KiB a column) stay
# under glibc's 128 KiB mmap threshold and in cache, so the heap hands the
# same pages back block after block; unblocked, every temporary of a call
# faults fresh pages in.
_BLOCK_ROWS = 8192


class _TriangleIndex:
    """Area-weighted triangle indices, exact and found without a search.

    For ``weights`` (one per triangle, T in all) the index of a key r in
    [0, 1) is ``searchsorted(cdf, r, side="right")``, with ``cdf`` the
    cumulative weights formed and normalized as ``Generator.choice(p=...)``
    forms them, so that ``cdf[-1] = 1.0``.  It is read off a guide table
    (Chen & Asau, 1974) built once, here.

    [0, 1) is cut into B = 2^j >= 4T buckets, so r B is exact and its floor
    is r's bucket b.  ``guide[b]`` counts the ``cdf`` values <= b / B, so
    every key of bucket b starts there, and each round ``k += cdf[k] <= r``
    moves a key on by one until it passes every value <= r; ``cdf[k] > r``
    then holds, since ``cdf[-1] = 1.0 > r``, and the key stays.  A key
    needs as many rounds as its bucket has ``cdf`` values strictly inside,
    so ``rounds`` is the most any bucket has: no pass searches, masks or
    checks whether a key still moves.
    """

    def __init__(self, weights: np.ndarray):
        cdf = np.cumsum(weights / weights.sum())
        self.cdf = cdf = cdf / cdf[-1]
        self.buckets = 1 << (4 * len(cdf) - 1).bit_length()
        edges = np.arange(self.buckets + 1) / self.buckets
        self.guide = np.searchsorted(cdf, edges[:-1], side="right")
        inside = np.searchsorted(cdf, edges[1:], side="left") - self.guide
        self.rounds = int(inside.max())

    def __call__(self, r: np.ndarray) -> np.ndarray:
        k = self.guide[(r * self.buckets).astype(np.intp)]
        for _ in range(self.rounds):
            k += self.cdf[k] <= r
        return k


def _map_block(uv, table, k=0):
    """Map unit-square draws ``uv`` (m, 2), in place, to points of triangles.

    Each row (u, w) is folded into the unit triangle (reflected through
    (1/2, 1/2) when u + w > 1) and mapped to (o + u e1) + w e2 of triangle
    ``k`` (one index per row, or one for all), read from the (6, T) affine
    ``table`` with rows o_x, o_y, e1_x, e1_y, e2_x, e2_y.  The fold takes no
    mask: with ``over`` 1.0 where u + w > 1 and 0.0 elsewhere,
    u' = |over - u| is 1 - u (> 0, as u < 1) where the row reflects and
    |-u| = u where it does not, the bits of a masked 1 - u; likewise for w.
    """
    over = (uv[:, 0] + uv[:, 1] > 1.0).astype(float)
    u = np.abs(over - uv[:, 0])
    w = np.abs(np.subtract(over, uv[:, 1], out=over), out=over)
    for c in range(2):
        # (o + u e1) + w e2, summed in place: + and * commute bit for bit.
        # One gather a coefficient: a (m, 6) gather of all six would be
        # one more block-sized temporary.  u and w hold the draws now, so
        # each coordinate goes straight back into uv.
        p = u * table[2 + c][k]
        p += table[c][k]
        p += w * table[4 + c][k]
        uv[:, c] = p
    return uv


def _read_blocks(rng: np.random.Generator, size: int, width: int):
    """Blocks of ``size`` draws, ``width`` to a row, from ``rng``, each
    filled into the same buffer in turn."""
    buf = np.empty((min(_BLOCK_ROWS, size), width))
    for lo in range(0, size, _BLOCK_ROWS):
        yield rng.random(out=buf[:size - lo])


class _Draws:
    """Uniform points of a triangle, a simple polygon or a ``HollowRegion``.

    The region (a hole's outer boundary) is triangulated once, here, into
    one (6, T) affine table.  A point takes 2 stream words, a unit-square
    pair, or 3 when an area-weighted triangle key comes first: every region
    but a bare ``Triangle`` draws keys.  A hole drops the points that fall
    in it, by rejection.
    """

    def __init__(self, region):
        if isinstance(region, HollowRegion):
            outer, self.in_hole = region.outer, region.hole.contains
        elif isinstance(region, (Triangle, SimplePolygon)):
            outer, self.in_hole = region, None
        else:
            raise TypeError(f"cannot sample region of type {type(region).__name__}")
        tris = triangulate(outer)
        v0, v1, v2 = (np.stack([t.vertices[k] for t in tris]) for k in range(3))
        self.table = np.concatenate([v0.T, (v1 - v0).T, (v2 - v0).T])
        self.index = None if isinstance(region, Triangle) else \
            _TriangleIndex(np.array([t.area for t in tris]))
        self.words = 2 if self.index is None else 3

    def _map(self, uv, keys):
        """A block of pairs mapped in place, with its block of triangle
        keys, or ``None`` when the region draws none.  The block's triangle
        indices are freed on return, before the hole test allocates."""
        return _map_block(uv, self.table, 0 if keys is None else self.index(keys))

    def draw(self, rng: np.random.Generator, size: int):
        """``size`` points read in order from ``rng``, and the number of
        words they took.

        Each round reads its keys whole, then its pairs block by block;
        each block is mapped, tested against the hole, and its kept rows
        are copied out.  A retry draws only the points still missing.
        """
        out, kept, words = np.empty((size, 2)), 0, 0
        while kept < size:
            missing = size - kept
            keys = None if self.index is None else rng.random(missing)
            words += self.words * missing
            for lo, uv in zip(range(0, missing, _BLOCK_ROWS), _read_blocks(rng, missing, 2)):
                pts = self._map(uv, None if keys is None else keys[lo:lo + _BLOCK_ROWS])
                if self.in_hole is not None:
                    pts = pts[~self.in_hole(pts)]
                out[kept:kept + len(pts)] = pts
                kept += len(pts)
        return out, words

    def batch(self, seed: int, index: int, offset: int, size: int):
        """Blocks of ``size`` points drawn from word ``offset`` of batch
        ``index``'s stream, and the word offset after them.

        Without a hole, the keys are read from ``offset`` on and the pairs
        from ``offset + size`` (from ``offset`` with no keys), each from its
        own generator, a block at a time.  A hole's batch is drawn whole.
        """
        if self.in_hole is not None:
            pts, words = self.draw(_part(seed, index, offset), size)
            return (pts[lo:lo + _BLOCK_ROWS] for lo in range(0, size, _BLOCK_ROWS)), offset + words
        pairs = _read_blocks(_part(seed, index, offset + (self.words - 2) * size), size, 2)
        keys = repeat(None) if self.index is None else \
            (r[:, 0] for r in _read_blocks(_part(seed, index, offset), size, 1))
        blocks = (self._map(uv, r) for r, uv in zip(keys, pairs))
        return blocks, offset + self.words * size


def sample_uniform_triangle(tri: Triangle, rng: np.random.Generator,
                            size: int | None = None) -> np.ndarray:
    """Uniform points in a triangle: u,v ~ U(0,1), reflected if u+v > 1."""
    pts = _Draws(tri).draw(rng, 1 if size is None else size)[0]
    return pts[0] if size is None else pts


def sample_uniform_polygon(poly: SimplePolygon, rng: np.random.Generator,
                           size: int | None = None) -> np.ndarray:
    """Uniform points in a simple polygon via area-weighted triangles."""
    pts = _Draws(poly).draw(rng, 1 if size is None else size)[0]
    return pts[0] if size is None else pts


def pdd_mc(region_a, region_b, cfg: SampleConfig | None = None) -> EmpiricalCdf:
    """Empirical CDF of the distance between one point in each region.

    ``region_a`` and ``region_b`` may be the same object: the two points
    of a pair are always drawn independently.  Each region is prepared
    (triangulated) once per call, not once per batch.  A batch's stream
    holds A's draws and then B's; each is read from its own offset, block
    by block, and each block of distances is written straight into the
    one n-sized array, which is then sorted in place.
    """
    cfg = cfg or SampleConfig()
    draws_a = _Draws(region_a)
    draws_b = draws_a if region_b is region_a else _Draws(region_b)
    distances = np.empty(cfg.n_pairs)
    for index, lo in enumerate(range(0, cfg.n_pairs, cfg.batch)):
        out = distances[lo:lo + cfg.batch]
        blocks_a, words_a = draws_a.batch(cfg.seed, index, 0, len(out))
        blocks_b, _ = draws_b.batch(cfg.seed, index, words_a, len(out))
        starts = range(0, len(out), _BLOCK_ROWS)
        for start, a, b in zip(starts, blocks_a, blocks_b):
            # sqrt(dx*dx + dy*dy), worked in place in A's block
            d = out[start:start + _BLOCK_ROWS]
            a -= b
            a *= a
            np.sqrt(np.add(a[:, 0], a[:, 1], out=d), out=d)
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
    which are its left limit and its value.  The samples are read in
    blocks, so no n-sized temporary is made.  The curve's nodes are then
    checked against the empirical left limit and value there.
    """
    x, n = ecdf.samples, ecdf.n
    gap = 0.0
    for start in range(0, n, _BLOCK_ROWS):
        g = curve.evaluate(x[start:start + _BLOCK_ROWS])
        i = np.arange(start, start + len(g))
        # max(|g - lo|, |g - hi|) = max(g - lo, hi - g) for lo < hi
        gap = max(gap, float((g - i / n).max()), float(((i + 1) / n - g).max()))
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
