"""Tests for the sampling oracle and the CDF distance."""

import math
import tracemalloc

import numpy as np
import pytest

from polydist import (
    CdfCurve,
    EmpiricalCdf,
    HollowRegion,
    KMConfig,
    SampleConfig,
    SimplePolygon,
    Triangle,
    canonicalize_triangle,
    ks_distance,
    pdd_mc,
    pdf_to_cdf,
    triangulate,
    within_triangle_pdf,
)
from polydist.geom import Disk, GeometryError
from polydist.mc_oracle import (
    _BLOCK_ROWS,
    _TriangleIndex,
    sample_uniform_polygon,
    sample_uniform_triangle,
)

from shapes import benchmark_star, regular_polygon, square

RIGHT = Triangle.from_vertices((0, 0), (1, 0), (0, 1))


# The sampling formulas written out plainly: a triangle index from
# Generator.choice, the unit-square fold by boolean-mask assignment, one
# broadcast (m, 2) map, np.linalg.norm and a stable sort.  pdd_mc must give
# exactly these draws: a seeded run is reproducible across versions.


def _reference_triangle(v, rng, size):
    uv = rng.random((size, 2))
    over = uv.sum(axis=1) > 1.0
    uv[over] = 1.0 - uv[over]
    return v[0] + uv[:, :1] * (v[1] - v[0]) + uv[:, 1:] * (v[2] - v[0])


def _reference_fan(poly):
    tris = triangulate(poly)
    areas = np.array([t.area for t in tris])
    weights = areas / areas.sum()
    v0, v1, v2 = (np.stack([t.vertices[k] for t in tris]) for k in range(3))

    def sample(rng, size):
        idx = rng.choice(len(weights), size=size, p=weights)
        uv = rng.random((size, 2))
        over = uv.sum(axis=1) > 1.0
        uv[over] = 1.0 - uv[over]
        return v0[idx] + uv[:, :1] * (v1[idx] - v0[idx]) + uv[:, 1:] * (v2[idx] - v0[idx])

    return sample


def _reference_sampler(region):
    if isinstance(region, Triangle):
        return lambda rng, size: _reference_triangle(region.vertices, rng, size)
    if isinstance(region, SimplePolygon):
        return _reference_fan(region)
    outer = _reference_fan(region.outer)

    def sample(rng, size):
        out = np.empty((0, 2))
        while len(out) < size:
            cand = outer(rng, size - len(out))
            out = np.vstack([out, cand[~region.hole.contains(cand)]])
        return out

    return sample


def _reference_pdd_mc(region_a, region_b, cfg):
    sample_a, sample_b = _reference_sampler(region_a), _reference_sampler(region_b)
    chunks = []
    for index, lo in enumerate(range(0, cfg.n_pairs, cfg.batch)):
        m = min(cfg.batch, cfg.n_pairs - lo)
        key = np.array([cfg.seed, index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        a = sample_a(rng, m)
        b = sample_b(rng, m)
        chunks.append(np.linalg.norm(a - b, axis=1))
    distances = np.concatenate(chunks)
    distances.sort(kind="stable")
    return distances


def _barycentric_inside(tri, pts):
    """Which points lie in the triangle, up to roundoff at its sides."""
    v = tri.vertices
    d = pts - v[0]
    e1, e2 = v[1] - v[0], v[2] - v[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    u = (d[:, 0] * e2[1] - d[:, 1] * e2[0]) / det
    w = (e1[0] * d[:, 1] - e1[1] * d[:, 0]) / det
    return (u >= -1e-12) & (w >= -1e-12) & (u + w <= 1.0 + 1e-12)


def test_sample_config_validation():
    cfg = SampleConfig()
    assert cfg.n_pairs == 50_000
    assert cfg.batch == 250_000
    with pytest.raises(ValueError):
        SampleConfig(n_pairs=999)
    with pytest.raises(ValueError):
        SampleConfig(batch=0)
    with pytest.raises(ValueError):
        SampleConfig(seed=2**64)
    with pytest.raises(ValueError):
        SampleConfig(seed=-1)
    SampleConfig(seed=2**64 - 1)  # top of the admissible range


def test_sample_config_requires_integers():
    # a float seed used to run the truncated seed's stream; float counts
    # passed validation and then failed inside numpy
    for bad in ({"seed": 1.5}, {"seed": 1.0}, {"n_pairs": 2000.5},
                {"batch": 500.5}, {"batch": True}, {"seed": "1"}):
        with pytest.raises(ValueError, match="must be an integer"):
            SampleConfig(**bad)
    cfg = SampleConfig(n_pairs=np.int64(2000), seed=np.uint64(7), batch=np.int32(500))
    assert pdd_mc(RIGHT, RIGHT, cfg).n == 2000


# ---------------------------------------------------------------------------
# Point samplers
# ---------------------------------------------------------------------------


def test_triangle_sampler_uniformity():
    rng = np.random.default_rng(2718)
    pts = sample_uniform_triangle(RIGHT, rng, size=1_000_000)
    # containment (up to roundoff at the hypotenuse)
    assert pts.min() >= 0.0
    assert pts.sum(axis=1).max() <= 1.0 + 1e-12
    # E[x] = 1/3, Var[x] = 1/18: three-sigma band for 10^6 draws
    sigma3 = 3.0 * math.sqrt(1.0 / 18.0 / 1e6)
    assert abs(pts[:, 0].mean() - 1.0 / 3.0) < sigma3
    assert abs(pts[:, 1].mean() - 1.0 / 3.0) < sigma3


def test_triangle_sampler_scalar_mode():
    rng = np.random.default_rng(1)
    p = sample_uniform_triangle(RIGHT, rng)
    assert p.shape == (2,)
    ref = _reference_triangle(RIGHT.vertices, np.random.default_rng(1), 1)
    np.testing.assert_array_equal(p, ref[0])


def test_samplers_across_block_boundaries():
    # the point map works in row blocks: sizes on either side of a block
    # edge must give the reference formulas' points, inside the triangles
    poly = SimplePolygon.from_vertices([(0, 0), (3, 0), (3, 1), (1, 0.5), (0, 2)])
    tris = triangulate(poly)
    for size in (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1):
        pts = sample_uniform_triangle(RIGHT, np.random.default_rng(size), size)
        ref = _reference_triangle(RIGHT.vertices, np.random.default_rng(size), size)
        assert pts.shape == (size, 2)
        np.testing.assert_array_equal(pts, ref)
        assert pts.min() >= 0.0 and pts.sum(axis=1).max() <= 1.0 + 1e-12

        pts = sample_uniform_polygon(poly, np.random.default_rng(size), size)
        ref = _reference_fan(poly)(np.random.default_rng(size), size)
        assert pts.shape == (size, 2)
        np.testing.assert_array_equal(pts, ref)
        inside = np.zeros(size, dtype=bool)
        for tri in tris:
            inside |= _barycentric_inside(tri, pts)
        assert inside.all()


class _Rows:
    """A stand-in generator whose ``random`` hands out the given rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def random(self, shape=None, out=None):
        if out is None:
            assert shape == self.rows.shape
            return self.rows.copy()
        assert out.shape == self.rows.shape
        out[...] = self.rows
        return out


def test_fold_matches_boolean_mask_fold_bit_for_bit():
    # on the right triangle the map is the identity, so the points are the
    # folded rows themselves, compared as bits (a -0.0 would show)
    eps = 2.0 ** -53
    rows = np.array([
        [0.25, 0.75], [0.5, 0.5],  # u + w == 1.0 exactly: not reflected
        [0.5, 0.5 + 2 * eps],  # u + w is the next double above 1
        [0.0, 0.3], [0.0, 1 - eps], [0.0, 0.0],  # u = 0
        [0.7, 0.0], [1 - eps, 0.0],  # w = 0
        [1 - eps, eps],  # sums to 1.0 exactly
        [1 - eps, 1 - eps], [0.6, 0.7],
    ])
    sums = rows.sum(axis=1)
    assert sums[0] == sums[1] == sums[8] == 1.0
    assert sums[2] == np.nextafter(1.0, 2.0)
    got = sample_uniform_triangle(RIGHT, _Rows(rows), len(rows))
    ref = _reference_triangle(RIGHT.vertices, _Rows(rows), len(rows))
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
    reflected = sums > 1.0
    assert np.flatnonzero(reflected).tolist() == [2, 9, 10]
    np.testing.assert_array_equal(got[~reflected].view(np.uint64),
                                  rows[~reflected].view(np.uint64))
    np.testing.assert_array_equal(got[reflected], 1.0 - rows[reflected])


@pytest.mark.parametrize("weights, rounds", [
    (np.ones(4), 0),  # cumulative values 1/4, 1/2, 3/4 on bucket edges
    (np.ones(64), 0),
    (np.array([0.3, 1.7, 2.0, 0.5, 1.5]), 1),
    (np.concatenate([[0.3], np.full(60, 1e-12), [1.0]]), 61),  # 61 values in one bucket
    ("star200", 2),
], ids=["equal-4", "equal-64", "unequal-5", "tiny-run", "star200"])
def test_triangle_index_matches_searchsorted(weights, rounds):
    if isinstance(weights, str):
        weights = np.array([t.area for t in triangulate(benchmark_star(200, 19))])
        assert len(weights) == 198
    index = _TriangleIndex(weights)
    # the cumulative weights as Generator.choice forms them
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    np.testing.assert_array_equal(index.cdf, cdf)
    assert index.buckets >= 4 * len(weights)
    assert index.rounds == rounds
    edges = np.arange(index.buckets) / index.buckets
    keys = np.concatenate([cdf, edges, [0.0, 1.0 - 2.0 ** -53],
                           np.random.default_rng(7).random(20_000)])
    keys = np.concatenate([keys, np.nextafter(keys, 0.0), np.nextafter(keys, 1.0)])
    keys = keys[(keys >= 0.0) & (keys < 1.0)]
    np.testing.assert_array_equal(index(keys), np.searchsorted(cdf, keys, side="right"))


def test_polygon_sampler_squares_means():
    rng = np.random.default_rng(99)
    pts = sample_uniform_polygon(square(0.5), rng, size=100_000)
    assert np.abs(pts).max() <= 0.5 + 1e-12
    sigma3 = 3.0 * math.sqrt(1.0 / 12.0 / 1e5)
    assert abs(pts[:, 0].mean()) < sigma3
    assert abs(pts[:, 1].mean()) < sigma3


def test_polygon_sampler_respects_area_weights():
    # fan triangles of this quadrilateral have unequal areas; bin the draws
    # by containing triangle and compare with the multinomial expectation
    poly = SimplePolygon.from_vertices([(0, 0), (3, 0), (3, 1), (0, 2)])
    tris = triangulate(poly)
    rng = np.random.default_rng(31337)
    n = 200_000
    pts = sample_uniform_polygon(poly, rng, size=n)
    total = sum(t.area for t in tris)
    remaining = np.ones(n, dtype=bool)
    for tri in tris:
        inside = remaining & _barycentric_inside(tri, pts)
        frac = tri.area / total
        sigma = math.sqrt(frac * (1.0 - frac) / n)
        assert abs(inside.sum() / n - frac) < 4.0 * sigma
        remaining &= ~inside
    assert remaining.sum() == 0


def test_polygon_sampler_single_triangle_reduction():
    # a triangular polygon must reproduce the plain triangle distribution
    # (the draws differ because the fan chooser still consumes randomness,
    # so compare summary statistics, not bits)
    poly = SimplePolygon.from_vertices(RIGHT.vertices)
    assert len(triangulate(poly)) == 1
    pts = sample_uniform_polygon(poly, np.random.default_rng(4), size=200_000)
    assert pts.min() >= 0.0
    assert pts.sum(axis=1).max() <= 1.0 + 1e-12
    sigma3 = 3.0 * math.sqrt(1.0 / 18.0 / 2e5)
    assert abs(pts[:, 0].mean() - 1.0 / 3.0) < sigma3
    assert abs(pts[:, 1].mean() - 1.0 / 3.0) < sigma3


# ---------------------------------------------------------------------------
# Distance sampling
# ---------------------------------------------------------------------------

STAR = SimplePolygon.from_vertices([
    (math.cos(math.pi * k / 7) * (1.0 if k % 2 == 0 else 0.45),
     math.sin(math.pi * k / 7) * (1.0 if k % 2 == 0 else 0.45)) for k in range(14)
])


FAR = Triangle.from_vertices((3.0, 0.0), (4.1, 0.3), (3.3, 1.7))
POLYGON_HOLE = HollowRegion(square(0.5), square(0.3, center=(0.05, -0.02)))
TRIANGLE_HOLE = HollowRegion(Triangle.from_vertices((-1, -1), (2, -1), (-1, 2)),
                             Disk((0.0, 0.0), 0.4))


@pytest.mark.parametrize("region_a, region_b, batch", [
    (RIGHT, RIGHT, 9_000),
    (RIGHT, FAR, 9_000),
    (STAR, STAR, 9_000),
    (POLYGON_HOLE, POLYGON_HOLE, 9_000),
    (HollowRegion(STAR, Disk((0.0, 0.0), 0.3)),) * 2 + (9_000,),
    # each part of a batch is read from its own word offset of the stream;
    # with 9001 pairs a batch, the parts start at 1, 2 and 3 mod 4 words
    # (B after a triangle at 18002, a polygon's pairs at 9001 and B after
    # it at 27003, the last batch's parts at 1998 and 5994)
    (RIGHT, FAR, 9_001),
    (STAR, FAR, 9_001),
    (FAR, STAR, 9_001),
    (STAR, FAR, 9_000),
    (POLYGON_HOLE, FAR, 9_001),
    (FAR, POLYGON_HOLE, 9_001),
    # a triangle as the outer boundary of a hole still draws triangle keys
    (TRIANGLE_HOLE, FAR, 9_001),
], ids=["triangle", "triangle-pair", "star", "polygon-hole", "disk-hole",
        "triangle-pair-9001", "star-triangle-9001", "triangle-star-9001",
        "star-triangle", "polygon-hole-triangle-9001", "triangle-polygon-hole-9001",
        "triangle-disk-hole-triangle-9001"])
def test_pdd_mc_draws_match_reference_formulas(region_a, region_b, batch):
    # three batches (neither 9000 nor 9001 divides 20000), the first two
    # spanning a block edge of the point map
    cfg = SampleConfig(n_pairs=20_000, seed=4242, batch=batch)
    got = pdd_mc(region_a, region_b, cfg).samples
    np.testing.assert_array_equal(got, _reference_pdd_mc(region_a, region_b, cfg))


def test_stream_parts_start_at_any_word_offset():
    from polydist.mc_oracle import _part

    key = np.array([99, 5], dtype=np.uint64)
    whole = np.random.Generator(np.random.Philox(key=key)).random(2_000)
    for offset in (0, 1, 2, 3, 4, 5, 400, 401, 402, 403, 1_001):
        np.testing.assert_array_equal(_part(99, 5, offset).random(300),
                                      whole[offset:offset + 300])


def test_pdd_mc_and_ks_keep_one_n_sized_array():
    # 200k distances take 1.6 MB; the points are drawn, mapped and
    # differenced a block at a time, and the KS merge reads the samples in
    # blocks, so neither call holds another n-sized array.  A region with a
    # hole keeps each batch's points (3.2 MB a region) and one retry's
    # triangle keys (1.6 MB), and tests the hole a block at a time.
    tri = canonicalize_triangle(angles=np.radians([80.0, 70.0, 30.0]))
    curve = pdf_to_cdf(within_triangle_pdf(tri, KMConfig(math.pi / 360, 1 / 400, 200)))
    cfg = SampleConfig(n_pairs=200_000, seed=5)
    for region, draw_max in ((STAR, 2.5e6), (POLYGON_HOLE, 12e6)):
        pdd_mc(region, region, SampleConfig(n_pairs=1000, seed=5))  # warm numpy's lazy imports
        tracemalloc.start()
        try:
            ecdf = pdd_mc(region, region, cfg)
            draw_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ks_distance(curve, ecdf)
            ks_peak = tracemalloc.get_traced_memory()[1]  # the samples included
        finally:
            tracemalloc.stop()
        assert draw_peak < draw_max
        assert ks_peak < 2.5e6


def test_pdd_mc_is_deterministic():
    eq = canonicalize_triangle(angles=np.full(3, math.pi / 3))
    cfg = SampleConfig(n_pairs=5000, seed=12345)
    first = pdd_mc(eq, eq, cfg)
    second = pdd_mc(eq, eq, cfg)
    np.testing.assert_array_equal(first.samples, second.samples)

    multi = SampleConfig(n_pairs=5000, seed=12345, batch=1000)
    third = pdd_mc(eq, eq, multi)
    fourth = pdd_mc(eq, eq, multi)
    np.testing.assert_array_equal(third.samples, fourth.samples)
    # different batching reshuffles the streams but keeps the count
    assert third.n == first.n


def test_pdd_mc_seed_changes_draws():
    eq = canonicalize_triangle(angles=np.full(3, math.pi / 3))
    a = pdd_mc(eq, eq, SampleConfig(n_pairs=2000, seed=1))
    b = pdd_mc(eq, eq, SampleConfig(n_pairs=2000, seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_pdd_mc_support_bounds():
    eq = canonicalize_triangle(angles=np.full(3, math.pi / 3))
    ecdf = pdd_mc(eq, eq, SampleConfig(n_pairs=20_000, seed=7))
    assert ecdf.n == 20_000
    assert ecdf.samples[0] >= 0.0
    assert ecdf.samples[-1] <= 1.0  # diameter of the unit equilateral

    far = Triangle.from_vertices((11, 0), (12, 0), (11, 1))
    apart = pdd_mc(RIGHT, far, SampleConfig(n_pairs=5000, seed=8))
    assert apart.samples[0] >= 10.0
    assert apart.samples[-1] <= math.sqrt(145.0)


def test_pdd_mc_matches_sweep():
    eq = canonicalize_triangle(angles=np.full(3, math.pi / 3))
    cdf = pdf_to_cdf(within_triangle_pdf(eq, KMConfig(math.pi / 360, 1 / 400, 200)))
    ecdf = pdd_mc(eq, eq, SampleConfig(n_pairs=50_000, seed=9001))
    assert ks_distance(cdf, ecdf) < 0.01


def test_independent_runs_agree():
    # two-sample KS between independent 50k runs; 0.015 sits well above the
    # 99.99% two-sample quantile ~ 1.95 * sqrt(2/n)
    eq = canonicalize_triangle(angles=np.full(3, math.pi / 3))
    a = pdd_mc(eq, eq, SampleConfig(n_pairs=50_000, seed=555))
    b = pdd_mc(eq, eq, SampleConfig(n_pairs=50_000, seed=556))
    assert ks_distance(a, b) < 0.015


# ---------------------------------------------------------------------------
# Empirical CDF and KS distance
# ---------------------------------------------------------------------------


def test_empirical_cdf_steps():
    ecdf = EmpiricalCdf(np.array([0.2, 0.4]))
    assert ecdf.evaluate(0.1) == 0.0
    assert ecdf.evaluate(0.2) == 0.5
    assert ecdf.evaluate_left(0.2) == 0.0
    assert ecdf.evaluate(0.3) == 0.5
    assert ecdf.evaluate(0.4) == 1.0
    assert ecdf.evaluate(9.9) == 1.0
    with pytest.raises(ValueError):
        EmpiricalCdf(np.array([0.4, 0.2]))
    with pytest.raises(ValueError):
        EmpiricalCdf(np.array([]))


def test_empirical_cdf_rejects_non_finite_samples():
    # NaN compares false both ways, so the sortedness check alone let it in
    for bad in ([0.1, 0.2, np.nan], [np.nan], [0.1, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalCdf(np.array(bad))


def test_density_estimator_window():
    ecdf = EmpiricalCdf(np.linspace(0.0, 1.0, 100_001))  # uniform on [0, 1]
    assert float(ecdf.density(0.5, 0.05)) == pytest.approx(1.0, abs=1e-3)
    # default window is 1% of the sample maximum
    assert float(ecdf.density(0.5)) == pytest.approx(1.0, abs=1e-3)


def test_ks_distance_identities():
    grid = np.linspace(0.0, 1.2, 121)
    uniform = CdfCurve(1.2, np.clip(grid, 0.0, 1.0))
    shifted = CdfCurve(1.2, np.clip(grid - 0.1, 0.0, 1.0))
    assert ks_distance(uniform, uniform) == 0.0
    assert ks_distance(uniform, shifted) == pytest.approx(0.1)
    assert ks_distance(shifted, uniform) == ks_distance(uniform, shifted)

    ecdf = EmpiricalCdf(np.array([0.2, 0.4]))
    assert ks_distance(ecdf, ecdf) == 0.0
    # uniform vs the two-step CDF: biggest gap is at 0.4 where the step
    # jumps to 1 while the line reads 0.4
    gap = ks_distance(uniform, ecdf)
    assert gap == pytest.approx(0.6, abs=1e-9)


def _reference_ks(a, b):
    """KS distance on the sorted union of both inputs' points, each CDF
    evaluated there on both sides of its steps: the plain formulation
    that ks_distance must reproduce exactly."""

    def points(c):
        return c.samples if isinstance(c, EmpiricalCdf) else c.grid

    def sides(c, x):
        if isinstance(c, EmpiricalCdf):
            return c.evaluate_left(x), c.evaluate(x)
        return c.evaluate(x), c.evaluate(x)

    x = np.union1d(points(a), points(b))
    (a_lo, a_hi), (b_lo, b_hi) = sides(a, x), sides(b, x)
    return float(np.maximum(np.abs(a_hi - b_hi), np.abs(a_lo - b_lo)).max())


def test_ks_distance_matches_union_reference():
    tri = canonicalize_triangle(angles=np.radians([80.0, 70.0, 30.0]))
    cdf = pdf_to_cdf(within_triangle_pdf(tri, KMConfig(math.pi / 360, 1 / 400, 200)))
    ecdf = pdd_mc(tri, tri, SampleConfig(n_pairs=200_000, seed=31))
    # rounding to 3 decimals leaves runs of up to hundreds of tied samples
    tied = EmpiricalCdf(np.round(ecdf.samples, 3))
    assert np.diff(tied.samples).min() == 0.0
    # a few samples past the curve's last node, read against its right fill
    past = EmpiricalCdf(np.concatenate([ecdf.samples[:-50], np.linspace(1.0, 1.3, 50)]))
    other = pdd_mc(tri, tri, SampleConfig(n_pairs=20_000, seed=32))
    coarse = pdf_to_cdf(within_triangle_pdf(tri, KMConfig(math.pi / 180, 1 / 400, 73)))
    for a, b in [(cdf, ecdf), (ecdf, cdf), (cdf, tied), (tied, cdf), (cdf, past),
                 (coarse, tied), (ecdf, other), (tied, other), (cdf, coarse)]:
        assert ks_distance(a, b) == _reference_ks(a, b)
    assert ks_distance(cdf, tied) != ks_distance(cdf, ecdf)


def test_ks_distance_rejects_unknown_types():
    with pytest.raises(TypeError):
        ks_distance(np.linspace(0, 1, 5), np.linspace(0, 1, 5))


# ---------------------------------------------------------------------------
# Hollow regions
# ---------------------------------------------------------------------------


def test_hollow_region_polygon_hole():
    region = HollowRegion(square(0.5), square(0.3))
    cfg = SampleConfig(n_pairs=5000, seed=77)
    ecdf = pdd_mc(region, region, cfg)
    assert ecdf.n == 5000
    again = pdd_mc(region, region, cfg)
    np.testing.assert_array_equal(ecdf.samples, again.samples)

    rng = np.random.default_rng(0)
    from polydist.mc_oracle import _Draws

    pts, _ = _Draws(region).draw(rng, 50_000)
    assert np.abs(pts).max() <= 0.5 + 1e-12
    inside_hole = (np.abs(pts[:, 0]) < 0.3) & (np.abs(pts[:, 1]) < 0.3)
    assert not inside_hole.any()


def test_hollow_region_disk_hole():
    outer = regular_polygon(6, side=1.0)
    region = HollowRegion(outer, Disk((0.0, 0.0), 0.7))
    from polydist.mc_oracle import _Draws

    pts, _ = _Draws(region).draw(np.random.default_rng(3), 50_000)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert r.min() >= 0.7
    assert outer.contains(pts).all()


def test_hollow_region_rejects_holes_that_leave_no_region():
    # a disk covering the outer polygon would leave the sampler's rejection
    # loop without a point to accept
    with pytest.raises(GeometryError, match="disk hole must lie strictly inside"):
        HollowRegion(square(0.5, center=(0.5, 0.5)), Disk((0.5, 0.5), 5.0))
    with pytest.raises(GeometryError):
        HollowRegion(square(0.5), square(0.3, center=(0.4, 0.0)))  # pokes out
    with pytest.raises(GeometryError):
        HollowRegion(square(0.3), square(0.5))  # swallows the outer


def test_sample_region_rejects_unknown():
    from polydist.mc_oracle import _Draws

    with pytest.raises(TypeError):
        _Draws("not a region")


def test_pdd_mc_triangulates_each_region_once(monkeypatch):
    from polydist import mc_oracle

    calls = []

    def counting(poly):
        calls.append(poly)
        return triangulate(poly)

    monkeypatch.setattr(mc_oracle, "triangulate", counting)
    hexagon = regular_polygon(6, side=1.0)
    hollow = HollowRegion(square(0.5), square(0.3))
    # two batches, and rejection retries inside each for the hollow region
    pdd_mc(hexagon, hollow, SampleConfig(n_pairs=4000, seed=3, batch=2000))
    assert sum(c is hexagon for c in calls) == 1
    assert sum(c is hollow.outer for c in calls) == 1

    calls.clear()
    pdd_mc(hexagon, hexagon, SampleConfig(n_pairs=4000, seed=3))
    assert len(calls) == 1
