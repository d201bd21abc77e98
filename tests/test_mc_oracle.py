"""Tests for the sampling oracle and the CDF distance."""

import math

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
from polydist.geom import Disk
from polydist.mc_oracle import sample_uniform_polygon, sample_uniform_triangle

from shapes import regular_polygon, square

RIGHT = Triangle.from_vertices((0, 0), (1, 0), (0, 1))


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
        v = tri.vertices
        d = pts - v[0]
        e1, e2 = v[1] - v[0], v[2] - v[0]
        det = e1[0] * e2[1] - e1[1] * e2[0]
        u = (d[:, 0] * e2[1] - d[:, 1] * e2[0]) / det
        w = (e1[0] * d[:, 1] - e1[1] * d[:, 0]) / det
        inside = remaining & (u >= -1e-12) & (w >= -1e-12) & (u + w <= 1.0 + 1e-12)
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
    from polydist.mc_oracle import _sampler

    pts = _sampler(region)(rng, 50_000)
    assert np.abs(pts).max() <= 0.5 + 1e-12
    inside_hole = (np.abs(pts[:, 0]) < 0.3) & (np.abs(pts[:, 1]) < 0.3)
    assert not inside_hole.any()


def test_hollow_region_disk_hole():
    outer = regular_polygon(6, side=1.0)
    region = HollowRegion(outer, Disk((0.0, 0.0), 0.7))
    from polydist.mc_oracle import _sampler

    pts = _sampler(region)(np.random.default_rng(3), 50_000)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert r.min() >= 0.7
    assert outer.contains(pts).all()


def test_sample_region_rejects_unknown():
    from polydist.mc_oracle import _sampler

    with pytest.raises(TypeError):
        _sampler("not a region")


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
