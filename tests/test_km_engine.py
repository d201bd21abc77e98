"""Tests for the line-sweep distance engine."""

import math

import numpy as np
import pytest

from polydist import (
    CdfCurve,
    SimplePolygon,
    TriangleParams,
    closed_form_curve,
    scale_curve,
    DensityCurve,
    DiagnosticError,
    KMConfig,
    Triangle,
    canonicalize_triangle,
    cross_pair_pdf,
    pdf_to_cdf,
    trapezoid_kernel,
    triangulate_ring,
    within_convex_pdf,
    within_triangle_pdf,
)
from polydist.km_engine import (
    ConvexSource,
    DifferenceSource,
    PolygonSource,
    UnionSource,
    sweep_within,
)
from polydist.mc_oracle import SampleConfig, ks_distance, pdd_mc

from shapes import (
    CONVEX_PAIR_ANGLES,
    pair_from_angles,
    random_angle_triple,
    random_triangle,
    square,
)

# Coarser than the defaults but plenty for unit-level checks; keeps the
# module under a couple of minutes.
FAST = KMConfig(d_theta=math.pi / 360, d_p=1.0 / 400, grid_points=200)


def equilateral():
    return canonicalize_triangle(angles=np.full(3, math.pi / 3))


# ---------------------------------------------------------------------------
# Configuration and curve containers
# ---------------------------------------------------------------------------


def test_config_defaults_and_bounds():
    cfg = KMConfig()
    assert cfg.d_theta == pytest.approx(math.pi / 720)
    assert cfg.d_p == pytest.approx(1.0 / 2000)
    assert cfg.grid_points == 500

    with pytest.raises(ValueError):
        KMConfig(d_theta=0.0)
    with pytest.raises(ValueError):
        KMConfig(d_theta=math.pi / 45)  # coarser than the allowed cap
    with pytest.raises(ValueError):
        KMConfig(d_p=-1e-3)
    with pytest.raises(ValueError):
        KMConfig(d_p=1.0 / 100)
    with pytest.raises(ValueError):
        KMConfig(grid_points=49)


def quadratic_density(n=400):
    # f(d) = (3/4) d (2 - d) on [0, 2]: vanishes at both ends, integral 1.
    grid = np.linspace(0.0, 2.0, n + 1)
    return 2.0, 0.75 * grid * (2.0 - grid)


def test_density_curve_accepts_clean_samples():
    d_max, vals = quadratic_density()
    curve = DensityCurve(d_max, vals, {"origin": "test"})
    assert curve.integral() == pytest.approx(1.0, abs=1e-4)
    assert curve.values[0] == 0.0
    assert not curve.values.flags.writeable
    assert curve.evaluate(-0.5) == 0.0
    assert curve.evaluate(5.0) == 0.0
    assert curve.evaluate(1.0) == pytest.approx(0.75)
    assert curve.meta["origin"] == "test"


def test_density_curve_diagnostics():
    d_max, vals = quadratic_density()

    bad = vals.copy()
    bad[0] = 0.05
    with pytest.raises(DiagnosticError):
        DensityCurve(d_max, bad)

    bad = vals.copy()
    bad[10] = -1e-3
    with pytest.raises(DiagnosticError):
        DensityCurve(d_max, bad)

    with pytest.raises(DiagnosticError):
        DensityCurve(d_max, 1.2 * vals)  # mass 1.2

    # tiny negative jitter is clamped, not fatal
    jitter = vals.copy()
    jitter[10] = -1e-15
    curve = DensityCurve(d_max, jitter)
    assert curve.values[10] == 0.0

    with pytest.raises(ValueError):
        DensityCurve(-1.0, vals)
    with pytest.raises(ValueError):
        DensityCurve(2.0, np.ones((3, 3)))


def test_cdf_curve_diagnostics():
    good = np.linspace(0.0, 1.0, 101)
    curve = CdfCurve(1.0, good)
    assert curve.evaluate(2.0) == pytest.approx(1.0)
    assert curve.evaluate(-1.0) == 0.0

    with pytest.raises(DiagnosticError):
        CdfCurve(1.0, good + 0.01)  # does not start at zero

    dec = good.copy()
    dec[50] = dec[49] - 1e-3
    with pytest.raises(DiagnosticError):
        CdfCurve(1.0, dec)

    with pytest.raises(DiagnosticError):
        CdfCurve(1.0, 1.1 * good)  # exceeds one

    with pytest.raises(DiagnosticError):
        CdfCurve(1.0, 0.9 * good)  # tail stuck at 0.9


def test_pdf_to_cdf_matches_manual_trapezoid():
    d_max, vals = quadratic_density()
    curve = DensityCurve(d_max, vals)
    cdf = pdf_to_cdf(curve)
    dx = d_max / (len(vals) - 1)
    manual = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * dx)])
    manual = np.minimum(manual, 1.0)
    np.testing.assert_allclose(cdf.values, manual, atol=1e-15)
    assert cdf.values[-1] <= 1.0
    # exact CDF of f is F(d) = (3 d^2)/4 - d^3/4
    assert cdf.evaluate(1.0) == pytest.approx(0.5, abs=1e-5)


# ---------------------------------------------------------------------------
# The collinear correlation kernel
# ---------------------------------------------------------------------------


def test_trapezoid_kernel_worked_example():
    # chords of length 2 and 3 with a gap of 1
    assert trapezoid_kernel(2.0, 1.0, 3.0, 1.0) == 0.0
    assert trapezoid_kernel(2.0, 1.0, 3.0, 6.0) == 0.0
    assert trapezoid_kernel(2.0, 1.0, 3.0, 3.5) == 2.0
    out = trapezoid_kernel(2.0, 1.0, 3.0, np.array([1.0, 6.0, 3.5]))
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])


def test_trapezoid_kernel_symmetry_and_zero_gap():
    rng = np.random.default_rng(42)
    for _ in range(50):
        l1, l2, l3 = rng.uniform(0.05, 3.0, size=3)
        d = rng.uniform(0.0, l1 + l2 + l3 + 0.5)
        assert trapezoid_kernel(l1, l2, l3, d) == pytest.approx(
            trapezoid_kernel(l3, l2, l1, d)
        )
    # touching chords: the kernel starts as the identity ramp
    d = np.linspace(0.0, 0.7, 15)
    np.testing.assert_allclose(trapezoid_kernel(0.7, 0.0, 2.0, d), d)


def test_trapezoid_kernel_mass_is_product_of_lengths():
    # integral over d of the kernel must be l1 * l3 for every triple;
    # putting the four breakpoints on the grid makes np.trapezoid exact.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        l1, l2, l3 = rng.uniform(0.05, 3.0, size=3)
        span = l1 + l2 + l3
        breaks = [l2, l2 + min(l1, l3), l2 + max(l1, l3), span]
        grid = np.unique(np.concatenate([np.linspace(0.0, span, 2001), breaks]))
        mass = np.trapezoid(trapezoid_kernel(l1, l2, l3, grid), grid)
        assert mass == pytest.approx(l1 * l3, rel=1e-12)


def test_trapezoid_kernel_first_moment():
    # E[d] for two uniform points on the two chords is l2 + (l1 + l3) / 2
    rng = np.random.default_rng(7)
    for _ in range(20):
        l1, l2, l3 = rng.uniform(0.1, 2.5, size=3)
        span = l1 + l2 + l3
        grid = np.linspace(0.0, span, 100_001)
        moment = np.trapezoid(grid * trapezoid_kernel(l1, l2, l3, grid), grid)
        expected = l1 * l3 * (l2 + 0.5 * (l1 + l3))
        assert moment == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# Chord sources
# ---------------------------------------------------------------------------


def test_convex_source_agrees_with_polygon_source():
    # two independent vectorized clippers: half-planes against sorted
    # even-odd edge crossings
    rng = np.random.default_rng(91)
    for _ in range(40):
        tri = random_triangle(rng)
        convex = ConvexSource(tri.vertices)
        loop = PolygonSource(tri.vertices)
        theta = rng.uniform(0.0, math.pi)
        lo, hi = convex.support(theta)
        assert loop.support(theta) == pytest.approx((lo, hi), abs=1e-12)
        p = rng.uniform(lo - 0.1, hi + 0.1, 25)
        (c0, c1), = convex.chords(theta, p)
        (t0, t1), = loop.chords(theta, p)
        hit = c1 - c0 > 1e-9
        np.testing.assert_allclose(t0[hit], c0[hit], atol=1e-9)
        np.testing.assert_allclose(t1[hit], c1[hit], atol=1e-9)
        assert np.all(t1[~hit] - t0[~hit] <= 1e-9)


def test_union_source_matches_single_convex_sweep():
    # a square swept directly must match the union of its two halves:
    # kernels are additive across a split chord.
    sq = square(0.5)
    tri_a = Triangle.from_vertices(*sq.vertices[[0, 1, 2]])
    tri_b = Triangle.from_vertices(*sq.vertices[[0, 2, 3]])
    cfg = KMConfig(d_theta=math.pi / 240, d_p=1.0 / 300, grid_points=150)
    d_max = sq.diameter
    whole = sweep_within(ConvexSource(sq.vertices), sq.area, d_max, cfg)
    split = sweep_within(UnionSource([tri_a, tri_b]), sq.area, d_max, cfg)
    np.testing.assert_allclose(split.values, whole.values, atol=1e-9)


def test_difference_source_matches_triangulated_ring():
    outer = square(0.5)
    hole = square(0.3)
    ring_tris = triangulate_ring(outer, hole)
    area = outer.area - hole.area
    cfg = KMConfig(d_theta=math.pi / 240, d_p=1.0 / 300, grid_points=150)
    d_max = outer.diameter
    direct = sweep_within(
        DifferenceSource(outer.vertices, hole.vertices), area, d_max, cfg
    )
    pieces = sweep_within(UnionSource(ring_tris), area, d_max, cfg)
    np.testing.assert_allclose(pieces.values, direct.values, atol=1e-9)
    loops = sweep_within(PolygonSource(outer.vertices, hole.vertices), area, d_max, cfg)
    np.testing.assert_allclose(loops.values, direct.values, atol=1e-9)


# ---------------------------------------------------------------------------
# Within-region sweeps
# ---------------------------------------------------------------------------


def test_within_equilateral_basic_shape():
    curve = within_triangle_pdf(equilateral(), FAST)
    assert curve.d_max == pytest.approx(1.0)
    assert curve.values[0] == 0.0
    assert curve.values.min() >= 0.0
    assert curve.integral() == pytest.approx(1.0, abs=5e-3)
    # density climbs from zero, peaks below mid-range, and dies at d_max
    peak = curve.grid[np.argmax(curve.values)]
    assert 0.2 < peak < 0.5
    assert curve.values[-1] < 0.05


# Monte Carlo reference for the unit equilateral triangle: pdd_mc with
# 10_000_000 pairs, seed 424242.  The density value is the centred window
# (F(0.51) - F(0.49)) / 0.02.
MC_EQUILATERAL_F_HALF = 1.4638499999999999
MC_EQUILATERAL_MEDIAN = 0.3512494312989665


def test_within_equilateral_matches_frozen_mc():
    curve = within_triangle_pdf(equilateral())  # reference resolution
    cdf = pdf_to_cdf(curve)
    windowed = (cdf.evaluate(0.51) - cdf.evaluate(0.49)) / 0.02
    assert windowed == pytest.approx(MC_EQUILATERAL_F_HALF, abs=0.01)
    assert curve.evaluate(0.5) == pytest.approx(MC_EQUILATERAL_F_HALF, abs=0.01)
    median = np.interp(0.5, cdf.values, cdf.grid)
    assert median == pytest.approx(MC_EQUILATERAL_MEDIAN, abs=5e-3)


def test_within_mass_random_triangles():
    rng = np.random.default_rng(314)
    for _ in range(50):
        tri = random_triangle(rng)
        curve = within_triangle_pdf(tri, FAST)
        assert curve.integral() == pytest.approx(1.0, abs=5e-3)
        assert curve.d_max == pytest.approx(tri.diameter)


def test_within_convex_rejects_concave():
    from polydist import SimplePolygon

    arrow = SimplePolygon.from_vertices([(0, 0), (4, 0), (1, 1), (0, 4)])
    with pytest.raises(ValueError):
        within_convex_pdf(arrow, FAST)


def test_within_convex_square_matches_triangle_split():
    # within_convex_pdf integrates the square directly; the union sweep
    # result above already pins the decomposition, so just check mass and
    # symmetry landmarks here.
    curve = within_convex_pdf(square(0.5), FAST)
    assert curve.d_max == pytest.approx(math.sqrt(2.0))
    assert curve.integral() == pytest.approx(1.0, abs=5e-3)


# ---------------------------------------------------------------------------
# Cross-pair sweeps
# ---------------------------------------------------------------------------


def shared_vertex_pair(rng):
    up = Triangle.from_vertices(
        (0.0, 0.0), (rng.uniform(0.5, 1.5), 0.0), (rng.uniform(-0.5, 1.0), rng.uniform(0.4, 1.2))
    )
    down = Triangle.from_vertices(
        (0.0, 0.0), (-rng.uniform(0.5, 1.5), -rng.uniform(0.05, 0.4)), (rng.uniform(-1.2, -0.3), -rng.uniform(0.5, 1.2))
    )
    from polydist import classify_pair

    return classify_pair(up, down)


def disjoint_pair(rng):
    from polydist import classify_pair

    tri_a = random_triangle(rng)
    tri_b = random_triangle(rng)
    shift = tri_a.vertices[:, 0].max() - tri_b.vertices[:, 0].min() + rng.uniform(0.5, 2.0)
    tri_b = Triangle.from_vertices(*(tri_b.vertices + np.array([shift, 0.0])))
    return classify_pair(tri_a, tri_b)


def test_cross_pair_mass_all_kinds():
    rng = np.random.default_rng(271828)
    touching = []
    for _ in range(8):
        touching.append(
            pair_from_angles(random_angle_triple(rng), random_angle_triple(rng))
        )
    for _ in range(6):
        touching.append(shared_vertex_pair(rng))
    apart = [disjoint_pair(rng) for _ in range(6)]
    kinds = {p.kind for p in touching + apart}
    assert "shared_side_convex" in kinds or "shared_side_concave" in kinds
    assert "shared_vertex" in kinds
    assert kinds >= {"disjoint"}
    for pair in touching:
        curve = cross_pair_pdf(pair, FAST)
        assert curve.integral() == pytest.approx(1.0, abs=5e-3)
    for pair in apart:
        # separated pairs concentrate on a narrow band of orientations, so
        # the offset step must stay fine relative to the joint hull
        curve = cross_pair_pdf(pair, KMConfig(d_theta=math.pi / 360, grid_points=200))
        assert curve.integral() == pytest.approx(1.0, abs=5e-3)


def test_disjoint_pair_gap_is_exact_zero():
    from polydist import classify_pair

    tri_a = Triangle.from_vertices((0, 0), (1, 0), (0, 1))
    tri_b = Triangle.from_vertices((11, 0), (12, 0), (11, 1))
    pair = classify_pair(tri_a, tri_b)
    assert pair.min_distance == pytest.approx(10.0)
    assert pair.max_distance == pytest.approx(math.sqrt(145.0))
    curve = cross_pair_pdf(pair, KMConfig(grid_points=200))
    grid = curve.grid
    assert np.all(curve.values[grid < 10.0 - 1e-9] == 0.0)
    assert curve.values[grid > 10.5].max() > 0.0
    cdf = pdf_to_cdf(curve)
    assert cdf.values[-1] >= 0.995


def test_touching_pairs_positive_near_zero():
    rng = np.random.default_rng(5)
    side = pair_from_angles(*CONVEX_PAIR_ANGLES)
    vert = shared_vertex_pair(rng)
    for pair in (side, vert):
        curve = cross_pair_pdf(pair, FAST)
        assert curve.evaluate(0.05 * curve.d_max) > 0.0


def test_cross_pair_matches_mc():
    pair = pair_from_angles(*CONVEX_PAIR_ANGLES)
    curve = cross_pair_pdf(pair, FAST)
    cdf = pdf_to_cdf(curve)
    ecdf = pdd_mc(pair.tri_a, pair.tri_b, SampleConfig(n_pairs=50_000, seed=8821))
    assert ks_distance(cdf, ecdf) < 0.01


# ---------------------------------------------------------------------------
# Resolution behaviour
# ---------------------------------------------------------------------------


def test_resolution_refinement_is_stable():
    tri = equilateral()
    coarse = within_triangle_pdf(tri, KMConfig(math.pi / 180, 1.0 / 250, 200))
    fine = within_triangle_pdf(tri, KMConfig(math.pi / 360, 1.0 / 500, 200))
    assert np.max(np.abs(coarse.values - fine.values)) < 1e-3


# ---------------------------------------------------------------------------
# Exact offset integration
# ---------------------------------------------------------------------------


def closed_cdf(tri, n):
    params = TriangleParams.from_triangle(tri)
    return pdf_to_cdf(scale_curve(closed_form_curve(params, n=n), tri.diameter))


def test_sliver_triangle_passes_at_default_config():
    # offsets are integrated exactly, so a sliver needs no fine offset step
    tri = canonicalize_triangle(angles=np.radians([178.0, 1.0, 1.0]))
    cdf = pdf_to_cdf(within_triangle_pdf(tri))
    assert np.max(np.abs(cdf.values - closed_cdf(tri, 500).values)) < 1e-3


def test_offset_step_does_not_change_the_curve():
    tri = canonicalize_triangle(angles=np.radians([80.0, 70.0, 30.0]))
    coarse = within_triangle_pdf(tri, KMConfig(d_p=1.0 / 200))
    fine = within_triangle_pdf(tri, KMConfig(d_p=1.0 / 2000))
    np.testing.assert_array_equal(coarse.values, fine.values)


@pytest.mark.parametrize("degs", [(60, 60, 60), (80, 70, 30), (130, 30, 20)])
def test_triangle_cdf_matches_closed_form_at_default_config(degs):
    tri = canonicalize_triangle(angles=np.radians(degs))
    cdf = pdf_to_cdf(within_triangle_pdf(tri))
    assert np.max(np.abs(cdf.values - closed_cdf(tri, 500).values)) < 1e-6


def test_many_vertex_star_vs_mc():
    rng = np.random.default_rng(100)
    n = 100
    radii = np.where(np.arange(n) % 2 == 0, rng.uniform(0.9, 1.0, n), rng.uniform(0.45, 0.6, n))
    ang = 2.0 * math.pi * (np.arange(n) + rng.uniform(-0.15, 0.15, n)) / n
    star = SimplePolygon(np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1))
    curve = sweep_within(PolygonSource(star.vertices), star.area, star.diameter, FAST)
    ecdf = pdd_mc(star, star, SampleConfig(n_pairs=50_000, seed=1001))
    assert ks_distance(pdf_to_cdf(curve), ecdf) < 0.01
