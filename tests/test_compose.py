"""Tests for polygon and ring curves, and the triangle-pair cross-check route."""

import math

import numpy as np
import pytest

from polydist import (
    CdfCurve,
    DensityCurve,
    GeometryError,
    KMConfig,
    RingSpec,
    SampleConfig,
    SimplePolygon,
    Triangle,
    between_regions_pdd,
    canonicalize_triangle,
    classify_pair,
    cross_pair_pdf,
    ks_distance,
    pdd_mc,
    pdf_to_cdf,
    polygon_pdd,
    ring_pdd,
    scale_curve,
    triangulate,
    triangulate_ring,
    weighted_mixture,
    within_triangle_pdf,
)
from polydist import compose, geom, km_engine
from polydist.compose import RegionPartition
from polydist.geom import approximate_disk
from polydist.km_engine import (
    PolygonSource,
    UnionSource,
    sweep_between,
    sweep_within,
)

from shapes import regular_polygon, square

FAST = KMConfig(d_theta=math.pi / 360, d_p=1.0 / 400, grid_points=200)


# ---------------------------------------------------------------------------
# Mixtures
# ---------------------------------------------------------------------------


def staircase(d_max, knee):
    grid = np.linspace(0.0, d_max, 101)
    return CdfCurve(d_max, np.clip(grid / knee, 0.0, 1.0))


def test_weighted_mixture_pointwise():
    a = staircase(2.0, 0.5)
    b = staircase(2.0, 1.5)
    same = weighted_mixture([a], [1.0])
    np.testing.assert_array_equal(same.values, a.values)
    halves = weighted_mixture([a, a], [0.5, 0.5])
    np.testing.assert_allclose(halves.values, a.values, atol=1e-15)
    mix = weighted_mixture([a, b], [0.3, 0.7])
    np.testing.assert_allclose(mix.values, 0.3 * a.values + 0.7 * b.values, atol=1e-15)
    assert mix.meta["mixture_weights"] == [0.3, 0.7]


def test_weighted_mixture_validation():
    a = staircase(2.0, 0.5)
    with pytest.raises(ValueError):
        weighted_mixture([], [])
    with pytest.raises(ValueError):
        weighted_mixture([a, a], [0.5])
    with pytest.raises(ValueError):
        weighted_mixture([a, a], [0.8, 0.8])
    with pytest.raises(ValueError):
        weighted_mixture([a, a], [1.5, -0.5])
    with pytest.raises(ValueError):
        weighted_mixture([a, staircase(3.0, 0.5)], [0.5, 0.5])


# ---------------------------------------------------------------------------
# Polygon recomposition
# ---------------------------------------------------------------------------


def test_polygon_pdd_triangle_is_the_plain_sweep():
    tri = canonicalize_triangle(angles=np.radians([80, 70, 30]))
    via_polygon = polygon_pdd(tri, FAST)
    direct = pdf_to_cdf(within_triangle_pdf(tri, FAST))
    np.testing.assert_array_equal(via_polygon.values, direct.values)


def test_polygon_pdd_of_a_triangle_is_the_pdd_of_its_polygon():
    # this draw's longest side once measured one ulp off the polygon's
    # diameter, which moved every grid node
    rng = np.random.default_rng(0)
    for _ in range(5):
        vertices = rng.normal(size=(3, 2))
    tri = Triangle.from_vertices(*vertices)
    poly = SimplePolygon(tri.vertices)
    assert tri.diameter == poly.diameter
    as_triangle, as_polygon = polygon_pdd(tri), polygon_pdd(poly)
    np.testing.assert_array_equal(as_triangle.grid, as_polygon.grid)
    np.testing.assert_array_equal(as_triangle.values, as_polygon.values)
    np.testing.assert_array_equal(as_triangle.meta["pdf_values"], as_polygon.meta["pdf_values"])


L_SHAPE = SimplePolygon(np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float))


@pytest.mark.parametrize("poly", [regular_polygon(5), regular_polygon(6), L_SHAPE],
                         ids=["pentagon", "hexagon", "L"])
def test_polygon_pdd_matches_triangle_pair_route(poly):
    # one sweep over the polygon against the paper's decomposition into
    # triangle pairs: the same kernels, split differently along each line
    one = polygon_pdd(poly, FAST)
    part = RegionPartition.from_triangles(triangulate(poly), FAST, d_max=poly.diameter,
                                          total_area=poly.area)
    mixed, _ = part.mixture()
    assert np.max(np.abs(one.values - mixed)) < 1e-4


def test_sliver_ear_star_vs_mc():
    # ear clipping leaves a (173, 3.5, 3.1) degree sliver triangle in this
    # star whose own sweep fails its mass check at FAST; the polygon as a
    # whole sweeps cleanly
    star = SimplePolygon(np.array([
        [0.941442, -0.080081], [0.379592, 0.39688], [-0.190401, 0.922557],
        [-0.498013, 0.175458], [-0.919809, -0.344457], [-0.130762, -0.568271],
        [0.595819, -0.686893],
    ]))
    cdf = polygon_pdd(star, FAST)
    ecdf = pdd_mc(star, star, SampleConfig(n_pairs=50_000, seed=707))
    assert ks_distance(cdf, ecdf) < 0.01


def test_polygon_and_ring_sweep_once_per_curve(monkeypatch):
    # each sweep reads the orientation rule once, in blocks
    passes = []
    blocks = km_engine._blocks

    def record(size, budget, cfg):
        passes.append(cfg)
        return blocks(size, budget, cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("the default routes do not decompose into triangle pairs")

    monkeypatch.setattr(km_engine, "_blocks", record)
    monkeypatch.setattr(compose, "classify_pair", forbidden)
    monkeypatch.setattr(compose, "cross_pair_pdf", forbidden)

    polygon_pdd(L_SHAPE, FAST)
    assert len(passes) == 1

    passes.clear()
    ring = RingSpec(square(0.5), square(0.3))
    ring_pdd(ring, FAST)
    # F11, F22 and F23 from one pass over the orientation rule
    assert len(passes) == 1


def test_swept_cdfs_are_checked_once(monkeypatch):
    checks = []
    post_init = CdfCurve.__post_init__

    def counting(self):
        checks.append(self.meta.get("region"))
        post_init(self)

    monkeypatch.setattr(CdfCurve, "__post_init__", counting)
    polygon_pdd(L_SHAPE, FAST)
    tris = triangulate(L_SHAPE)
    between_regions_pdd(tris[:2], tris[2:], FAST)
    assert checks == ["polygon", "between"]
    checks.clear()
    ring_pdd(RingSpec(square(0.5), square(0.3)), FAST)
    # each of the six curves once, and F22 once more on the hole's own grid
    # (None), from which it is resampled
    assert checks == ["outer", "hole-ring", "ring", None, "hole", "outer-hole", "outer-ring"]


def test_pentagon_pair_weights_group_by_congruence():
    pent = regular_polygon(5, side=1.0)
    tris = triangulate(pent)
    assert len(tris) == 3
    s = [t.area for t in tris]
    total = pent.area
    # the fan splits the pentagon into two congruent flank triangles
    # around a distinct middle one
    assert s[0] == pytest.approx(s[2], rel=1e-12)
    assert s[1] != pytest.approx(s[0], rel=1e-3)

    part = RegionPartition.from_triangles(tris, FAST, d_max=pent.diameter,
                                          total_area=total)
    weights = {(i, j): w for i, j, w in part.pair_weights()}
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
    flank = s[0] * s[0] / total**2
    cross = s[0] * s[1] / total**2
    middle = s[1] * s[1] / total**2
    # grouped coefficients: both self-pairs of the flanks, four
    # flank-middle orderings, the two flank-flank orderings, the middle
    assert weights[(0, 0)] + weights[(2, 2)] == pytest.approx(2 * flank, rel=1e-12)
    assert weights[(0, 1)] + weights[(1, 0)] + weights[(1, 2)] + weights[(2, 1)] \
        == pytest.approx(4 * cross, rel=1e-12)
    assert weights[(0, 2)] + weights[(2, 0)] == pytest.approx(2 * flank, rel=1e-12)
    assert weights[(1, 1)] == pytest.approx(middle, rel=1e-12)

    # collapsing congruent members of each class changes nothing beyond
    # sweep asymmetry noise
    grouped = weighted_mixture(
        [part.cdf(0, 0), part.cdf(0, 1), part.cdf(0, 2), part.cdf(1, 1)],
        [2 * flank, 4 * cross, 2 * flank, middle],
    )
    full = polygon_pdd(pent, FAST)
    assert np.max(np.abs(grouped.values - full.values)) < 1e-3


def test_hexagon_polygon_vs_mc():
    hexagon = regular_polygon(6, side=1.0)
    cdf = polygon_pdd(hexagon, FAST)
    ecdf = pdd_mc(hexagon, hexagon, SampleConfig(n_pairs=50_000, seed=606))
    assert ks_distance(cdf, ecdf) < 0.01


def test_fan_root_does_not_matter():
    base = polygon_pdd(regular_polygon(5, side=1.0), FAST)
    rolled = polygon_pdd(regular_polygon(5, side=1.0, start=2), FAST)
    assert base.d_max == pytest.approx(rolled.d_max, rel=1e-12)
    assert np.max(np.abs(base.values - rolled.values)) < 2e-3


# ---------------------------------------------------------------------------
# Between two regions
# ---------------------------------------------------------------------------


def test_between_single_pair_is_the_plain_sweep():
    tri_a = Triangle.from_vertices((0, 0), (1, 0), (0.4, 0.9))
    tri_b = Triangle.from_vertices((0, 0), (0.5, -0.8), (1, 0))
    pair = classify_pair(tri_a, tri_b)
    for cfg in (FAST, KMConfig()):
        between = between_regions_pdd([tri_a], [tri_b], cfg)
        direct = cross_pair_pdf(pair, cfg)
        np.testing.assert_array_equal(between.values, pdf_to_cdf(direct).values)
        np.testing.assert_array_equal(between.meta["pdf_values"], direct.values)
        assert between.meta["n_pairs"] == 1

    with pytest.raises(GeometryError):
        between_regions_pdd([], [tri_b], FAST)


def _pairwise_between_cdf(part_a, part_b, d_max):
    """The paper's route: the area-weighted mixture of every pair's cross curve."""
    area_a = sum(t.area for t in part_a)
    area_b = sum(t.area for t in part_b)
    grid = np.linspace(0.0, d_max, FAST.grid_points + 1)
    mixed = np.zeros_like(grid)
    for ta in part_a:
        for tb in part_b:
            cdf = pdf_to_cdf(cross_pair_pdf(classify_pair(ta, tb), FAST))
            mixed += ta.area * tb.area / (area_a * area_b) * cdf.evaluate(grid)
    return mixed


def _square_halves():
    left = SimplePolygon(np.array([[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5], [-0.5, 0.5]]))
    return triangulate(left), triangulate(SimplePolygon(left.vertices + [0.5, 0.0]))


def _hexagon_fan_halves():
    tris = triangulate(regular_polygon(6, side=1.0))
    return tris[:2], tris[2:]


@pytest.mark.parametrize("halves", [_hexagon_fan_halves, _square_halves],
                         ids=["hexagon-fan", "square"])
def test_between_regions_is_one_sweep(monkeypatch, halves):
    part_a, part_b = halves()
    assert len(part_a) == len(part_b) == 2
    sweeps = []
    sweep_between = compose.sweep_between

    def record(*args, **kwargs):
        sweeps.append(args)
        return sweep_between(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("between_regions_pdd sweeps the regions, not their pairs")

    monkeypatch.setattr(compose, "sweep_between", record)
    monkeypatch.setattr(compose, "cross_pair_pdf", forbidden)
    between = between_regions_pdd(part_a, part_b, FAST)
    monkeypatch.undo()
    assert len(sweeps) == 1
    assert between.meta["n_pairs"] == 4
    pairwise = _pairwise_between_cdf(part_a, part_b, between.d_max)
    assert np.max(np.abs(between.values - pairwise)) < 1e-5

    overlapping = Triangle(part_a[0].vertices + [0.05, 0.02])
    with pytest.raises(GeometryError):
        between_regions_pdd(part_a, [overlapping, *part_b], FAST)


def test_between_regions_classifies_only_pairs_that_may_touch(monkeypatch):
    # every triangle of a fan shares its apex, so all 121 pairs of these
    # halves touch; an edge line of each pair still separates the two
    # triangles, so no pair is classified
    tris = triangulate(regular_polygon(24, side=0.3))
    part_a, part_b = tris[:11], tris[11:]
    assert len(part_b) == 11
    d_max = max(classify_pair(ta, tb).max_distance for ta in part_a for tb in part_b)
    area_a = sum(t.area for t in part_a)
    area_b = sum(t.area for t in part_b)
    pdf = sweep_between(UnionSource(part_a), area_a, UnionSource(part_b), area_b, d_max, FAST)

    calls = []
    classify = geom.classify_pair

    def counting(ta, tb):
        calls.append((ta, tb))
        return classify(ta, tb)

    monkeypatch.setattr(geom, "classify_pair", counting)
    between = between_regions_pdd(part_a, part_b, FAST)
    assert calls == []
    assert between.d_max == d_max
    assert between.meta["n_pairs"] == 121
    np.testing.assert_array_equal(between.values, pdf_to_cdf(pdf).values)
    np.testing.assert_array_equal(between.meta["pdf_values"], pdf.values)

    # an overlapping triangle, or one whose vertex lies within the snap
    # tolerance of another's, is still classified
    overlapping = Triangle(part_a[3].vertices + [0.01, 0.004])
    with pytest.raises(GeometryError, match="overlap"):
        between_regions_pdd(part_a, [*part_b, overlapping], FAST)
    apex = np.array(part_b[0].vertices)
    assert (apex[0] == part_a[0].vertices[0]).all()
    apex[0] += 1e-11
    moved = Triangle(apex)
    between_regions_pdd(part_a, [moved, *part_b[1:]], FAST)
    assert sum(tb is moved for _, tb in calls) == len(part_a)


def test_hexagon_fan_pairs_reflect():
    # reflecting a regular hexagon across its v0-v3 diagonal maps the fan
    # pair (0, 2) onto (3, 1), so the two cross curves must agree
    tris = triangulate(regular_polygon(6, side=1.0))
    assert len(tris) == 4
    first = between_regions_pdd([tris[0]], [tris[2]], FAST)
    second = between_regions_pdd([tris[1]], [tris[3]], FAST)
    assert first.d_max == pytest.approx(second.d_max, rel=1e-12)
    assert np.max(np.abs(first.values - second.values)) < 1e-6


def test_pentagon_cross_region_vs_mc():
    tris = triangulate(regular_polygon(5, side=1.0))
    cdf = between_regions_pdd([tris[0]], [tris[2]], FAST)
    ecdf = pdd_mc(tris[0], tris[2], SampleConfig(n_pairs=50_000, seed=515))
    assert ks_distance(cdf, ecdf) < 0.01


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------


def test_ring_spec_validation():
    with pytest.raises(GeometryError):
        RingSpec(square(0.5), square(0.5))  # hole touches the boundary
    with pytest.raises(GeometryError):
        RingSpec(square(0.3), square(0.5))  # hole swallows the outer
    with pytest.raises(GeometryError):
        RingSpec(square(0.5), square(0.3, center=(0.4, 0.0)))  # pokes out
    u_shape = SimplePolygon(np.array(
        [[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]], dtype=float))
    bar = SimplePolygon(np.array([[0.2, 2.0], [2.8, 2.0], [2.8, 2.5], [0.2, 2.5]]))
    with pytest.raises(GeometryError, match="crosses"):
        RingSpec(u_shape, bar)  # every vertex inside, an edge spans the notch
    spec = RingSpec(square(0.5), square(0.3))
    assert spec.ring_area == pytest.approx(1.0 - 0.36)


def test_square_ring_solved_cdf():
    ring = RingSpec(square(0.5), square(0.3))
    curves = ring_pdd(ring, FAST)
    assert set(curves) == {"F11", "F22", "F23", "F33", "F12", "F13"}

    s1, s2, s3 = ring.outer_area, ring.hole_area, ring.ring_area
    f33 = curves["F33"]
    assert f33.meta["solve_defect"] < 5e-4

    # the solved curve must put the weighted pieces back together exactly
    raw = f33.meta["raw_values"]
    recomposed = (s2 * s2 * curves["F22"].values
                  + 2.0 * s2 * s3 * curves["F23"].values
                  + s3 * s3 * raw) / (s1 * s1)
    assert np.max(np.abs(recomposed - curves["F11"].values)) < 1e-12

    # mixed-region curves follow the same area weighting
    f12 = (s2 / s1) * curves["F22"].values + (s3 / s1) * curves["F23"].values
    np.testing.assert_allclose(curves["F12"].values, f12, atol=1e-12)
    f13 = (s2 / s1) * curves["F23"].values + (s3 / s1) * curves["F33"].values
    assert np.max(np.abs(curves["F13"].values - f13)) < 1e-12

    # independent route: sweep the ring triangles directly
    tris = triangulate_ring(ring.outer, ring.hole)
    part = RegionPartition.from_triangles(tris, FAST, d_max=ring.outer.diameter,
                                          total_area=s3)
    direct_vals, _ = part.mixture()
    assert np.max(np.abs(direct_vals - f33.values)) < 5e-4


@pytest.mark.parametrize("cfg", [FAST, KMConfig()], ids=["fast", "default"])
@pytest.mark.parametrize("outer, hole", [
    (square(0.5), square(0.3)),
    (regular_polygon(6), approximate_disk((0.0, 0.0), 0.7, 64)),
    (square(0.5), SimplePolygon(0.3 * L_SHAPE.vertices - 0.3)),
    (square(0.5), square(0.02)),
], ids=["square", "hexagon-disk", "L-hole", "vanishing-hole"])
def test_ring_curves_match_the_three_sweeps(outer, hole, cfg):
    # one sweep over the ring's loops gives what separate sweeps give
    curves = ring_pdd(RingSpec(outer, hole), cfg)
    d_max = outer.diameter
    s3 = outer.area - hole.area
    grid = curves["F11"].grid
    hole_source = PolygonSource(hole.vertices)
    ring_source = PolygonSource(outer.vertices, hole.vertices)
    swept = {
        "F11": sweep_within(PolygonSource(outer.vertices), outer.area, d_max, cfg),
        "F22": sweep_within(hole_source, hole.area, hole.diameter, cfg),
        "F23": sweep_between(hole_source, hole.area, ring_source, s3, d_max, cfg),
        "F33": sweep_within(ring_source, s3, d_max, cfg),
    }
    for name, pdf in swept.items():
        cdf = pdf_to_cdf(pdf)
        want_pdf = np.interp(grid, pdf.grid, pdf.values, left=0.0, right=0.0)
        want_cdf = np.interp(grid, cdf.grid, cdf.values, left=0.0, right=float(cdf.values[-1]))
        for got, want in ((curves[name].meta["pdf_values"], want_pdf),
                          (curves[name].values, want_cdf)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want), name


def test_vanishing_hole_recovers_outer():
    ring = RingSpec(square(0.5), square(0.02))
    # the hole-to-ring sweeps see a support as narrow as the hole, so keep
    # the default offset step rather than the coarse test one
    curves = ring_pdd(ring, KMConfig(d_theta=math.pi / 360, grid_points=200))
    gap = np.max(np.abs(curves["F33"].values - curves["F11"].values))
    assert gap < 5e-3


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def test_scale_curve_density():
    tri = canonicalize_triangle(angles=np.radians([80, 70, 30]))
    curve = within_triangle_pdf(tri, FAST)
    for s in (0.1, 2.0, 37.0):
        scaled = scale_curve(curve, s)
        assert isinstance(scaled, DensityCurve)
        assert scaled.d_max == pytest.approx(s * curve.d_max, rel=1e-12)
        # node k maps to node k: f_s at s*d_k is f(d_k)/s, bit for bit
        np.testing.assert_array_equal(scaled.values, curve.values / s)
        assert scaled.integral() == pytest.approx(curve.integral(), abs=1e-9)
        assert scaled.meta["scaled_by"] == s
    # spot value: with s = 2 the density at 1.0 is half the density at 0.5
    doubled = scale_curve(curve, 2.0)
    assert float(doubled.evaluate(1.0)) == pytest.approx(
        0.5 * float(curve.evaluate(0.5)), rel=1e-12
    )


def test_scale_curve_cdf_and_errors():
    tri = canonicalize_triangle(angles=np.radians([80, 70, 30]))
    cdf = pdf_to_cdf(within_triangle_pdf(tri, FAST))
    scaled = scale_curve(cdf, 3.0)
    assert isinstance(scaled, CdfCurve)
    np.testing.assert_array_equal(scaled.values, cdf.values)
    assert scaled.d_max == pytest.approx(3.0 * cdf.d_max)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            scale_curve(cdf, bad)
    with pytest.raises(TypeError):
        scale_curve(np.arange(4.0), 2.0)


def test_scaled_polygon_matches_rescaled_sweep():
    small = regular_polygon(5, side=1.0)
    big = SimplePolygon.from_vertices(small.vertices * 2.5)
    direct = polygon_pdd(big, FAST)
    rescaled = scale_curve(polygon_pdd(small, FAST), 2.5)
    assert direct.d_max == pytest.approx(rescaled.d_max, rel=1e-12)
    assert np.max(np.abs(direct.values - rescaled.values)) < 1e-3
