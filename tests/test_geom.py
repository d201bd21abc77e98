"""Geometry layer: canonical triangles, polygons, clipping, pair classification.

Line clipping is tested through ``PolygonSource``, the engine's chord
source for arbitrary loops.
"""
import math

import numpy as np
import pytest

from polydist.geom import (
    GeometryError,
    SimplePolygon,
    Triangle,
    approximate_disk,
    canonicalize_triangle,
    classify_pair,
    geometry_from_spec,
    hull_diameter,
    triangulate,
)
from polydist.km_engine import ConvexSource, PolygonSource
from shapes import line_through, pair_from_angles, regular_polygon, square
from shapes import CONCAVE_PAIR_ANGLES, CONVEX_PAIR_ANGLES

DEG = math.radians


def test_canonical_equilateral():
    tri = canonicalize_triangle(angles=[math.pi / 3] * 3)
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    np.testing.assert_allclose(tri.vertices, expected, atol=1e-12)
    np.testing.assert_allclose(tri.side_lengths, (1.0, 1.0, 1.0), atol=1e-12)
    assert tri.is_canonical


def test_canonical_law_of_sines_wide_triangle():
    tri = canonicalize_triangle(angles=[DEG(130), DEG(30), DEG(20)])
    a, b, c = tri.side_lengths
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(math.sin(DEG(30)) / math.sin(DEG(130)), abs=1e-12)
    assert c == pytest.approx(math.sin(DEG(20)) / math.sin(DEG(130)), abs=1e-12)
    alpha, beta, gamma = tri.angles
    assert alpha >= beta >= gamma
    assert alpha + beta + gamma == pytest.approx(math.pi, abs=1e-12)


def test_canonical_from_sides_and_sas():
    tri = canonicalize_triangle(sides=[3.0, 4.0, 5.0])
    assert tri.side_lengths[0] == pytest.approx(1.0, abs=1e-12)
    assert tri.angles[0] == pytest.approx(math.pi / 2.0, abs=1e-9)
    sas = canonicalize_triangle(sas=(1.0, math.pi / 3.0, 1.0))
    np.testing.assert_allclose(sas.side_lengths, (1.0, 1.0, 1.0), atol=1e-9)


def test_canonical_scale():
    tri = canonicalize_triangle(angles=[DEG(80), DEG(70), DEG(30)], scale=2.5)
    assert tri.side_lengths[0] == pytest.approx(2.5, rel=1e-12)
    assert tri.is_canonical


def test_canonical_rejections():
    with pytest.raises(GeometryError):
        canonicalize_triangle(angles=[0.0, math.pi / 2, math.pi / 2])
    with pytest.raises(GeometryError):
        canonicalize_triangle(angles=[0.5, 0.5, 0.5])  # sum far from pi
    with pytest.raises(GeometryError):
        canonicalize_triangle(sides=[1.0, 1.0, 3.0])
    with pytest.raises(GeometryError):
        canonicalize_triangle(sas=(1.0, math.pi, 1.0))
    with pytest.raises(GeometryError):
        canonicalize_triangle(angles=[math.pi / 3] * 3, sides=[1, 1, 1])


def test_polygon_area_examples():
    def area(points):
        return SimplePolygon(np.array(points, dtype=float)).area

    assert area([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(1.0)
    assert area([(0, 0), (1, 0), (0, 1)]) == pytest.approx(0.5)
    # clockwise listing: area still positive
    assert area([(0, 0), (0, 1), (1, 1), (1, 0)]) == pytest.approx(1.0)


def test_simple_polygon_validation():
    with pytest.raises(GeometryError):
        SimplePolygon(np.array([[0, 0], [0, 0], [1, 1], [0, 1]], dtype=float))
    with pytest.raises(GeometryError):  # bowtie
        SimplePolygon(np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float))
    cw = SimplePolygon(np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=float))
    assert cw.area > 0.0  # orientation normalized to CCW


def test_triangulate_triangle_identity():
    tri = canonicalize_triangle(angles=[math.pi / 3] * 3)
    tris = triangulate(tri)
    assert len(tris) == 1
    np.testing.assert_array_equal(tris[0].vertices, tri.vertices)


def test_triangulate_convex_pentagon_fan():
    pent = regular_polygon(5)
    tris = triangulate(pent)
    assert len(tris) == 3
    total = sum(t.area for t in tris)
    assert total == pytest.approx(pent.area, rel=1e-12)
    v0 = pent.vertices[0]
    for t in tris:
        assert any(np.allclose(v, v0) for v in t.vertices)


def test_triangulate_concave_quadrangle():
    quad = SimplePolygon(np.array([[0, 0], [4, 0], [1, 1], [0, 4]], dtype=float))
    tris = triangulate(quad)
    assert len(tris) == 2
    assert sum(t.area for t in tris) == pytest.approx(quad.area, rel=1e-12)
    # the two triangles share a diagonal: exactly two common vertices
    va = [tuple(np.round(v, 12)) for v in tris[0].vertices]
    vb = [tuple(np.round(v, 12)) for v in tris[1].vertices]
    assert len(set(va) & set(vb)) == 2


def _star_polygon(rng, n):
    """Random star-shaped (hence simple) polygon around the origin."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        if np.diff(np.concatenate([ang, [ang[0] + 2.0 * math.pi]])).min() > 0.15:
            break
    radius = rng.uniform(0.4, 1.0, n)
    return SimplePolygon(np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1))


def test_triangulation_partition_random_polygons():
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        n = int(rng.integers(4, 13))
        poly = _star_polygon(rng, n)
        tris = triangulate(poly)
        assert len(tris) == n - 2
        assert sum(t.area for t in tris) == pytest.approx(poly.area, rel=1e-10)
        corners = {tuple(np.round(v, 9)) for t in tris for v in t.vertices}
        for v in poly.vertices:
            assert tuple(np.round(v, 9)) in corners


def chords(region, theta, p):
    """(start, end) pairs of the interior intervals of one line, in order."""
    pieces = PolygonSource(region.vertices).chords(theta, np.array([p]))
    return [(float(t0[0]), float(t1[0])) for t0, t1 in pieces if t1[0] > t0[0]]


def total_length(region, theta, p):
    return sum(t1 - t0 for t0, t1 in chords(region, theta, p))


def test_support_interval_examples():
    tri = canonicalize_triangle(angles=[math.pi / 3] * 3)
    lo, hi = PolygonSource(tri.vertices).support(0.0)
    assert hi - lo == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    sq = square(0.5, center=(0.5, 0.5))
    lo, hi = PolygonSource(sq.vertices).support(math.pi / 2.0)
    assert hi - lo == pytest.approx(1.0, abs=1e-12)
    # translated copies never meet the same vertical line
    far = Triangle(tri.vertices + np.array([5.0, 0.0]))
    a = PolygonSource(tri.vertices).support(math.pi / 2.0)
    b = PolygonSource(far.vertices).support(math.pi / 2.0)
    assert min(a[1], b[1]) < max(a[0], b[0])


def test_clip_square_horizontal_line():
    sq = square(0.5, center=(0.5, 0.5))
    (t0, t1), = chords(sq, 0.0, 0.5)
    assert t1 - t0 == pytest.approx(1.0, abs=1e-12)


def test_clip_misses_region():
    tri = canonicalize_triangle(angles=[math.pi / 3] * 3)
    assert chords(tri, 0.0, 2.0) == []
    assert total_length(tri, 0.0, 2.0) == 0.0


def test_clip_concave_quadrangle_two_chords():
    quad = SimplePolygon(np.array([[0, 0], [4, 0], [1, 1], [0, 4]], dtype=float))
    theta, p = line_through((2.5, 0.0), (0.0, 2.5))  # x + y = 2.5
    assert theta == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)
    (a0, a1), (b0, b1) = chords(quad, theta, p)
    assert a1 - a0 == pytest.approx(0.75 * math.sqrt(2.0), abs=1e-12)
    assert b0 - a1 == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert b1 - b0 == pytest.approx(0.75 * math.sqrt(2.0), abs=1e-12)


def test_clip_rigid_motion_invariance():
    rng = np.random.default_rng(7)
    tri = canonicalize_triangle(angles=[DEG(80), DEG(70), DEG(30)])
    for _ in range(40):
        theta = float(rng.uniform(0.0, math.pi))
        lo, hi = PolygonSource(tri.vertices).support(theta)
        p = float(rng.uniform(lo, hi))
        base = total_length(tri, theta, p)

        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        shift = rng.uniform(-3.0, 3.0, 2)
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        moved_tri = Triangle(tri.vertices @ rot.T + shift)
        # transform two points of the original line to rebuild it
        u = np.array([math.cos(theta), math.sin(theta)])
        nrm = np.array([-math.sin(theta), math.cos(theta)])
        q0 = rot @ (p * nrm) + shift
        q1 = rot @ (p * nrm + u) + shift
        moved = total_length(moved_tri, *line_through(q0, q1))
        assert moved == pytest.approx(base, abs=1e-9)


def test_pair_chord_order_nonnegative():
    # both triangles of a pair as two loops of one source: the pieces come
    # sorted along the line, and they split the two convex chords
    rng = np.random.default_rng(13)
    pair = pair_from_angles(*CONVEX_PAIR_ANGLES)
    both = PolygonSource(pair.tri_a.vertices, pair.tri_b.vertices)
    for _ in range(60):
        theta = float(rng.uniform(0.0, math.pi))
        al, ah = PolygonSource(pair.tri_a.vertices).support(theta)
        bl, bh = PolygonSource(pair.tri_b.vertices).support(theta)
        lo, hi = max(al, bl), min(ah, bh)
        if lo >= hi:
            continue
        p = np.array([float(rng.uniform(lo, hi))])
        pieces = [(float(t0[0]), float(t1[0])) for t0, t1 in both.chords(theta, p)]
        ends = [t for piece in pieces for t in piece]
        assert ends == sorted(ends)
        convex = [ConvexSource(t.vertices).chords(theta, p)[0]
                  for t in (pair.tri_a, pair.tri_b)]
        expected = sum(max(0.0, float(t1[0] - t0[0])) for t0, t1 in convex)
        assert sum(t1 - t0 for t0, t1 in pieces) == pytest.approx(expected, abs=1e-12)


def test_cauchy_chord_integral_matches_area():
    """Integrating chord length over offsets recovers the area."""
    rng = np.random.default_rng(99)
    for _ in range(3):
        tri = canonicalize_triangle(
            angles=[DEG(t) for t in _random_angles(rng)])
        src = PolygonSource(tri.vertices)
        diam = tri.diameter
        dp = diam / 2000.0
        for theta in np.linspace(0.0, math.pi, 6, endpoint=False):
            lo, hi = src.support(float(theta))
            ps = np.arange(lo + dp / 2.0, hi, dp)
            total = sum(float((t1 - t0).sum())
                        for t0, t1 in src.chords(float(theta), ps)) * dp
            assert total == pytest.approx(tri.area, rel=1e-3)


def _random_angles(rng):
    while True:
        x = np.sort(rng.uniform(0.0, 180.0, 2))
        angles = (x[0], x[1] - x[0], 180.0 - x[1])
        if min(angles) >= 15.0:
            return angles


def test_classify_mirror_pair_convex():
    pair = classify_pair(
        Triangle.from_vertices((0, 0), (1, 0), (0.5, 1.0)),
        Triangle.from_vertices((0, 0), (1, 0), (0.5, -1.0)),
    )
    assert pair.kind == "shared_side_convex"
    assert pair.diagonal == pytest.approx(1.0)
    assert pair.cross_diagonal == pytest.approx(2.0)


def test_classify_convex_and_concave_examples():
    convex = pair_from_angles(*CONVEX_PAIR_ANGLES)
    assert convex.kind == "shared_side_convex"
    concave = pair_from_angles(*CONCAVE_PAIR_ANGLES)
    assert concave.kind == "shared_side_concave"
    # corner angles at the reflex end add beyond a straight angle
    c = concave.corner_angles
    assert max(c[0] + c[1], c[2] + c[3]) > math.pi


def test_classify_shared_vertex_and_disjoint():
    tris = triangulate(regular_polygon(5))
    pair = classify_pair(tris[0], tris[2])
    assert pair.kind == "shared_vertex"
    assert len(pair.shared_vertices) == 1

    t = Triangle.from_vertices((0, 0), (1, 0), (0, 1))
    far = Triangle(t.vertices + np.array([3.0, 0.0]))
    pair = classify_pair(t, far)
    assert pair.kind == "disjoint"
    assert pair.min_distance == pytest.approx(2.0, abs=1e-12)
    assert pair.max_distance == pytest.approx(math.hypot(4.0, 1.0), abs=1e-12)


def test_classify_rejects_overlap():
    t = Triangle.from_vertices((0, 0), (2, 0), (0, 2))
    shifted = Triangle(t.vertices + np.array([0.5, 0.1]))
    with pytest.raises(GeometryError):
        classify_pair(t, shifted)


def test_approximate_disk():
    with pytest.raises(GeometryError):
        approximate_disk((0, 0), 1.0, 4)
    with pytest.raises(GeometryError):
        approximate_disk((0, 0), 1.0, 6)
    octagon = approximate_disk((0, 0), 1.0, 8)
    assert octagon.area == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    gon64 = approximate_disk((0, 0), 0.7, 64)
    exact = 32.0 * 0.49 * math.sin(2.0 * math.pi / 64.0)
    assert gon64.area == pytest.approx(exact, rel=1e-12)
    assert abs(gon64.area - math.pi * 0.49) / (math.pi * 0.49) < 0.0017


def test_hull_diameter():
    sq = square(0.5)
    assert hull_diameter(sq.vertices) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_geometry_from_spec():
    tri = geometry_from_spec({"angles": [60, 60, 60]})
    assert isinstance(tri, Triangle)
    assert tri.side_lengths[0] == pytest.approx(1.0, abs=1e-12)
    tri2 = geometry_from_spec({"angles": [60, 60, 60], "scale": 3.0})
    assert tri2.side_lengths[0] == pytest.approx(3.0, rel=1e-12)
    tri3 = geometry_from_spec({"vertices": [[0, 0], [1, 0], [0, 1]]})
    assert isinstance(tri3, Triangle)
    poly = geometry_from_spec({"vertices": regular_polygon(5).vertices.tolist()})
    assert isinstance(poly, SimplePolygon)
    scaled = geometry_from_spec(
        {"vertices": [[0, 0], [1, 0], [0, 1]], "scale": 2.0})
    assert scaled.area == pytest.approx(2.0, rel=1e-12)


def test_geometry_from_spec_rejections():
    for bad in (
        {"angles": [60, 60]},
        {"angles": [60, 60, 60], "vertices": [[0, 0], [1, 0], [0, 1]]},
        {"vertices": [[0, 0], [1, 0]]},
        {"angles": [60, 60, 60], "radius": 1.0},
        {"angles": [60, 60, 60], "scale": -1.0},
        [],
    ):
        with pytest.raises(GeometryError):
            geometry_from_spec(bad)
