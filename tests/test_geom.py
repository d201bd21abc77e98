"""Geometry layer: canonical triangles, polygons, clipping, pair classification.

Line clipping is tested through ``ConvexSource``, the engine's chord source
for a convex region and the only one that clips single lines.  It reads the
sweeps' edge projection, ``geom._project``, and is checked against a plain
half-plane clip kept here as the reference.
"""
import math

import numpy as np
import pytest

from polydist import geom
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
    triangulate_ring,
)
from polydist.km_engine import ConvexSource
from shapes import benchmark_star, line_through, pair_from_angles, regular_polygon, square
from shapes import reference_ear_clip, reference_first_crossing
from shapes import CONCAVE_PAIR_ANGLES, CONVEX_PAIR_ANGLES

DEG = math.radians


def assert_canonical(tri):
    """Longest side on [0, a] of the x-axis, apex above it."""
    a = tri.diameter
    np.testing.assert_allclose(tri.vertices[:2], [[0.0, 0.0], [a, 0.0]], rtol=0.0, atol=1e-12 * a)
    assert tri.vertices[2, 1] > 0.0


def test_canonical_equilateral():
    tri = canonicalize_triangle(angles=[math.pi / 3] * 3)
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    np.testing.assert_allclose(tri.vertices, expected, atol=1e-12)
    np.testing.assert_allclose(tri.side_lengths, (1.0, 1.0, 1.0), atol=1e-12)
    assert_canonical(tri)


def test_canonical_law_of_sines_wide_triangle():
    tri = canonicalize_triangle(angles=[DEG(130), DEG(30), DEG(20)])
    a, b, c = tri.side_lengths
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(math.sin(DEG(30)) / math.sin(DEG(130)), abs=1e-12)
    assert c == pytest.approx(math.sin(DEG(20)) / math.sin(DEG(130)), abs=1e-12)
    alpha, beta, gamma = tri.angles
    assert alpha >= beta >= gamma
    assert alpha + beta + gamma == pytest.approx(math.pi, abs=1e-12)


def test_canonical_scale():
    tri = canonicalize_triangle(angles=[DEG(80), DEG(70), DEG(30)], scale=2.5)
    assert tri.side_lengths[0] == pytest.approx(2.5, rel=1e-12)
    assert_canonical(tri)


def test_canonical_rejections():
    with pytest.raises(GeometryError):
        canonicalize_triangle(angles=[0.0, math.pi / 2, math.pi / 2])
    with pytest.raises(GeometryError):
        canonicalize_triangle(angles=[0.5, 0.5, 0.5])  # sum far from pi
    # a NaN compares False with everything; it once gave the (80, 70, 30)
    # triangle, whose angles the other two imply
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GeometryError, match=r"in \(0, pi\)"):
            canonicalize_triangle(angles=[DEG(80), DEG(70), bad])


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
    # an uneven bowtie has nonzero area, so the crossing test rejects it;
    # CCW it lists (0, 1), (2, 0), (2, 2), (0, 0)
    with pytest.raises(GeometryError, match="edges 0 and 2"):
        SimplePolygon(np.array([[0, 0], [2, 2], [2, 0], [0, 1]], dtype=float))
    cw = SimplePolygon(np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=float))
    assert cw.area > 0.0  # orientation normalized to CCW


def test_non_finite_coordinates_are_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        quad = [[0, 0], [1, 0], [1, 1], [bad, 1]]
        with pytest.raises(GeometryError, match="non-finite"):
            SimplePolygon(np.array(quad, dtype=float))
        with pytest.raises(GeometryError, match="non-finite"):
            SimplePolygon.from_vertices(quad)
        with pytest.raises(GeometryError, match="non-finite"):
            Triangle(np.array([[0, 0], [1, 0], [bad, 1]], dtype=float))
        with pytest.raises(GeometryError, match="non-finite"):
            Triangle.from_vertices((0, 0), (1, 0), (0, bad))
        # three vertices once gave a Triangle of area nan
        with pytest.raises(GeometryError, match="non-finite"):
            geometry_from_spec({"vertices": [[0, 0], [1, 0], [bad, 1]]})
        with pytest.raises(GeometryError, match="non-finite"):
            geometry_from_spec({"vertices": quad})
    # finite coordinates that overflow once scaled, with no overflow warning
    # (an error under this suite's warning filter)
    for vertices in ([[0, 0], [1e300, 0], [0, 1e300]], [[0, 0], [1e300, 0], [0, 1e300], [1, 1]]):
        with pytest.raises(GeometryError, match="non-finite"):
            geometry_from_spec({"vertices": vertices, "scale": 1e10})


def test_simple_polygon_copies_the_callers_array():
    # a C-contiguous float64 array already listed CCW needs no conversion
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    poly = SimplePolygon(pts)
    assert pts.flags.writeable
    assert not np.shares_memory(poly.vertices, pts)
    pts[0] = (5.0, 5.0)
    np.testing.assert_array_equal(pts[1:], [[1, 0], [1, 1], [0, 1]])
    np.testing.assert_array_equal(poly.vertices[0], [0.0, 0.0])


def test_many_vertex_star_swap_is_rejected():
    ang = 2.0 * math.pi * np.arange(200) / 200
    radius = np.where(np.arange(200) % 10 == 0, 0.8, 1.0)
    pts = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    assert not SimplePolygon(pts.copy()).is_convex()
    # swapping vertices 57 and 58 makes edges 56 and 58 cross
    pts[[57, 58]] = pts[[58, 57]]
    with pytest.raises(GeometryError, match="edges 56 and 58"):
        SimplePolygon(pts)


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


L_SHAPE = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)


def _comb(teeth: int) -> np.ndarray:
    """A comb: a base bar with ``teeth`` upward teeth, CCW."""
    top = []
    for k in reversed(range(teeth)):
        x = 2.0 * k
        top += [[x + 1.0, 1.0], [x + 1.0, 4.0], [x, 4.0], [x, 1.0]]
    return np.array([[0.0, 0.0], [2.0 * teeth - 1.0, 0.0]] + top[:-1] + [[0.0, 1.0]])


def _grid_loops(rng, count: int) -> list[np.ndarray]:
    """Integer points in angle order around an off-grid point: loops full
    of collinear vertices, some with zero-width spikes."""
    loops = []
    while len(loops) < count:
        pts = np.unique(rng.integers(-3, 4, (int(rng.integers(5, 14)), 2)), axis=0)
        loop = pts[np.argsort(np.arctan2(pts[:, 1] - 0.1, pts[:, 0] - 0.13))]
        if len(loop) >= 4:
            loops.append(loop.astype(float))
    return loops


def _ring_loops(monkeypatch) -> list[np.ndarray]:
    """The bridged loops ``triangulate_ring`` ear-clips."""
    loops = []
    clip = geom._ear_clip
    monkeypatch.setattr(geom, "_ear_clip", lambda v: loops.append(v) or clip(v))
    outer = square(1.0)
    for hole in (square(0.5), square(0.2, center=(0.4, -0.3)),
                 SimplePolygon(np.array([[-0.6, 0.1], [0.5, 0.1], [0.5, 0.5], [-0.6, 0.5]])),
                 approximate_disk((0.1, 0.05), 0.6, 64)):
        triangulate_ring(outer, hole)
    triangulate_ring(regular_polygon(12, side=1.0), approximate_disk((0.2, 0.0), 0.9, 64))
    monkeypatch.undo()
    return loops


def _clip_outcome(clip, loop):
    """An ear clipper's triangles as one array, or its error message."""
    try:
        return np.array(clip(loop)).reshape(-1, 3, 2)
    except GeometryError as err:
        return str(err)


def test_ear_clip_matches_the_reference_clipper(monkeypatch):
    rng = np.random.default_rng(27)
    stars = [benchmark_star(n, seed) for n, seed in
             [(6, 1), (7, 2), (10, 3), (25, 4), (64, 5), (101, 6), (200, 19), (257, 7), (400, 8)]]
    loops = [p.vertices for p in stars]
    loops += [_star_polygon(rng, int(rng.integers(4, 13))).vertices for _ in range(20)]
    loops += [L_SHAPE, SimplePolygon(_comb(6)).vertices]
    grid = _grid_loops(rng, 60)
    rings = _ring_loops(monkeypatch)
    assert len(rings) == 5
    loops += grid + rings
    # bridged loops of holes that touch the outer square or fold onto
    # themselves: here an ear clipped first was the only blocker of an
    # earlier corner, and the first needs the strict pass before it fails
    loops += [np.array(v, dtype=float) for v in (
        [[-3, -3], [-2, -3], [-3, 0], [-2, 1], [0, 0], [0, -1], [0, -3], [-1, -2],
         [-2, -3], [-3, -3], [3, -3], [3, 3], [-3, 3]],
        [[-4, -4], [4, -4], [2, -1], [0, 1], [1, 0], [3, 0], [2, -1], [4, -4], [4, 4], [-4, 4]],
    )]
    # loops that cross themselves: most have no ear at some step
    tangled = [rng.uniform(-1.0, 1.0, (int(rng.integers(4, 12)), 2)) for _ in range(30)]
    loops += tangled
    failed = spiked = 0
    for loop in loops:
        want = _clip_outcome(reference_ear_clip, loop)
        got = _clip_outcome(geom._ear_clip, loop)
        if isinstance(want, str):
            assert got == want
            failed += 1
            continue
        # the same triangles, in the same order, to the bit
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
        # a dropped spike or a degenerate last triangle leaves fewer than n - 2
        spiked += len(want) < len(loop) - 2
    assert failed >= 10 and spiked >= 5
    # triangulate builds the triangles from_vertices builds, area bits included
    for poly in stars + [SimplePolygon(L_SHAPE), regular_polygon(9)]:
        got = triangulate(poly)
        corners = (reference_ear_clip(poly.vertices) if not poly.is_convex() else
                   [[poly.vertices[0], poly.vertices[i], poly.vertices[i + 1]]
                    for i in range(1, len(poly.vertices) - 1)])
        want = [Triangle.from_vertices(*c) for c in corners]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.vertices, w.vertices)
            assert g.area == w.area and type(g.area) is float
            assert not g.vertices.flags.writeable


def test_triangles_flip_clockwise_rows_and_reject_degenerate_ones():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]])
    got = geom._triangles(np.stack([tri, tri[::-1]]))
    want = Triangle.from_vertices(*tri[::-1])
    np.testing.assert_array_equal(got[1].vertices, want.vertices)
    assert got[1].area == want.area
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(GeometryError, match="degenerate"):
        geom._triangles(np.stack([tri, flat]))


def test_crossing_test_reports_the_all_pairs_first_crossing():
    rng = np.random.default_rng(31)
    bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    uneven = np.array([[0, 0], [2, 2], [2, 0], [0, 1]], dtype=float)
    # random loops cross many times; long ones span several blocks of rows
    loops = [bowtie, uneven] + [rng.uniform(-1.0, 1.0, (n, 2)) for n in
                                (4, 5, 6, 9, 17, 40, 70, 130, 300)]
    star = benchmark_star(200, 19).vertices
    for i in (199, 150, 60, 1):
        # one vertex pulled out past the far side: its edges cross that side
        yanked = star.copy()
        yanked[i] *= -1.5
        loops.append(yanked)
    for loop in loops:
        want = reference_first_crossing(loop, loop, 1e-12)
        assert want is not None
        assert geom._first_crossing(loop, loop, 1e-12, same_loop=True) == want
    # a simple loop has none, and two loops take every ordered pair
    simple = benchmark_star(300, 3).vertices
    assert geom._first_crossing(simple, simple, 1e-12, same_loop=True) is None
    for _ in range(5):
        p, q = rng.uniform(-1.0, 1.0, (37, 2)), rng.uniform(-1.0, 1.0, (23, 2))
        assert geom._first_crossing(p, q, 1e-12) == reference_first_crossing(p, q, 1e-12)


def test_regions_compare_and_hash_by_identity():
    pts = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    poly, twin = SimplePolygon(pts), SimplePolygon(pts.copy())
    tri, tri_twin = (Triangle.from_vertices((0, 0), (1, 0), (0, 1)) for _ in range(2))
    ring, ring_twin = (geom.HollowRegion(square(1.0), square(0.5)) for _ in range(2))
    for a, b in ((poly, twin), (tri, tri_twin), (ring, ring_twin)):
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
        assert {a: 1, b: 2}[b] == 2


def chord(region, theta, p):
    """(start, end) of the chord one line cuts from a convex region; a miss
    has start > end."""
    (t0, t1), = ConvexSource(region.vertices).chords(theta, np.array([p]))
    return float(t0[0]), float(t1[0])


def chord_length(region, theta, p):
    t0, t1 = chord(region, theta, p)
    return max(0.0, t1 - t0)


def test_support_interval_examples():
    tri = canonicalize_triangle(angles=[math.pi / 3] * 3)
    lo, hi = ConvexSource(tri.vertices).support(0.0)
    assert hi - lo == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    sq = square(0.5, center=(0.5, 0.5))
    lo, hi = ConvexSource(sq.vertices).support(math.pi / 2.0)
    assert hi - lo == pytest.approx(1.0, abs=1e-12)
    # translated copies never meet the same vertical line
    far = Triangle(tri.vertices + np.array([5.0, 0.0]))
    a = ConvexSource(tri.vertices).support(math.pi / 2.0)
    b = ConvexSource(far.vertices).support(math.pi / 2.0)
    assert min(a[1], b[1]) < max(a[0], b[0])


def half_plane_chord(vertices, theta, p):
    """(t0, t1) of the line (theta, p) cut by the inner half-plane of each
    edge of a CCW convex polygon in turn; a miss has t0 > t1."""
    u = np.array([math.cos(theta), math.sin(theta)])
    n = np.array([-math.sin(theta), math.cos(theta)])
    t0, t1 = -math.inf, math.inf
    for a, b in zip(vertices, np.roll(vertices, -1, axis=0)):
        inward = np.array([a[1] - b[1], b[0] - a[0]])
        # the points p n + t u with inward . (p n + t u - a) >= 0
        rate, at_zero = float(inward @ u), float(inward @ (p * n - a))
        if rate > 0.0:
            t0 = max(t0, -at_zero / rate)
        elif rate < 0.0:
            t1 = min(t1, -at_zero / rate)
        elif at_zero < 0.0:
            return math.inf, -math.inf
    return t0, t1


def random_convex_polygon(rng):
    """3 to 12 vertices on a random ellipse, counter-clockwise."""
    k = int(rng.integers(3, 13))
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
    axes = rng.uniform(0.2, 3.0, 2)
    phi = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    pts = np.stack([axes[0] * np.cos(ang), axes[1] * np.sin(ang)], axis=1) @ rot.T
    return pts + rng.uniform(-5.0, 5.0, 2)


def test_chords_match_half_plane_clip():
    rng = np.random.default_rng(2323)
    for _ in range(60):
        v = random_convex_polygon(rng)
        scale = float(np.ptp(v, axis=0).max())
        tol = 1e-12 * scale
        source = ConvexSource(v)
        edges = np.roll(v, -1, axis=0) - v
        thetas = np.concatenate([np.arctan2(edges[:, 1], edges[:, 0]) % math.pi,
                                 rng.uniform(0.0, math.pi, 4)])
        for theta in thetas:
            offsets = -v[:, 0] * math.sin(theta) + v[:, 1] * math.cos(theta)
            ends = np.sort(offsets)
            p = np.concatenate([offsets, 0.5 * (ends[1:] + ends[:-1]),
                                ends[[0, -1]] + [-0.1 * scale, 0.1 * scale]])
            (t0, t1), = source.chords(theta, p)
            # a tangent line touches a vertex or runs along an edge: its
            # chord, if any, stays within the vertices at that offset
            tv = v[:, 0] * math.cos(theta) + v[:, 1] * math.sin(theta)
            for k, pk in enumerate(p):
                if min(abs(pk - ends[0]), abs(pk - ends[-1])) <= tol:
                    on = np.abs(offsets - pk) <= tol
                    if t0[k] <= t1[k]:
                        assert tv[on].min() - tol <= t0[k] and t1[k] <= tv[on].max() + tol
                    continue
                r0, r1 = half_plane_chord(v, theta, pk)
                if r0 > r1:
                    assert t0[k] > t1[k]
                else:
                    assert abs(t0[k] - r0) <= tol and abs(t1[k] - r1) <= tol


def test_clip_square_horizontal_line():
    sq = square(0.5, center=(0.5, 0.5))
    t0, t1 = chord(sq, 0.0, 0.5)
    assert t1 - t0 == pytest.approx(1.0, abs=1e-12)


def test_clip_misses_region():
    tri = canonicalize_triangle(angles=[math.pi / 3] * 3)
    t0, t1 = chord(tri, 0.0, 2.0)
    assert t0 > t1
    assert chord_length(tri, 0.0, 2.0) == 0.0


def test_clip_rigid_motion_invariance():
    rng = np.random.default_rng(7)
    tri = canonicalize_triangle(angles=[DEG(80), DEG(70), DEG(30)])
    for _ in range(40):
        theta = float(rng.uniform(0.0, math.pi))
        lo, hi = ConvexSource(tri.vertices).support(theta)
        p = float(rng.uniform(lo, hi))
        base = chord_length(tri, theta, p)

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
        moved = chord_length(moved_tri, *line_through(q0, q1))
        assert moved == pytest.approx(base, abs=1e-9)


def test_classify_mirror_pair_convex():
    pair = classify_pair(
        Triangle.from_vertices((0, 0), (1, 0), (0.5, 1.0)),
        Triangle.from_vertices((0, 0), (1, 0), (0.5, -1.0)),
    )
    assert pair.kind == "shared_side_convex"


def test_classify_convex_and_concave_examples():
    convex = pair_from_angles(*CONVEX_PAIR_ANGLES)
    assert convex.kind == "shared_side_convex"
    concave = pair_from_angles(*CONCAVE_PAIR_ANGLES)
    assert concave.kind == "shared_side_concave"


def test_classify_shared_vertex_and_disjoint():
    tris = triangulate(regular_polygon(5))
    pair = classify_pair(tris[0], tris[2])
    assert pair.kind == "shared_vertex"

    t = Triangle.from_vertices((0, 0), (1, 0), (0, 1))
    far = Triangle(t.vertices + np.array([3.0, 0.0]))
    pair = classify_pair(t, far)
    assert pair.kind == "disjoint"
    assert pair.max_distance == pytest.approx(math.hypot(4.0, 1.0), abs=1e-12)


def test_classify_rejects_overlap():
    t = Triangle.from_vertices((0, 0), (2, 0), (0, 2))
    shifted = Triangle(t.vertices + np.array([0.5, 0.1]))
    with pytest.raises(GeometryError):
        classify_pair(t, shifted)


def test_classify_clips_only_pairs_no_edge_line_separates(monkeypatch):
    clips = []
    overlap_area = geom._overlap_area

    def counting(tri_a, tri_b):
        clips.append((tri_a, tri_b))
        return overlap_area(tri_a, tri_b)

    monkeypatch.setattr(geom, "_overlap_area", counting)
    tris = triangulate(regular_polygon(5))
    assert classify_pair(tris[0], tris[1]).kind == "shared_side_convex"
    assert classify_pair(tris[0], tris[2]).kind == "shared_vertex"
    assert clips == []
    t = Triangle.from_vertices((0, 0), (2, 0), (0, 2))
    with pytest.raises(GeometryError, match="triangle interiors overlap"):
        classify_pair(t, Triangle(t.vertices + np.array([0.5, 0.1])))
    assert len(clips) == 1


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


def test_geometry_from_spec_takes_numbers_only():
    bad_specs = {
        "angles": [{"angles": ["80", "70", "30"]}, {"angles": [80, 70, True]},
                   {"angles": [80, 70, None]}, {"angles": "80,70,30"}],
        "vertices": [{"vertices": [[True, True], [2, 0], [0, 2]]},
                     {"vertices": [[0, 0], ["2", 0], [0, 2]]},
                     {"vertices": [[0, 0], [2, 0], [2, 2], [0, "2"]]},
                     {"vertices": np.array([[0, 0], [1, 0], [0, 1]], dtype=bool)}],
        "scale": [{"angles": [80, 70, 30], "scale": "2"},
                  {"vertices": [[0, 0], [2, 0], [0, 2]], "scale": True},
                  {"angles": [80, 70, 30], "scale": None}],
    }
    for key, specs in bad_specs.items():
        for spec in specs:
            with pytest.raises(GeometryError, match=f'"{key}" takes numbers only'):
                geometry_from_spec(spec)
    # numbers of any numeric type are taken
    tri = geometry_from_spec({"angles": [np.int64(80), 70.0, 30], "scale": np.float64(2)})
    assert tri.side_lengths[0] == pytest.approx(2.0, rel=1e-12)
    poly = geometry_from_spec({"vertices": np.array([[0, 0], [2, 0], [2, 1], [0, 1]])})
    assert poly.area == pytest.approx(2.0, rel=1e-12)


def test_geometry_from_spec_checks_angles_in_degrees():
    for bad in ([80, 70, math.nan], [80, 70, math.inf], [200, -10, -10], [180, 0, 0]):
        with pytest.raises(GeometryError, match=r"must lie in \(0, 180\) degrees"):
            geometry_from_spec({"angles": bad})
    # the sum is reported as given, not in radians (2.96705972839036)
    with pytest.raises(GeometryError, match=r"sum to 180 degrees, got sum 170$"):
        geometry_from_spec({"angles": [80, 70, 20]})
