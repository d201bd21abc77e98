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
    polygon_pdd,
    trapezoid_kernel,
    triangulate_ring,
    within_convex_pdf,
    within_triangle_pdf,
)
from polydist import geom
from polydist.geom import approximate_disk, hull_diameter
from polydist.km_engine import (
    DifferenceSource,
    PolygonSource,
    UnionSource,
    sweep_between,
    sweep_ring,
    sweep_within,
)
from polydist.mc_oracle import SampleConfig, ks_distance, pdd_mc
from polydist import km_engine

from shapes import (
    CONCAVE_PAIR_ANGLES,
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
    # a grid is bounded above too, before any sweep allocates its bins
    assert KMConfig(grid_points=km_engine.GRID_POINTS_MAX).grid_points == 1 << 20
    with pytest.raises(ValueError, match=str(km_engine.GRID_POINTS_MAX)):
        KMConfig(grid_points=km_engine.GRID_POINTS_MAX + 1)


def test_config_grid_points_must_be_an_integer():
    # a float count once validated and then failed inside np.linspace
    for bad in (100.5, 100.0, True, "100"):
        with pytest.raises(ValueError, match="must be an integer"):
            KMConfig(grid_points=bad)
    assert KMConfig(grid_points=np.int64(100)).grid_points == 100
    assert KMConfig(grid_points=np.int32(100)).grid_points == 100


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


def test_union_source_matches_single_convex_sweep():
    # a square swept directly must match the union of its two halves:
    # kernels are additive across a split chord.
    sq = square(0.5)
    tri_a = Triangle.from_vertices(*sq.vertices[[0, 1, 2]])
    tri_b = Triangle.from_vertices(*sq.vertices[[0, 2, 3]])
    cfg = KMConfig(d_theta=math.pi / 240, d_p=1.0 / 300, grid_points=150)
    d_max = sq.diameter
    whole = sweep_within(PolygonSource(sq.vertices), sq.area, d_max, cfg)
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


def test_ring_sweep_of_two_holes_matches_three_sweeps():
    # one sweep of an outer loop and two holes: within the outer region,
    # within the holes (their union, on its own grid), between holes and
    # ring, and within the ring
    outer = square(0.5)
    holes = [square(0.15, center=(-0.25, 0.0)).vertices, square(0.1, center=(0.25, 0.1)).vertices]
    s1 = outer.area
    s2 = sum(SimplePolygon(h).area for h in holes)
    d_max, holes_d_max = outer.diameter, hull_diameter(np.vstack(holes))
    ring = sweep_ring(PolygonSource(outer.vertices, *holes), s1, s2, d_max, holes_d_max, FAST)
    separate = (
        sweep_within(PolygonSource(outer.vertices), s1, d_max, FAST),
        sweep_within(UnionSource(holes), s2, holes_d_max, FAST),
        sweep_between(UnionSource(holes), s2, PolygonSource(outer.vertices, *holes), s1 - s2,
                      d_max, FAST),
        sweep_within(PolygonSource(outer.vertices, *holes), s1 - s2, d_max, FAST),
    )
    assert len(ring) == len(separate)
    for got, want in zip(ring, separate):
        assert got.d_max == want.d_max
        np.testing.assert_allclose(got.values, want.values, rtol=0.0,
                                   atol=1e-12 * want.values.max())
        assert got.meta["orientations"] == want.meta["orientations"]
    # each edge pair is binned once, not once per curve: as many terms as
    # one sweep of the ring
    assert ring[0].meta["pair_terms"] == separate[3].meta["pair_terms"]


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


@pytest.mark.parametrize("d_theta", [math.pi / 720, math.pi / 1440], ids=["default", "half-step"])
def test_triangle_pair_projects_once(monkeypatch, d_theta):
    # the 9 edge pairs of a triangle pair, or of one triangle, at every
    # orientation fit one block
    calls = []
    project = km_engine._project

    def counting(*args):
        calls.append(len(args[2]))
        return project(*args)

    monkeypatch.setattr(km_engine, "_project", counting)
    cfg = KMConfig(d_theta=d_theta)
    curve = cross_pair_pdf(pair_from_angles(*CONVEX_PAIR_ANGLES), cfg)
    assert calls == [curve.meta["orientations"]]
    calls.clear()
    curve = within_triangle_pdf(canonicalize_triangle(angles=np.radians([80.0, 70.0, 30.0])), cfg)
    assert calls == [curve.meta["orientations"]]


def test_orientation_blocks_are_built_once_per_configuration():
    first = km_engine._blocks(9, km_engine._BLOCK_CANDIDATES, KMConfig())
    again = km_engine._blocks(9, km_engine._BLOCK_CANDIDATES, KMConfig())
    assert again is first
    theta, weight = km_engine._orientations(KMConfig())
    for (rotation, w), th in zip(first, np.array_split(theta, len(first))):
        assert not rotation.flags.writeable and not w.flags.writeable
        np.testing.assert_array_equal(rotation, np.exp(-1j * th))
    np.testing.assert_array_equal(np.concatenate([w for _, w in first]), weight)


def test_sweep_entry_points_build_no_clipper(monkeypatch):
    # the sweeps read their sources' loops; only line-by-line checks clip
    calls = []
    init = geom.ConvexClipper.__init__

    def counting(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(geom.ConvexClipper, "__init__", counting)
    tri = canonicalize_triangle(angles=np.radians([80.0, 70.0, 30.0]))
    within_triangle_pdf(tri, FAST)
    within_convex_pdf(square(0.5), FAST)
    cross_pair_pdf(pair_from_angles(*CONVEX_PAIR_ANGLES), FAST)
    polygon_pdd(tri, FAST)
    assert calls == []


def brute_force_pair_terms(cfg, loops_a, loops_b=None, blocks=None):
    """Edge pairs whose offset ranges overlap strictly, found over the
    orientation rule with plain loops: e in A and f in B, or, without
    ``loops_b``, e < f among the edges of A.

    Returns the pairs as (e, f, orientation) triples, the edges numbered
    over A's loops and then B's, in the order the mask enumerates them:
    by block of orientations (``blocks``, their sizes; default one block),
    then by e, by f and by orientation."""
    theta, _ = km_engine._orientations(cfg)
    ranges = []
    for th in theta:
        sin, cos = math.sin(th), math.cos(th)
        ranges.append([])
        for loop in list(loops_a) + list(loops_b or []):
            p = [-x * sin + y * cos for x, y in np.asarray(loop).tolist()]
            # edge k runs from vertex k to vertex k + 1
            ends = [(p[k], p[(k + 1) % len(p)]) for k in range(len(p))]
            ranges[-1] += [(min(a, b), max(a, b)) for a, b in ends]
    n_a = sum(len(loop) for loop in loops_a)
    n = len(ranges[0])
    found, first = [], 0
    for size in blocks or [len(theta)]:
        for e in range(n_a):
            for f in range(n_a, n) if loops_b else range(e + 1, n):
                for k in range(first, first + size):
                    (lo_e, hi_e), (lo_f, hi_f) = ranges[k][e], ranges[k][f]
                    if lo_e < hi_e and lo_f < hi_f and lo_e < hi_f and lo_f < hi_e:
                        found.append((e, f, k))
        first += size
    return found


def test_between_sweep_bins_exactly_the_overlapping_edge_pairs():
    from polydist import classify_pair

    tri = Triangle.from_vertices((0.0, 0.0), (1.0, 0.0), (0.3, 0.8))
    pairs = [
        pair_from_angles(*CONVEX_PAIR_ANGLES),
        pair_from_angles(*CONCAVE_PAIR_ANGLES),
        classify_pair(tri, Triangle.from_vertices((0.0, 0.0), (-0.9, -0.2), (-0.4, -0.9))),
        classify_pair(tri, Triangle(tri.vertices + np.array([1.4, 0.3]))),
    ]
    assert [p.kind for p in pairs] == ["shared_side_convex", "shared_side_concave",
                                       "shared_vertex", "disjoint"]
    for pair in pairs:
        curve = cross_pair_pdf(pair, KMConfig())
        assert curve.meta["pair_terms"] == len(brute_force_pair_terms(
            KMConfig(), [pair.tri_a.vertices], [pair.tri_b.vertices]))


def test_within_sweep_bins_exactly_the_overlapping_edge_pairs():
    # the triangle, the L and the square ring take the mask, the 30-vertex
    # star the range query
    star = star_vertices(30, 11)
    assert 2 * len(square(0.5).vertices) <= km_engine._MASK_EDGES < len(star)
    regions = [
        [canonicalize_triangle(angles=np.radians([80.0, 70.0, 30.0])).vertices],
        [np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)],
        [square(0.5).vertices, square(0.3).vertices],
        [star],
    ]
    for loops in regions:
        source = PolygonSource(*loops)
        area = SimplePolygon(loops[0]).area - sum(SimplePolygon(h).area for h in loops[1:])
        curve = sweep_within(source, area, hull_diameter(loops[0]), FAST)
        assert curve.meta["pair_terms"] == len(brute_force_pair_terms(FAST, source.loops))


def recorded_pair_sequence(monkeypatch, sweep):
    """Run ``sweep`` and return the (e, f, orientation) triples of the edge
    pairs its ``_overlaps`` chunks yield, concatenated in order, with the
    sizes of its orientation blocks and of its chunks."""
    overlaps = km_engine._overlaps
    seen, blocks, chunks = [], [], []

    def recording(tab, n_rows, n_a):
        n, first = tab.shape[1] // n_rows, sum(blocks)
        blocks.append(n_rows)
        for e, f in overlaps(tab, n_rows, n_a):
            # table columns run over (orientation, edge)
            assert np.array_equal(e // n, f // n)
            seen.extend(zip((e % n).tolist(), (f % n).tolist(), (first + e // n).tolist()))
            chunks.append(len(e))
            yield e, f

    monkeypatch.setattr(km_engine, "_overlaps", recording)
    sweep()
    monkeypatch.setattr(km_engine, "_overlaps", overlaps)
    return seen, blocks, chunks


def test_mask_enumerates_pairs_by_edge_pair_then_orientation(monkeypatch):
    # the bins' rounding depends on the order and grouping of the pair terms,
    # so the mask's sequence is pinned against plain loops
    from polydist import triangulate

    tri = canonicalize_triangle(angles=np.radians([80.0, 70.0, 30.0]))
    ell = SimplePolygon(np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float))
    pair = pair_from_angles(*CONVEX_PAIR_ANGLES)
    fan = triangulate(approximate_disk((0.0, 0.0), 1.0, 24))
    coarse = KMConfig(d_theta=math.pi / 180, grid_points=100)
    regions = [(KMConfig(), tri, None, None), (FAST, ell, None, None),
               (KMConfig(), [pair.tri_a], [pair.tri_b], pair.max_distance),
               # fan halves, 33 x 33 edges, with A sliced at every orientation
               (coarse, fan[:11], fan[11:], 2.0)]
    for cfg, part_a, part_b, d_max in regions:
        if part_b is None:
            source = PolygonSource(part_a.vertices)
            loops_a, loops_b = source.loops, None

            def sweep():
                return sweep_within(source, part_a.area, part_a.diameter, cfg)
        else:
            source_a, source_b = UnionSource(part_a), UnionSource(part_b)
            loops_a, loops_b = source_a.loops, source_b.loops
            areas = [sum(t.area for t in part) for part in (part_a, part_b)]

            def sweep():
                return sweep_between(source_a, areas[0], source_b, areas[1], d_max, cfg)
        sliced = len(loops_a) > 1
        if sliced:
            monkeypatch.setattr(km_engine, "_BLOCK_CANDIDATES", 256)
        seen, blocks, chunks = recorded_pair_sequence(monkeypatch, sweep)
        assert seen == brute_force_pair_terms(cfg, loops_a, loops_b, blocks)
        assert max(chunks) <= km_engine._BLOCK_TERMS
        if sliced:
            # one orientation per block, and slices of A within it
            assert set(blocks) == {1} and len(chunks) > len(blocks)
        else:
            assert len(blocks) == 1


def test_between_sweep_in_slices_of_a_finds_the_same_pairs(monkeypatch):
    # fan halves of a 24-gon: 33 x 33 edges; a small candidate budget splits
    # A into slices at each single orientation
    from polydist import triangulate

    tris = triangulate(approximate_disk((0.0, 0.0), 1.0, 24))
    part_a, part_b = UnionSource(tris[:11]), UnionSource(tris[11:])
    area_a, area_b = sum(t.area for t in tris[:11]), sum(t.area for t in tris[11:])
    ref = sweep_between(part_a, area_a, part_b, area_b, 2.0, FAST)
    monkeypatch.setattr(km_engine, "_BLOCK_CANDIDATES", 256)
    sliced = sweep_between(part_a, area_a, part_b, area_b, 2.0, FAST)
    assert sliced.meta["pair_terms"] == ref.meta["pair_terms"]
    np.testing.assert_allclose(sliced.values, ref.values, rtol=0.0,
                               atol=1e-12 * ref.values.max())


def test_mask_and_range_query_find_the_same_pairs(monkeypatch):
    # a 24-vertex star lies above the mask's edge limit and a 21-edge ring
    # at it: each is swept both ways
    star = SimplePolygon(star_vertices(24, 5))
    outer = SimplePolygon(star_vertices(12, 3) * 2.0)
    hole = approximate_disk((0.05, -0.02), 0.4, 9)
    assert len(outer.vertices) + len(hole.vertices) <= km_engine._MASK_EDGES < len(star.vertices)

    def sweeps():
        ring = sweep_ring(PolygonSource(outer.vertices, hole.vertices), outer.area, hole.area,
                          outer.diameter, hole.diameter, FAST)
        return (sweep_within(PolygonSource(star.vertices), star.area, star.diameter, FAST),
                *ring)

    default = sweeps()
    for limit in (0, 100):
        monkeypatch.setattr(km_engine, "_MASK_EDGES", limit)
        for got, want in zip(sweeps(), default):
            assert got.meta["pair_terms"] == want.meta["pair_terms"]
            np.testing.assert_allclose(got.values, want.values, rtol=0.0,
                                       atol=1e-12 * want.values.max())


def mean_ramp_terms(rng, m, dx, d_max):
    """Ramp terms (x, q) of every kind the binning tells apart, shuffled:
    wide (w >= dx), narrow with a node inside [lo, hi) and with none, zero
    width, and ranges reaching or lying beyond d_max.  x's two rows are in
    either order."""
    node = rng.integers(1, round(d_max / dx), m) * dx
    kind = rng.integers(0, 5, m)
    lo = np.select([kind == 0, kind == 1, kind == 2, kind == 3],
                   [rng.uniform(0.0, d_max, m), node - rng.uniform(0.05, 0.95, m) * dx,
                    node + rng.uniform(0.05, 0.45, m) * dx, rng.uniform(0.0, d_max, m)],
                   rng.uniform(d_max - dx, d_max + 3.0 * dx, m))
    width = np.select([kind == 0, kind == 1, kind == 2, kind == 3],
                      [rng.uniform(1.0, 8.0, m) * dx, rng.uniform(0.96, 0.999, m) * dx,
                       rng.uniform(0.05, 0.5, m) * dx, 0.0], rng.uniform(0.0, 3.0, m) * dx)
    x = np.array([lo, lo + width])
    flip = rng.random(m) < 0.5
    x[:, flip] = x[::-1, flip]
    return x, rng.normal(size=m)


def mean_ramp_at(d, x, q):
    """q ((d - lo)_+^2 - (d - hi)_+^2) / (2w), or q (d - lo)_+ when w = 0,
    summed over the terms at each node d; written piecewise, without the
    cancellation of the two squares."""
    lo, hi = np.minimum(*x)[:, None], np.maximum(*x)[:, None]
    width = np.where(hi > lo, hi - lo, 1.0)
    ramp = np.where(d >= hi, d - 0.5 * (lo + hi),
                    np.where(d > lo, (d - lo) ** 2 / (2.0 * width), 0.0))
    return q @ ramp


def test_slab_moments_sum_every_ramp_exactly_at_every_node():
    rng = np.random.default_rng(2025)
    n, d_max = 80, 2.5
    dx = d_max / n
    x, q = mean_ramp_terms(rng, 3000, dx, d_max)
    moments = km_engine._SlabMoments(n, d_max)
    # in chunks, as the sweep bins them
    for part in np.array_split(np.arange(len(q)), 3):
        moments.add_up(x[:, part], q[part])
    (got,) = moments.node_sums()
    want = mean_ramp_at(np.arange(n + 1) * dx, x, q)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # stacked sums over their own grids, each term binned into its row
    d_maxes = [d_max, 1.7]
    rows = rng.integers(0, 2, len(q))
    x2, _ = mean_ramp_terms(rng, len(q), 1.7 / n, 1.7)
    x = np.where(rows == 0, x, x2)
    moments = km_engine._SlabMoments(n, d_maxes)
    moments.add_up(x, q, rows)
    sums = moments.node_sums()
    for r, top in enumerate(d_maxes):
        want = mean_ramp_at(np.arange(n + 1) * (top / n), x[:, rows == r], q[rows == r])
        assert np.max(np.abs(sums[r] - want)) <= 1e-12 * np.max(np.abs(want))


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


def star_vertices(n, seed):
    rng = np.random.default_rng(seed)
    radii = np.where(np.arange(n) % 2 == 0, rng.uniform(0.9, 1.0, n), rng.uniform(0.45, 0.6, n))
    ang = 2.0 * math.pi * (np.arange(n) + rng.uniform(-0.15, 0.15, n)) / n
    return np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)


def test_many_vertex_star_vs_mc():
    star = SimplePolygon(star_vertices(100, 100))
    curve = sweep_within(PolygonSource(star.vertices), star.area, star.diameter, FAST)
    ecdf = pdd_mc(star, star, SampleConfig(n_pairs=50_000, seed=1001))
    assert ks_distance(pdf_to_cdf(curve), ecdf) < 0.01


# ---------------------------------------------------------------------------
# The signed edge-pair kernel
# ---------------------------------------------------------------------------


def relisted(loop, start=2):
    """The same loop listed the other way round, from another vertex."""
    return np.roll(np.asarray(loop)[::-1], start, axis=0)


def test_star_listing_and_translation_leave_the_curve_alone():
    star = star_vertices(20, 7)
    area = SimplePolygon(star).area
    d_max = SimplePolygon(star).diameter
    ref = sweep_within(PolygonSource(star), area, d_max, FAST).values
    for loop in (relisted(star), star + np.array([0.7, -1.3])):
        curve = sweep_within(PolygonSource(loop), area, d_max, FAST)
        np.testing.assert_allclose(curve.values, ref, rtol=0.0, atol=1e-12)


def test_ring_hole_listing_leaves_the_curve_alone():
    outer = SimplePolygon(star_vertices(12, 3) * 2.0)
    hole = approximate_disk((0.05, -0.02), 0.4, 9)
    s2, s3 = hole.area, outer.area - hole.area
    args = (outer.diameter, FAST)
    for source in (PolygonSource, DifferenceSource):
        within = sweep_within(source(outer.vertices, hole.vertices), s3, *args).values
        flipped = sweep_within(source(outer.vertices, relisted(hole.vertices)), s3, *args)
        np.testing.assert_allclose(flipped.values, within, rtol=0.0, atol=1e-12)
    between = sweep_between(PolygonSource(hole.vertices), s2,
                            PolygonSource(outer.vertices, hole.vertices), s3, *args).values
    flipped = sweep_between(PolygonSource(relisted(hole.vertices)), s2,
                            PolygonSource(outer.vertices, relisted(hole.vertices)), s3, *args)
    np.testing.assert_allclose(flipped.values, between, rtol=0.0, atol=1e-12)


def test_union_piece_listing_leaves_the_curve_alone():
    # touching triangles share vertices, the case a point-in-polygon
    # nesting test misreads as one piece inside another
    sq = square(0.5)
    pieces = [sq.vertices[[0, 1, 2]], sq.vertices[[0, 2, 3]]]
    ref = sweep_within(UnionSource(pieces), sq.area, sq.diameter, FAST).values
    # flipping every piece flips every crossing sign and changes no product
    # of two, so flip each piece on its own
    for k in range(len(pieces)):
        flipped = [relisted(p, 1) if j == k else p for j, p in enumerate(pieces)]
        curve = sweep_within(UnionSource(flipped), sq.area, sq.diameter, FAST)
        np.testing.assert_allclose(curve.values, ref, rtol=0.0, atol=1e-12)


def test_zero_width_edges_are_masked():
    # a repeated vertex makes an edge of zero length, which spans no offsets
    # at any orientation; RuntimeWarnings are errors under this test suite
    sq = square(0.5)
    loop = np.insert(sq.vertices, 2, sq.vertices[1], axis=0)
    ref = sweep_within(PolygonSource(sq.vertices), sq.area, sq.diameter, FAST)
    curve = sweep_within(PolygonSource(loop), sq.area, sq.diameter, FAST)
    np.testing.assert_allclose(curve.values, ref.values, rtol=0.0, atol=1e-12)
    assert curve.meta["pair_terms"] == ref.meta["pair_terms"]
    # and on either side of a between sweep
    right = PolygonSource(sq.vertices + np.array([1.0, 0.0]))
    ref = sweep_between(PolygonSource(sq.vertices), sq.area, right, sq.area, 2.5, FAST)
    for a, b in ((PolygonSource(loop), right), (right, PolygonSource(loop))):
        curve = sweep_between(a, sq.area, b, sq.area, 2.5, FAST)
        np.testing.assert_allclose(curve.values, ref.values, rtol=0.0, atol=1e-12)
        assert curve.meta["pair_terms"] == ref.meta["pair_terms"]


def test_regular_64_gon_bins_only_overlapping_edge_pairs():
    # a convex polygon's edges overlap in offset only across its two
    # chains, about E pairs per orientation instead of all E (E - 1) / 2
    disk = approximate_disk((0.0, 0.0), 1.0, 64)
    curve = sweep_within(PolygonSource(disk.vertices), disk.area, disk.diameter, FAST)
    assert curve.meta["orientations"] == 360
    assert 0 < curve.meta["pair_terms"] <= 2 * 64 * curve.meta["orientations"]
