"""Shared geometry builders for the test suite, and the reference
versions of the geometry routines the package now runs faster."""
import importlib.util
import math
from pathlib import Path

import numpy as np

from polydist.geom import (
    EPS_CROSS,
    EPS_SNAP,
    GeometryError,
    SimplePolygon,
    Triangle,
    _cross2,
    _feature_scale,
    _next,
    classify_pair,
)


def regular_polygon(n: int, side: float = 1.0, start: int = 0) -> SimplePolygon:
    """Regular n-gon with the given side length, centered at the origin.

    ``start`` rotates the vertex labels so fans can start anywhere.
    """
    r = side / (2.0 * math.sin(math.pi / n))
    ang = 2.0 * math.pi * (np.arange(n) + 0.5) / n + math.pi / 2.0
    pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    return SimplePolygon(np.roll(pts, -start, axis=0))


def square(half: float, center=(0.0, 0.0)) -> SimplePolygon:
    cx, cy = center
    return SimplePolygon(np.array([
        [cx - half, cy - half], [cx + half, cy - half],
        [cx + half, cy + half], [cx - half, cy + half],
    ]))


def benchmark_star(n: int, seed: int) -> SimplePolygon:
    """The benchmark's concave star of ``n`` vertices."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return SimplePolygon.from_vertices(workloads.star_polygon(n, np.random.default_rng(seed)))


def pair_from_angles(angles_a, angles_b, shared: float = 1.0):
    """Two triangles joined along the x-axis segment (0,0)-(shared,0).

    Each triple is (apex angle, angle at the origin end, angle at the far
    end) in degrees; the first apex goes up, the second down.  The union is
    convex or concave depending on the corner sums at the shared endpoints.
    """
    pa, qa, ra = (math.radians(t) for t in angles_a)
    pb, qb, rb = (math.radians(t) for t in angles_b)
    la = shared * math.sin(ra) / math.sin(pa)
    apex_up = (la * math.cos(qa), la * math.sin(qa))
    lb = shared * math.sin(rb) / math.sin(pb)
    apex_dn = (lb * math.cos(qb), -lb * math.sin(qb))
    return classify_pair(
        Triangle.from_vertices((0.0, 0.0), (shared, 0.0), apex_up),
        Triangle.from_vertices((0.0, 0.0), (shared, 0.0), apex_dn),
    )


# apex 120 deg up / 80 deg down: both corner sums below 180, union convex
CONVEX_PAIR_ANGLES = ((120, 25, 35), (80, 50, 50))
# far-end corners 110 + 160 = 270 deg: reflex vertex, union concave
CONCAVE_PAIR_ANGLES = ((40, 30, 110), (15, 5, 160))


def line_through(p0, p1) -> tuple[float, float]:
    """The (theta, p) coordinates of the line through two points."""
    theta = math.atan2(p1[1] - p0[1], p1[0] - p0[0]) % math.pi
    p = -p0[0] * math.sin(theta) + p0[1] * math.cos(theta)
    return theta, p


def random_triangle(rng, min_angle_deg: float = 8.0) -> Triangle:
    """Random canonical-ish triangle with all angles >= min_angle_deg."""
    from polydist.geom import canonicalize_triangle

    while True:
        x = np.sort(rng.uniform(0.0, 180.0, 2))
        angles = (x[0], x[1] - x[0], 180.0 - x[1])
        if min(angles) >= min_angle_deg:
            return canonicalize_triangle(angles=[math.radians(t) for t in angles])


def random_angle_triple(rng, min_angle_deg: float = 12.0):
    while True:
        x = np.sort(rng.uniform(0.0, 180.0, 2))
        angles = (x[0], x[1] - x[0], 180.0 - x[1])
        if min(angles) >= min_angle_deg:
            return angles


def reference_ear_clip(vertices: np.ndarray) -> list[np.ndarray]:
    """The ear clipper as it was before it cached blockers, kept as the
    reference: every step gathers the remaining loop, recomputes every turn
    and retests corners in loop order until one is an ear.

    Ear-clip a CCW (weakly) simple vertex loop into triangles.  Tolerates
    coincident vertex copies such as the doubled bridge endpoints of a cut
    ring: copies coinciding with an ear corner never block the ear.
    """
    scale = _feature_scale(vertices)
    eps_area = EPS_CROSS * scale * scale
    snap2 = (EPS_SNAP * scale) ** 2
    idx = list(range(len(vertices)))
    triangles: list[np.ndarray] = []

    def is_ear(w: np.ndarray, k: int, strict_block: bool) -> bool:
        """Whether no remaining vertex blocks the convex corner k of loop w."""
        a, b, c = w[k - 1], w[k], w[(k + 1) % len(w)]
        # conservative pass: boundary contact blocks; strict pass: only
        # strictly interior points block (needed next to zero-width bridges)
        block_eps = -EPS_SNAP * scale * scale if strict_block else EPS_SNAP * scale * scale
        # the ear's own corners are at distance 0, so they never block
        free = (
            (((w - a) ** 2).sum(axis=1) > snap2)
            & (((w - b) ** 2).sum(axis=1) > snap2)
            & (((w - c) ** 2).sum(axis=1) > snap2)
        )
        inside = (
            (_cross2(b - a, w - a) >= -block_eps)
            & (_cross2(c - b, w - b) >= -block_eps)
            & (_cross2(a - c, w - c) >= -block_eps)
        )
        return not bool((free & inside).any())

    while len(idx) > 3:
        w = vertices[idx]
        turns = _cross2(w - np.roll(w, 1, axis=0), _next(w) - w)
        convex = np.flatnonzero(turns > eps_area)
        ear = next(
            (int(k) for strict in (False, True) for k in convex if is_ear(w, k, strict)),
            None,
        )
        if ear is not None:
            triangles.append(w[[ear - 1, ear, (ear + 1) % len(w)]])
            del idx[ear]
            continue
        # drop a collinear spike if one exists, else give up
        spikes = np.flatnonzero(np.abs(turns) <= eps_area)
        if not len(spikes):
            raise GeometryError("ear clipping failed; polygon may not be simple")
        del idx[int(spikes[0])]
    a, b, c = (vertices[i] for i in idx)
    if float(_cross2(b - a, c - b)) > eps_area:
        triangles.append(np.array([a, b, c]))
    return triangles


def reference_first_crossing(p: np.ndarray, q: np.ndarray, eps: float):
    """First (i, j) in row-major order where edge i of loop ``p`` properly
    crosses edge j of loop ``q``, or None: every ordered pair of edges in
    one array operation, as the crossing test was before it worked on
    shared point offsets and tested each unordered pair of one loop once."""
    a, b = p[:, None], _next(p)[:, None]
    c, d = q[None], _next(q)[None]
    o1 = _cross2(b - a, c - a)
    o2 = _cross2(b - a, d - a)
    o3 = _cross2(d - c, a - c)
    o4 = _cross2(d - c, b - c)
    hits = np.argwhere((o1 * o2 < -eps * eps) & (o3 * o4 < -eps * eps))
    return (int(hits[0, 0]), int(hits[0, 1])) if len(hits) else None
