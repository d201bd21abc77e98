"""Shared geometry builders for the test suite."""
import math

import numpy as np

from polydist.geom import SimplePolygon, Triangle, classify_pair


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
