"""Planar geometry for distance-distribution computations.

Triangles, simple polygons, the projection of edges onto lines in
(theta, p) coordinates (which the sweeps bin and the convex clipper reads),
and the classification operations the distribution engines are built on.

Conventions used throughout the package:

* angles are radians; a line orientation theta lies in [0, pi),
* the line with coordinates (theta, p) is the point set
  {(x, y) : -x*sin(theta) + y*cos(theta) = p}; its direction vector is
  u = (cos(theta), sin(theta)) and its unit normal is
  n = (-sin(theta), cos(theta)), so that p is the signed offset n . (x, y),
* points on a line are addressed by the arc-length parameter t = u . (x, y),
* polygon vertices are stored counter-clockwise (CCW).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Point2 = tuple[float, float]

# Tolerances.  Cross-product based predicates compare against EPS_CROSS scaled
# by the squared feature size; coincident vertices are snapped within EPS_SNAP
# times the feature size.
EPS_CROSS = 1e-12
EPS_SNAP = 1e-9
ANGLE_SUM_TOL = 1e-9


class GeometryError(ValueError):
    """Degenerate or inconsistent geometric input."""


def _cross2(u, v):
    """z-component of the cross product of 2-d vectors (vectorized)."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"expected an (n, 2) array of points, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise GeometryError("points have non-finite coordinates")
    return arr


def _next(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` shifted cyclically so row i holds row i+1: the same
    array as np.roll(a, -1, axis=0), at a fraction of its call overhead."""
    return np.concatenate((a[1:], a[:1]))


def _signed_area(vertices: np.ndarray) -> float:
    following = _next(vertices)
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.add.reduce(x * following[:, 1] - following[:, 0] * y))


def _feature_scale(vertices: np.ndarray) -> float:
    span = vertices.max(axis=0) - vertices.min(axis=0)
    return float(max(span[0], span[1], 1e-300))


# ---------------------------------------------------------------------------
# Triangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """A non-degenerate triangle with CCW vertices.

    Side lengths are exposed sorted descending as (a, b, c) together with the
    opposite angles (alpha, beta, gamma), so alpha >= beta >= gamma and
    a/sin(alpha) = b/sin(beta) = c/sin(gamma).
    """

    vertices: np.ndarray

    def __post_init__(self):
        arr = _as_points(self.vertices)
        if arr.shape[0] != 3:
            raise GeometryError("a triangle has exactly 3 vertices")
        area = _signed_area(arr)
        scale = _feature_scale(arr)
        if area * 2.0 <= EPS_CROSS * scale * scale:
            raise GeometryError("triangle is degenerate (zero or negative area)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "vertices", arr)
        object.__setattr__(self, "area", area)  # fills the cached property

    @classmethod
    def from_vertices(cls, p0, p1, p2) -> "Triangle":
        """Build a triangle from three points, reversing CW input to CCW."""
        arr = _as_points([p0, p1, p2])
        if _signed_area(arr) < 0.0:
            arr = arr[::-1]
        return cls(arr)

    # the vertices are read-only, so each figure is computed once
    @functools.cached_property
    def area(self) -> float:
        return _signed_area(self.vertices)

    @functools.cached_property
    def side_lengths(self) -> tuple[float, float, float]:
        """Side lengths sorted descending (a, b, c)."""
        v = self.vertices
        a, b, c = sorted(_lengths(_next(v) - v).tolist(), reverse=True)
        return a, b, c

    @property
    def angles(self) -> tuple[float, float, float]:
        """Interior angles sorted descending (alpha, beta, gamma)."""
        a, b, c = self.side_lengths
        alpha = math.acos(max(-1.0, min(1.0, (b * b + c * c - a * a) / (2 * b * c))))
        beta = math.acos(max(-1.0, min(1.0, (a * a + c * c - b * b) / (2 * a * c))))
        gamma = math.pi - alpha - beta
        return alpha, beta, gamma

    @property
    def diameter(self) -> float:
        return self.side_lengths[0]


def canonicalize_triangle(
    *,
    angles: Sequence[float] | None = None,
    sides: Sequence[float] | None = None,
    sas: tuple[float, float, float] | None = None,
    scale: float | None = None,
) -> Triangle:
    """Build a triangle in canonical position from one of three descriptions.

    Exactly one of ``angles`` (three interior angles, radians), ``sides``
    (three side lengths) or ``sas`` (side, included angle, side) must be
    given.  The result has its longest side on the x-axis from (0, 0) to
    (a, 0) with the apex in the upper half-plane.  The longest side is
    normalized to 1 unless ``scale`` is supplied, in which case it equals
    ``scale``.
    """
    given = [x is not None for x in (angles, sides, sas)]
    if sum(given) != 1:
        raise GeometryError("give exactly one of angles=, sides=, sas=")
    if scale is not None and not (scale > 0.0 and math.isfinite(scale)):
        raise GeometryError(f"scale must be positive and finite, got {scale}")

    if angles is not None:
        ang = [float(t) for t in angles]
        if len(ang) != 3 or any(t <= 0.0 for t in ang):
            raise GeometryError(f"need three positive angles, got {angles}")
        if abs(sum(ang) - math.pi) > ANGLE_SUM_TOL:
            raise GeometryError(
                f"angles must sum to pi within {ANGLE_SUM_TOL:g}, got sum {sum(ang)!r}"
            )
        alpha, beta, gamma = sorted(ang, reverse=True)
        # absorb the tolerated angle-sum defect so derived identities hold
        gamma = math.pi - alpha - beta
    else:
        if sas is not None:
            s1, included, s2 = (float(x) for x in sas)
            if s1 <= 0.0 or s2 <= 0.0:
                raise GeometryError("sas side lengths must be positive")
            if not 0.0 < included < math.pi:
                raise GeometryError("sas included angle must lie in (0, pi)")
            third = math.sqrt(s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * math.cos(included))
            side_list = [s1, s2, third]
        else:
            side_list = [float(x) for x in sides]  # type: ignore[union-attr]
            if len(side_list) != 3 or any(s <= 0.0 for s in side_list):
                raise GeometryError(f"need three positive side lengths, got {sides}")
        a0, b0, c0 = sorted(side_list, reverse=True)
        if b0 + c0 <= a0 * (1.0 + 1e-15):
            raise GeometryError(f"triangle inequality violated for sides {side_list}")
        alpha = math.acos(max(-1.0, min(1.0, (b0 * b0 + c0 * c0 - a0 * a0) / (2 * b0 * c0))))
        beta = math.acos(max(-1.0, min(1.0, (a0 * a0 + c0 * c0 - b0 * b0) / (2 * a0 * c0))))
        gamma = math.pi - alpha - beta

    a = 1.0 if scale is None else float(scale)
    sin_alpha = math.sin(alpha)
    b = a * math.sin(beta) / sin_alpha
    c = a * math.sin(gamma) / sin_alpha
    apex = (b * math.cos(gamma), b * math.sin(gamma))
    tri = Triangle(np.array([(0.0, 0.0), (a, 0.0), apex]))
    # guard against pathological float behaviour for extreme inputs
    aa, bb, cc = tri.side_lengths
    if not (abs(aa - a) <= 1e-9 * a and abs(bb - b) <= 1e-9 * a and abs(cc - c) <= 1e-9 * a):
        raise GeometryError("triangle construction lost precision; input too extreme")
    return tri


# ---------------------------------------------------------------------------
# Simple polygons
# ---------------------------------------------------------------------------


# Edge pairs per block of a crossing test: bounds its temporaries at a few
# MB for any vertex count.
_BLOCK_PAIRS = 1 << 16


def _proper_crossing(a, b, c, d, eps2: float) -> np.ndarray:
    """True where open segments ab and cd cross at a single interior point
    (vectorized over broadcast point arrays)."""
    o1 = _cross2(b - a, c - a)
    o2 = _cross2(b - a, d - a)
    o3 = _cross2(d - c, a - c)
    o4 = _cross2(d - c, b - c)
    return (o1 * o2 < -eps2 * eps2) & (o3 * o4 < -eps2 * eps2)


def _first_crossing(p: np.ndarray, q: np.ndarray, eps: float) -> tuple[int, int] | None:
    """First (i, j) in row-major order where edge i of loop ``p`` (p[i] to
    p[i+1]) properly crosses edge j of loop ``q``, or None.

    Edges that share an endpoint never cross: the shared point makes a
    cross product exactly 0.
    """
    c = q[None]
    d = _next(q)[None]
    p_next = _next(p)
    rows = max(1, _BLOCK_PAIRS // len(q))
    for start in range(0, len(p), rows):
        a = p[start:start + rows, None]
        b = p_next[start:start + rows, None]
        hits = np.argwhere(_proper_crossing(a, b, c, d, eps))
        if len(hits):
            return start + int(hits[0, 0]), int(hits[0, 1])
    return None


@dataclass(frozen=True)
class SimplePolygon:
    """A simple (non-self-intersecting) polygon with CCW vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        arr = _as_points(self.vertices)
        n = len(arr)
        if n < 3:
            raise GeometryError("a polygon needs at least 3 vertices")
        scale = _feature_scale(arr)
        snap = EPS_SNAP * scale
        dup = np.linalg.norm(arr - _next(arr), axis=1) <= snap
        if bool(dup.any()):
            raise GeometryError("polygon has repeated consecutive vertices")
        if _signed_area(arr) < 0.0:
            arr = arr[::-1].copy()
        if abs(_signed_area(arr)) <= EPS_CROSS * scale * scale:
            raise GeometryError("polygon area is zero")
        # the relation is symmetric, so the first crossing has i < j
        crossing = _first_crossing(arr, arr, EPS_CROSS * scale)
        if crossing is not None:
            raise GeometryError(
                "polygon boundary self-intersects (edges %d and %d)" % crossing
            )
        # copy, so that freezing the vertices leaves the caller's array alone
        arr = np.array(arr, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "vertices", arr)

    @classmethod
    def from_vertices(cls, points: Iterable) -> "SimplePolygon":
        return cls(_as_points(list(points)))

    @functools.cached_property
    def area(self) -> float:
        return _signed_area(self.vertices)

    @functools.cached_property
    def diameter(self) -> float:
        """Largest point-pair distance; attained at a vertex pair."""
        return _max_pair_distance(self.vertices, self.vertices)

    def contains(self, points) -> np.ndarray:
        return point_in_polygon(self.vertices, points)

    def is_convex(self) -> bool:
        v = self.vertices
        e = _next(v) - v
        turns = _cross2(e, _next(e))
        return bool((turns >= -EPS_CROSS * _feature_scale(v) ** 2).all())


def point_in_polygon(vertices, points) -> np.ndarray | bool:
    """Even-odd containment test, vectorized over query points.

    Boundary points are classified by the half-open crossing rule and should
    not be relied on; callers that care use explicit tolerances.
    """
    v = _as_points(vertices)
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    x1, y1 = v[:, 0], v[:, 1]
    x2, y2 = _next(x1), _next(y1)
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    straddles = (y1 > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    hits = straddles & (px < x_at)
    inside = np.bitwise_xor.reduce(hits, axis=1)
    return bool(inside[0]) if single else inside


def _lengths(vectors: np.ndarray) -> np.ndarray:
    """Lengths sqrt(dx*dx + dy*dy) of 2-d vectors (..., 2).  Triangle sides
    and polygon diameters share it, so that a triangle and the polygon of
    its vertices have bit-identical diameters."""
    return np.sqrt((vectors * vectors).sum(axis=-1))


def _pair_distances(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Distances from each point of ``pa`` (..., m, 2) to each of ``pb``
    (..., k, 2), shaped (..., m, k)."""
    return _lengths(pa[..., :, None, :] - pb[..., None, :, :])


def _max_pair_distance(pa: np.ndarray, pb: np.ndarray) -> float:
    return float(_pair_distances(pa, pb).max())


def hull_diameter(points) -> float:
    """Diameter of the convex hull of a point set (max pairwise distance)."""
    arr = _as_points(points)
    return _max_pair_distance(arr, arr)


# ---------------------------------------------------------------------------
# Edges projected onto lines
# ---------------------------------------------------------------------------


def _project(edges, rotation, weight) -> np.ndarray:
    """Rows (lo, hi, t, slope, sign, weight * sign) of every edge at every
    orientation of a block, flattened over (orientation, edge).

    ``edges`` holds the start and end points of the edges, ``rotation``
    exp(-i theta) of each orientation and ``weight`` its quadrature weight.
    The edge spans the offsets [lo, hi] and crosses the line at offset p at
    t + slope * (p - lo); sign is +1 where lines enter the region through
    it and -1 where they leave.
    """
    # endpoints as t + i s, position along the lines and offset: one row
    # for the start points and one for the end points, each over
    # (orientation, edge)
    z = rotation[:, None] * np.array([p[:, 0] + 1j * p[:, 1] for p in edges])[:, None]
    t, s = z.real, z.imag
    # each row pair reordered by offset, (lower end, upper end); the interior
    # lies left of the edge: behind it along the line when the edge runs up
    up = s[1] > s[0]
    lo_hi = np.where(up, s, s[::-1])
    t_lo_hi = np.where(up, t, t[::-1])
    width = lo_hi[1] - lo_hi[0]
    slope = (t_lo_hi[1] - t_lo_hi[0]) / np.where(width > 0.0, width, 1.0)
    sign = np.where(up, -1.0, 1.0)
    return np.concatenate([lo_hi, t_lo_hi[:1], slope[None], sign[None],
                           (sign * weight[:, None])[None]]).reshape(6, -1)


class ConvexClipper:
    """Chords and support of a convex polygon, read from :func:`_project`.

    ``chord(theta, p)`` intersects the whole family of parallel lines at
    offsets ``p`` (an array) with the polygon in one vectorized pass.
    """

    def __init__(self, vertices):
        v = _as_points(vertices)
        if _signed_area(v) < 0.0:
            v = v[::-1].copy()
        if (v == _next(v)).all(axis=1).any():
            raise GeometryError("convex clipper: repeated vertices")
        self.vertices = v

    def _table(self, theta: float) -> np.ndarray:
        return _project((self.vertices, _next(self.vertices)),
                        np.exp(-1j * np.array([theta])), np.ones(1))

    def support(self, theta: float) -> tuple[float, float]:
        lo, hi = self._table(theta)[:2]
        return float(lo.min()), float(hi.max())

    def chord(self, theta: float, p) -> tuple[np.ndarray, np.ndarray]:
        """Chord bounds (t_lo, t_hi) for each offset in p; empty when t_lo > t_hi.

        A line enters through the sign +1 edge whose offset range holds p
        and leaves through the sign -1 edge.
        """
        p = np.atleast_1d(np.asarray(p, dtype=np.float64))
        lo, hi, t, slope, sign = (row[:, None] for row in self._table(theta)[:5])
        at = t + slope * (p - lo)
        holds = (lo <= p) & (p <= hi)
        t_lo = np.where(holds & (sign > 0.0), at, np.inf).min(axis=0)
        t_hi = np.where(holds & (sign < 0.0), at, -np.inf).max(axis=0)
        return t_lo, t_hi


# ---------------------------------------------------------------------------
# Triangle pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrianglePairSpec:
    """Two interior-disjoint triangles, classified.

    ``kind`` is one of 'shared_side_convex', 'shared_side_concave',
    'shared_vertex', 'disjoint'; ``areas`` are the two triangle areas and
    ``max_distance`` is the largest distance between a point of each.
    """

    tri_a: Triangle
    tri_b: Triangle
    kind: str
    areas: tuple[float, float]
    max_distance: float


def _convex_clip_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject by a convex CCW clipper."""
    output = list(subject)
    m = len(clipper)
    for i in range(m):
        a = clipper[i]
        b = clipper[(i + 1) % m]
        edge = b - a
        if not output:
            break
        inputs = output
        output = []
        prev = inputs[-1]
        prev_side = float(_cross2(edge, prev - a))
        for cur in inputs:
            cur_side = float(_cross2(edge, cur - a))
            if cur_side >= 0.0:
                if prev_side < 0.0:
                    lam = prev_side / (prev_side - cur_side)
                    output.append(prev + lam * (cur - prev))
                output.append(cur)
            elif prev_side >= 0.0:
                lam = prev_side / (prev_side - cur_side)
                output.append(prev + lam * (cur - prev))
            prev, prev_side = cur, cur_side
    return np.array(output) if output else np.empty((0, 2))


def _overlap_area(tri_a: Triangle, tri_b: Triangle) -> float:
    poly = _convex_clip_polygon(tri_a.vertices, tri_b.vertices)
    if len(poly) < 3:
        return 0.0
    return abs(_signed_area(poly))


def _separated(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Whether the line of an edge of one triangle has the other triangle on
    its outer side or on it, so that their interiors cannot overlap.

    ``va`` is one triangle's CCW vertices (3, 2); ``vb`` is one or more
    CCW triangles (..., 3, 2), over which the test is vectorized.
    """
    ea = _next(va) - va
    eb = vb[..., [1, 2, 0], :] - vb
    # (..., edge, vertex): a CCW edge has the interior on its left
    cut_a = _cross2(ea[:, None], vb[..., None, :, :] - va[:, None]) <= 0.0
    cut_b = _cross2(eb[..., :, None, :], va - vb[..., :, None, :]) <= 0.0
    return cut_a.all(axis=-1).any(axis=-1) | cut_b.all(axis=-1).any(axis=-1)


def _snaps(dist, scale):
    """Which vertex distances ``dist`` of a triangle pair with feature
    scale ``scale`` are close enough to snap the two vertices together."""
    return dist <= EPS_SNAP * scale


def classify_pair(tri_a: Triangle, tri_b: Triangle) -> TrianglePairSpec:
    """Classify a pair of interior-disjoint triangles.

    Vertices of ``tri_b`` within the snap tolerance of a vertex of ``tri_a``
    are snapped onto it; overlapping interiors raise GeometryError.  Only a
    pair that no edge line separates (:func:`_separated`) is clipped to
    measure its overlap.
    """
    va = tri_a.vertices
    vb = np.array(tri_b.vertices)
    scale = max(_feature_scale(va), _feature_scale(vb))
    snapped = _snaps(_pair_distances(va, vb), scale)
    matches = [(int(i), int(j)) for i, j in np.argwhere(snapped)]
    if len({i for i, _ in matches}) != len(matches) or len({j for _, j in matches}) != len(matches):
        raise GeometryError("ambiguous vertex matching between triangles")
    moved = any((vb[j] != va[i]).any() for i, j in matches)
    for i, j in matches:
        vb[j] = va[i]
    if len(matches) >= 3:
        raise GeometryError("triangles coincide")
    if moved:
        tri_b = Triangle.from_vertices(*vb)

    # an edge line between them rules out overlap without the clip
    if not _separated(va, tri_b.vertices):
        overlap = _overlap_area(tri_a, tri_b)
        if overlap > 1e-9 * min(tri_a.area, tri_b.area):
            raise GeometryError("triangle interiors overlap")

    areas = (tri_a.area, tri_b.area)
    max_d = _max_pair_distance(tri_a.vertices, tri_b.vertices)

    if len(matches) == 2:
        shared_idx_a = [i for i, _ in matches]
        pq = [va[i] for i in shared_idx_a]
        pq.sort(key=lambda v: (v[0], v[1]))
        p_pt, q_pt = np.asarray(pq[0]), np.asarray(pq[1])
        apex_a = next(va[i] for i in range(3) if i not in shared_idx_a)
        shared_idx_b = [j for _, j in matches]
        apex_b = next(tri_b.vertices[j] for j in range(3) if j not in shared_idx_b)
        quad = np.array([apex_a, p_pt, apex_b, q_pt])
        if _signed_area(quad) < 0.0:
            quad = quad[::-1]
        edges = _next(quad) - quad
        turns = _cross2(edges, _next(edges))
        convex = bool((turns >= -EPS_CROSS * scale * scale).all())
        kind = "shared_side_convex" if convex else "shared_side_concave"
    elif len(matches) == 1:
        kind = "shared_vertex"
    else:
        kind = "disjoint"
    return TrianglePairSpec(tri_a, tri_b, kind, areas, max_d)


def check_pairs(tris_a, tris_b) -> float:
    """Reject two triangle sets whose interiors overlap, and return the
    largest distance between a point of each.

    A pair is passed over when the line of an edge of one triangle has the
    other triangle on its outer side or on it (:func:`_separated`, the test
    ``classify_pair`` also makes), and no two of the pair's
    vertices snap together without coinciding.  Such a pair can neither
    overlap nor move a vertex, so :func:`classify_pair` would accept it and
    measure the same vertex distances, which are taken here.  Every other
    pair goes through ``classify_pair``, in the order of a loop over all
    pairs, and raises its GeometryErrors.  (A fan's triangles all share a
    vertex, so their bounding boxes all meet; their edges still separate
    them.)
    """
    vb = np.stack([t.vertices for t in tris_b])  # (T_b, 3, 2), CCW
    scale_b = np.array([_feature_scale(v) for v in vb])
    pairs, far = [], []
    for ta in tris_a:
        va = ta.vertices
        apart = _separated(va, vb)
        dist = _pair_distances(va, vb)  # (T_b, 3, 3)
        scale = np.maximum(_feature_scale(va), scale_b)[:, None, None]
        near = (_snaps(dist, scale) & (dist > 0.0)).any(axis=(1, 2))
        clear = apart & ~near
        if clear.any():
            far.append(float(dist[clear].max()))
        pairs += [classify_pair(ta, tris_b[j]) for j in np.flatnonzero(~clear)]
    return max([p.max_distance for p in pairs] + far)


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------


def _ear_clip(vertices: np.ndarray) -> list[np.ndarray]:
    """Ear-clip a CCW (weakly) simple vertex loop into triangles.

    Tolerates coincident vertex copies such as the doubled bridge endpoints
    of a cut ring: copies coinciding with an ear corner never block the ear.
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


def triangulate(polygon: SimplePolygon | Triangle) -> list[Triangle]:
    """Partition a polygon into triangles.

    Convex polygons are fanned from vertex 0 (deterministic, and convenient
    for composing distributions over the fan); concave polygons are
    ear-clipped.  The triangle areas sum to the polygon area.
    """
    if isinstance(polygon, Triangle):
        return [polygon]
    v = polygon.vertices
    if polygon.is_convex():
        return [
            Triangle.from_vertices(v[0], v[i], v[i + 1]) for i in range(1, len(v) - 1)
        ]
    return [Triangle.from_vertices(*tri) for tri in _ear_clip(v)]


def check_ring(outer: SimplePolygon, hole: SimplePolygon) -> None:
    """Raise GeometryError unless ``hole`` lies strictly inside ``outer``."""
    vo = outer.vertices
    vh = hole.vertices
    if not bool(np.all(point_in_polygon(vo, vh))):
        raise GeometryError("hole must lie strictly inside the outer polygon")
    if bool(np.any(point_in_polygon(vh, vo))):
        raise GeometryError("outer vertices must lie outside the hole")
    if _first_crossing(vo, vh, EPS_CROSS * _feature_scale(vo)) is not None:
        raise GeometryError("hole boundary crosses the outer boundary")


def triangulate_ring(outer: SimplePolygon, hole: SimplePolygon) -> list[Triangle]:
    """Triangulate the region between an outer polygon and a strictly
    interior hole.

    The ring is converted to a single (weakly simple) loop by a bridge cut
    between the nearest hole/outer vertex pair, then ear-clipped.  The bridge
    has zero width, so the triangle areas sum to outer minus hole area.
    """
    check_ring(outer, hole)
    vo = outer.vertices
    vh = hole.vertices
    no, nh = len(vo), len(vh)
    dist = _pair_distances(vo, vh)
    i_out, j_hole = np.unravel_index(int(np.argmin(dist)), dist.shape)

    # outer walked CCW up to the bridge, hole walked CW (reversed) and back
    loop = [vo[k] for k in range(i_out + 1)]
    loop.extend(vh[(j_hole - k) % nh] for k in range(nh))
    loop.append(vh[j_hole])
    loop.append(vo[i_out])
    loop.extend(vo[k] for k in range(i_out + 1, no))
    tris = [Triangle.from_vertices(*t) for t in _ear_clip(np.array(loop))]

    target = outer.area - hole.area
    total = sum(t.area for t in tris)
    if abs(total - target) > 1e-9 * target:
        raise GeometryError(
            f"ring triangulation area mismatch: {total!r} vs {target!r}"
        )
    return tris


@dataclass(frozen=True)
class Disk:
    """Exact disk, used as a rejection test (e.g. a round hole)."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise GeometryError(f"disk radius must be positive, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        return dx * dx + dy * dy <= self.radius * self.radius


def approximate_disk(center: Point2, radius: float, n_vertices: int) -> SimplePolygon:
    """Regular inscribed n-gon approximation of a disk (n >= 8).

    Vertex 0 sits at angle 0 from the center, so the construction is
    deterministic.  The polygon area is (n/2) r^2 sin(2 pi / n).
    """
    if n_vertices < 8:
        raise GeometryError("disk approximation needs at least 8 vertices")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise GeometryError(f"disk radius must be positive, got {radius}")
    ang = 2.0 * math.pi * np.arange(n_vertices) / n_vertices
    cx, cy = center
    pts = np.stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)], axis=1)
    return SimplePolygon(pts)

def geometry_from_spec(data: dict) -> "Triangle | SimplePolygon":
    """Build a region from a geometry description object.

    The object carries either ``{"angles": [deg, deg, deg]}`` (a triangle in
    canonical position, angles in degrees) or ``{"vertices": [[x, y], ...]}``
    (three vertices make a Triangle, more make a SimplePolygon).  An optional
    ``"scale"`` entry multiplies all lengths; for an angle description it sets
    the longest side, which otherwise is 1.
    """
    if not isinstance(data, dict):
        raise GeometryError(f"geometry object must be a mapping, got {type(data).__name__}")
    unknown = set(data) - {"angles", "vertices", "scale"}
    if unknown:
        raise GeometryError(f"unknown geometry keys: {sorted(unknown)}")
    has_angles = "angles" in data
    has_vertices = "vertices" in data
    if has_angles == has_vertices:
        raise GeometryError('give exactly one of "angles" or "vertices"')
    scale = data.get("scale")
    if scale is not None:
        scale = float(scale)
        if not (scale > 0.0 and math.isfinite(scale)):
            raise GeometryError(f"scale must be positive and finite, got {scale}")

    if has_angles:
        ang = data["angles"]
        if not isinstance(ang, (list, tuple)) or len(ang) != 3:
            raise GeometryError(f'"angles" must list three values in degrees, got {ang!r}')
        radians = [math.radians(float(t)) for t in ang]
        return canonicalize_triangle(angles=radians, scale=scale)

    pts = _as_points(data["vertices"])
    if scale is not None:
        # a product that overflows is inf, which the constructors reject
        with np.errstate(over="ignore"):
            pts = pts * scale
    if pts.shape[0] == 3:
        return Triangle.from_vertices(pts[0], pts[1], pts[2])
    return SimplePolygon.from_vertices(pts)
