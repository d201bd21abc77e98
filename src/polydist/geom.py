"""Planar geometry for distance-distribution computations.

Triangles, simple polygons, convex clipping of lines in (theta, p)
coordinates, and the classification operations the distribution engines are
built on.

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
    return arr


def _signed_area(vertices: np.ndarray) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _feature_scale(vertices: np.ndarray) -> float:
    span = np.ptp(vertices, axis=0)
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
        area2 = _signed_area(arr) * 2.0
        scale = _feature_scale(arr)
        if area2 <= EPS_CROSS * scale * scale:
            raise GeometryError("triangle is degenerate (zero or negative area)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "vertices", arr)

    @classmethod
    def from_vertices(cls, p0, p1, p2) -> "Triangle":
        """Build a triangle from three points, reversing CW input to CCW."""
        arr = _as_points([p0, p1, p2])
        if _signed_area(arr) < 0.0:
            arr = arr[::-1]
        return cls(arr)

    @property
    def area(self) -> float:
        return _signed_area(self.vertices)

    @property
    def side_lengths(self) -> tuple[float, float, float]:
        """Side lengths sorted descending (a, b, c)."""
        v = self.vertices
        lengths = [
            float(np.linalg.norm(v[(i + 2) % 3] - v[(i + 1) % 3])) for i in range(3)
        ]
        a, b, c = sorted(lengths, reverse=True)
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

    @property
    def is_canonical(self) -> bool:
        """True when placed with the longest side on [0, a] of the x-axis."""
        v = self.vertices
        a = self.diameter
        tol = EPS_SNAP * max(a, 1.0)
        return (
            abs(v[0, 0]) <= tol
            and abs(v[0, 1]) <= tol
            and abs(v[1, 0] - a) <= tol
            and abs(v[1, 1]) <= tol
            and v[2, 1] > 0.0
        )


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


def _proper_crossing(a, b, c, d, eps2: float) -> bool:
    """True when open segments ab and cd cross at a single interior point."""
    o1 = float(_cross2(b - a, c - a))
    o2 = float(_cross2(b - a, d - a))
    o3 = float(_cross2(d - c, a - c))
    o4 = float(_cross2(d - c, b - c))
    return (o1 * o2 < -eps2 * eps2) and (o3 * o4 < -eps2 * eps2)


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
        dup = np.linalg.norm(arr - np.roll(arr, -1, axis=0), axis=1) <= snap
        if bool(dup.any()):
            raise GeometryError("polygon has repeated consecutive vertices")
        if _signed_area(arr) < 0.0:
            arr = arr[::-1].copy()
        if abs(_signed_area(arr)) <= EPS_CROSS * scale * scale:
            raise GeometryError("polygon area is zero")
        eps = EPS_CROSS * scale
        for i in range(n):
            a, b = arr[i], arr[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # adjacent edges share a vertex by construction
                c, d = arr[j], arr[(j + 1) % n]
                if _proper_crossing(a, b, c, d, eps):
                    raise GeometryError(
                        f"polygon boundary self-intersects (edges {i} and {j})"
                    )
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "vertices", arr)

    @classmethod
    def from_vertices(cls, points: Iterable) -> "SimplePolygon":
        return cls(_as_points(list(points)))

    @property
    def area(self) -> float:
        return _signed_area(self.vertices)

    @property
    def diameter(self) -> float:
        """Largest point-pair distance; attained at a vertex pair."""
        return _max_pair_distance(self.vertices, self.vertices)

    def contains(self, points) -> np.ndarray:
        return point_in_polygon(self.vertices, points)

    def is_convex(self) -> bool:
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        turns = _cross2(e, np.roll(e, -1, axis=0))
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
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    straddles = (y1 > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    hits = straddles & (px < x_at)
    inside = np.bitwise_xor.reduce(hits, axis=1)
    return bool(inside[0]) if single else inside


def _max_pair_distance(pa: np.ndarray, pb: np.ndarray) -> float:
    diff = pa[:, None, :] - pb[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2)).max())


def hull_diameter(points) -> float:
    """Diameter of the convex hull of a point set (max pairwise distance)."""
    arr = _as_points(points)
    return _max_pair_distance(arr, arr)


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = max(0.0, min(1.0, float((p - a) @ ab) / denom))
    return float(np.linalg.norm(p - (a + t * ab)))

def _segment_distance(a, b, c, d) -> float:
    if _proper_crossing(a, b, c, d, 0.0):
        return 0.0
    return min(
        _point_segment_distance(a, c, d),
        _point_segment_distance(b, c, d),
        _point_segment_distance(c, a, b),
        _point_segment_distance(d, a, b),
    )


def _min_boundary_distance(pa: np.ndarray, pb: np.ndarray) -> float:
    best = math.inf
    na, nb = len(pa), len(pb)
    for i in range(na):
        a, b = pa[i], pa[(i + 1) % na]
        for j in range(nb):
            c, d = pb[j], pb[(j + 1) % nb]
            best = min(best, _segment_distance(a, b, c, d))
    return best


# ---------------------------------------------------------------------------
# Convex clipping
# ---------------------------------------------------------------------------


class ConvexClipper:
    """Half-plane form of a convex polygon for fast line clipping.

    ``chord(theta, p)`` intersects the whole family of parallel lines at
    offsets ``p`` (an array) with the polygon in one vectorized pass.
    """

    def __init__(self, vertices):
        v = _as_points(vertices)
        if _signed_area(v) < 0.0:
            v = v[::-1].copy()
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(edges, axis=1)
        if (lengths <= 0.0).any():
            raise GeometryError("convex clipper: repeated vertices")
        # interior of a CCW polygon lies left of each edge
        normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1) / lengths[:, None]
        self.vertices = v
        self._normals = normals
        self._offsets = (normals * v).sum(axis=1)
        self._scale = _feature_scale(v)

    def support(self, theta: float) -> tuple[float, float]:
        nx, ny = -math.sin(theta), math.cos(theta)
        proj = self.vertices[:, 0] * nx + self.vertices[:, 1] * ny
        return float(proj.min()), float(proj.max())

    def chord(self, theta: float, p) -> tuple[np.ndarray, np.ndarray]:
        """Chord bounds (t_lo, t_hi) for each offset in p; empty when t_lo > t_hi."""
        p = np.atleast_1d(np.asarray(p, dtype=np.float64))
        ux, uy = math.cos(theta), math.sin(theta)
        nx, ny = -uy, ux
        mu = self._normals[:, 0] * ux + self._normals[:, 1] * uy
        mn = self._normals[:, 0] * nx + self._normals[:, 1] * ny
        t_lo = np.full(p.shape, -np.inf)
        t_hi = np.full(p.shape, np.inf)
        par_tol = 1e-14
        feas_tol = EPS_CROSS * self._scale
        for i in range(len(mu)):
            if abs(mu[i]) <= par_tol:
                infeasible = p * mn[i] < self._offsets[i] - feas_tol
                t_lo = np.where(infeasible, np.inf, t_lo)
                continue
            bound = (self._offsets[i] - p * mn[i]) / mu[i]
            if mu[i] > 0.0:
                np.maximum(t_lo, bound, out=t_lo)
            else:
                np.minimum(t_hi, bound, out=t_hi)
        return t_lo, t_hi


# ---------------------------------------------------------------------------
# Triangle pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrianglePairSpec:
    """Two interior-disjoint triangles plus derived adjacency data.

    ``kind`` is one of 'shared_side_convex', 'shared_side_concave',
    'shared_vertex', 'disjoint'.  For shared-side pairs the shared edge
    endpoints are ordered lexicographically as (P, Q) and:

    * ``diagonal`` is |PQ| (the shared edge, a diagonal of the union),
    * ``cross_diagonal`` is the distance between the two apexes,
    * ``corner_angles`` = (angle of tri_b at P, angle of tri_a at P,
      angle of tri_b at Q, angle of tri_a at Q).
    """

    tri_a: Triangle
    tri_b: Triangle
    kind: str
    areas: tuple[float, float]
    shared_vertices: tuple[Point2, ...] = ()
    diagonal: float | None = None
    cross_diagonal: float | None = None
    corner_angles: tuple[float, float, float, float] | None = None
    min_distance: float = 0.0
    max_distance: float = 0.0


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


def _interior_angle(at, toward1, toward2) -> float:
    u1 = toward1 - at
    u2 = toward2 - at
    cosang = float(u1 @ u2) / (np.linalg.norm(u1) * np.linalg.norm(u2))
    return math.acos(max(-1.0, min(1.0, cosang)))


def classify_pair(tri_a: Triangle, tri_b: Triangle) -> TrianglePairSpec:
    """Classify a pair of interior-disjoint triangles.

    Vertices of ``tri_b`` within the snap tolerance of a vertex of ``tri_a``
    are snapped onto it; overlapping interiors raise GeometryError.
    """
    va = tri_a.vertices
    vb = np.array(tri_b.vertices)
    scale = max(_feature_scale(va), _feature_scale(vb))
    snap = EPS_SNAP * scale

    matches: list[tuple[int, int]] = []
    for i in range(3):
        for j in range(3):
            if np.linalg.norm(va[i] - vb[j]) <= snap:
                matches.append((i, j))
    if len({i for i, _ in matches}) != len(matches) or len({j for _, j in matches}) != len(matches):
        raise GeometryError("ambiguous vertex matching between triangles")
    for i, j in matches:
        vb[j] = va[i]
    if len(matches) >= 3:
        raise GeometryError("triangles coincide")
    tri_b = Triangle.from_vertices(*vb)

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
        corner_angles = (
            _interior_angle(p_pt, apex_b, q_pt),
            _interior_angle(p_pt, apex_a, q_pt),
            _interior_angle(q_pt, apex_b, p_pt),
            _interior_angle(q_pt, apex_a, p_pt),
        )
        quad = np.array([apex_a, p_pt, apex_b, q_pt])
        if _signed_area(quad) < 0.0:
            quad = quad[::-1]
        edges = np.roll(quad, -1, axis=0) - quad
        turns = _cross2(edges, np.roll(edges, -1, axis=0))
        convex = bool((turns >= -EPS_CROSS * scale * scale).all())
        kind = "shared_side_convex" if convex else "shared_side_concave"
        return TrianglePairSpec(
            tri_a,
            tri_b,
            kind,
            areas,
            shared_vertices=(tuple(p_pt), tuple(q_pt)),
            diagonal=float(np.linalg.norm(q_pt - p_pt)),
            cross_diagonal=float(np.linalg.norm(np.asarray(apex_b) - np.asarray(apex_a))),
            corner_angles=corner_angles,
            min_distance=0.0,
            max_distance=max_d,
        )

    if len(matches) == 1:
        i, j = matches[0]
        return TrianglePairSpec(
            tri_a,
            tri_b,
            "shared_vertex",
            areas,
            shared_vertices=(tuple(va[i]),),
            min_distance=0.0,
            max_distance=max_d,
        )

    min_d = _min_boundary_distance(tri_a.vertices, tri_b.vertices)
    if min_d <= snap:
        min_d = 0.0
    return TrianglePairSpec(
        tri_a,
        tri_b,
        "disjoint",
        areas,
        min_distance=min_d,
        max_distance=max_d,
    )


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------


def _point_in_closed_triangle(pt, a, b, c, eps: float) -> bool:
    d1 = float(_cross2(b - a, pt - a))
    d2 = float(_cross2(c - b, pt - b))
    d3 = float(_cross2(a - c, pt - c))
    return d1 >= -eps and d2 >= -eps and d3 >= -eps


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

    def is_ear(k: int, strict_block: bool) -> bool:
        i_prev = idx[k - 1]
        i_cur = idx[k]
        i_next = idx[(k + 1) % len(idx)]
        a, b, c = vertices[i_prev], vertices[i_cur], vertices[i_next]
        if float(_cross2(b - a, c - b)) <= eps_area:
            return False
        # conservative pass: boundary contact blocks; strict pass: only
        # strictly interior points block (needed next to zero-width bridges)
        block_eps = -EPS_SNAP * scale * scale if strict_block else EPS_SNAP * scale * scale
        for m in idx:
            if m in (i_prev, i_cur, i_next):
                continue
            w = vertices[m]
            if ((w - a) ** 2).sum() <= snap2 or ((w - b) ** 2).sum() <= snap2 or (
                (w - c) ** 2
            ).sum() <= snap2:
                continue
            if _point_in_closed_triangle(w, a, b, c, block_eps):
                return False
        return True

    while len(idx) > 3:
        clipped = False
        for strict in (False, True):
            for k in range(len(idx)):
                if is_ear(k, strict_block=strict):
                    i_prev = idx[k - 1]
                    i_cur = idx[k]
                    i_next = idx[(k + 1) % len(idx)]
                    triangles.append(
                        np.array([vertices[i_prev], vertices[i_cur], vertices[i_next]])
                    )
                    del idx[k]
                    clipped = True
                    break
            if clipped:
                break
        if not clipped:
            # drop a collinear spike if one exists, else give up
            for k in range(len(idx)):
                a = vertices[idx[k - 1]]
                b = vertices[idx[k]]
                c = vertices[idx[(k + 1) % len(idx)]]
                if abs(float(_cross2(b - a, c - b))) <= eps_area:
                    del idx[k]
                    clipped = True
                    break
            if not clipped:
                raise GeometryError("ear clipping failed; polygon may not be simple")
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
    scale = _feature_scale(vo)
    no, nh = len(vo), len(vh)
    for i in range(no):
        a, b = vo[i], vo[(i + 1) % no]
        for j in range(nh):
            c, d = vh[j], vh[(j + 1) % nh]
            if _proper_crossing(a, b, c, d, EPS_CROSS * scale):
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
    diff = vo[:, None, :] - vh[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
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
        pts = pts * scale
    if pts.shape[0] == 3:
        return Triangle.from_vertices(pts[0], pts[1], pts[2])
    return SimplePolygon.from_vertices(pts)
