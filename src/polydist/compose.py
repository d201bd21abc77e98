"""Assembly of polygon and ring distance distributions.

A polygon's distance curve is one sweep over its even-odd chords.  A
ring (outer minus hole) takes one sweep each for the outer, hole and
hole-to-ring curves, all on one orientation rule, and solves the
area-weighted identity of the outer = hole + ring split for the
ring-only curve.  The scaling law maps any normalized curve to an
arbitrary size.

The paper's decomposition stays as the cross-check route: a
triangulated region's curve is the probabilistic sum over all ordered
triangle pairs,

    F = sum_i sum_j (S_i * S_j / S**2) * F_ij,

with F_ii the within-triangle and F_ij the cross-pair curves
(``RegionPartition``, ``between_regions_pdd``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    GeometryError,
    SimplePolygon,
    Triangle,
    check_ring,
    classify_pair,
    hull_diameter,
)
from .km_engine import (
    CdfCurve,
    DensityCurve,
    DiagnosticError,
    KMConfig,
    PolygonSource,
    cross_pair_pdf,
    pdf_to_cdf,
    sweep_between,
    sweep_within,
    within_triangle_pdf,
)

__all__ = [
    "RegionPartition",
    "RingSpec",
    "weighted_mixture",
    "polygon_pdd",
    "between_regions_pdd",
    "ring_pdd",
    "scale_curve",
]

# ring solve: tolerated monotonicity/range defect of the solved CDF
RING_SOLVE_TOL = 5e-3


def _resample_pdf(curve: DensityCurve, d_max: float, n: int) -> np.ndarray:
    grid = np.linspace(0.0, d_max, n + 1)
    return np.interp(grid, curve.grid, curve.values, left=0.0, right=0.0)


def _resample_cdf_values(grid: np.ndarray, curve: CdfCurve) -> np.ndarray:
    return np.interp(grid, curve.grid, curve.values,
                     left=0.0, right=float(curve.values[-1]))


@dataclass(frozen=True, eq=False)
class RegionPartition:
    """Triangulated region with all pairwise distance curves.

    ``cdf(i, j)`` is symmetric; every curve lives on the shared grid
    spanning [0, d_max].  ``pdf_values(i, j)`` carries the matching
    densities for plot output.
    """

    triangles: tuple[Triangle, ...]
    areas: np.ndarray
    total_area: float
    d_max: float
    grid: np.ndarray
    _cdfs: dict
    _pdfs: dict

    def __post_init__(self):
        if abs(self.areas.sum() - self.total_area) > 1e-10 * self.total_area:
            raise GeometryError("partition areas do not sum to the region area")

    @classmethod
    def from_triangles(cls, triangles, cfg: KMConfig | None = None,
                       d_max: float | None = None,
                       total_area: float | None = None) -> "RegionPartition":
        cfg = cfg or KMConfig()
        tris = tuple(triangles)
        if not tris:
            raise GeometryError("partition needs at least one triangle")
        areas = np.array([t.area for t in tris])
        if total_area is None:
            total_area = float(areas.sum())
        if d_max is None:
            d_max = hull_diameter(np.vstack([t.vertices for t in tris]))
        grid = np.linspace(0.0, d_max, cfg.grid_points + 1)
        cdfs: dict = {}
        pdfs: dict = {}
        for i, tri in enumerate(tris):
            pdf = within_triangle_pdf(tri, cfg)
            pdfs[(i, i)] = _resample_pdf(pdf, d_max, cfg.grid_points)
            cdfs[(i, i)] = _resample_cdf_values(grid, pdf_to_cdf(pdf))
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                pair = classify_pair(tris[i], tris[j])
                pdf = cross_pair_pdf(pair, cfg)
                pdfs[(i, j)] = _resample_pdf(pdf, d_max, cfg.grid_points)
                cdfs[(i, j)] = _resample_cdf_values(grid, pdf_to_cdf(pdf))
        return cls(tris, areas, total_area, d_max, grid, cdfs, pdfs)

    def cdf_values(self, i: int, j: int) -> np.ndarray:
        return self._cdfs[(i, j) if i <= j else (j, i)]

    def pdf_values(self, i: int, j: int) -> np.ndarray:
        return self._pdfs[(i, j) if i <= j else (j, i)]

    def cdf(self, i: int, j: int) -> CdfCurve:
        return CdfCurve(self.d_max, self.cdf_values(i, j),
                        {"pair": (i, j), "region": "partition"})

    def pair_weights(self):
        """Ordered-pair mixture weights S_i S_j / S**2 (sum to 1)."""
        n = len(self.triangles)
        s = self.total_area
        return [(i, j, float(self.areas[i] * self.areas[j] / (s * s)))
                for i in range(n) for j in range(n)]

    def mixture(self) -> tuple[np.ndarray, np.ndarray]:
        """(cdf values, pdf values) of the area-weighted pair sum."""
        cdf = np.zeros_like(self.grid)
        pdf = np.zeros_like(self.grid)
        for i, j, w in self.pair_weights():
            cdf += w * self.cdf_values(i, j)
            pdf += w * self.pdf_values(i, j)
        return cdf, pdf


def weighted_mixture(curves, weights) -> CdfCurve:
    """Convex combination of CDF curves sharing one grid."""
    if len(curves) != len(weights) or not curves:
        raise ValueError("need matching, nonempty curves and weights")
    w = np.asarray(weights, dtype=float)
    if np.any(w < -1e-12):
        raise ValueError("mixture weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {w.sum()!r}, not 1")
    d_max = curves[0].d_max
    n = len(curves[0].values)
    for c in curves[1:]:
        if abs(c.d_max - d_max) > 1e-12 * max(d_max, 1.0) or len(c.values) != n:
            raise ValueError("mixture curves must share one grid")
    values = np.zeros(n)
    for c, wi in zip(curves, w):
        values = values + wi * c.values
    return CdfCurve(d_max, values, {"mixture_weights": [float(x) for x in w]})


def polygon_pdd(poly: SimplePolygon | Triangle, cfg: KMConfig | None = None) -> CdfCurve:
    """Distance CDF between two uniform points of a simple polygon, from
    one sweep over its chords."""
    cfg = cfg or KMConfig()
    if isinstance(poly, Triangle):
        pdf = within_triangle_pdf(poly, cfg)
    else:
        pdf = sweep_within(PolygonSource(poly.vertices), poly.area, poly.diameter, cfg)
    meta = {
        "region": "polygon",
        "area": poly.area,
        "pdf_values": pdf.values,
        "config": {"d_theta": cfg.d_theta, "grid_points": cfg.grid_points},
    }
    return CdfCurve(pdf.d_max, pdf_to_cdf(pdf).values, meta)


def between_regions_pdd(part_a, part_b, cfg: KMConfig | None = None,
                        d_max: float | None = None) -> CdfCurve:
    """Distance CDF between one uniform point in each triangulated region.

    ``part_a`` and ``part_b`` are lists of triangles; the regions must be
    interior-disjoint (shared boundary is fine).
    """
    cfg = cfg or KMConfig()
    tris_a = list(part_a)
    tris_b = list(part_b)
    if not tris_a or not tris_b:
        raise GeometryError("both regions need at least one triangle")
    area_a = sum(t.area for t in tris_a)
    area_b = sum(t.area for t in tris_b)
    pairs = {}
    for i, ta in enumerate(tris_a):
        for j, tb in enumerate(tris_b):
            pairs[(i, j)] = classify_pair(ta, tb)
    if d_max is None:
        d_max = max(p.max_distance for p in pairs.values())
    grid = np.linspace(0.0, d_max, cfg.grid_points + 1)
    cdf_vals = np.zeros_like(grid)
    pdf_vals = np.zeros_like(grid)
    for (i, j), pair in pairs.items():
        w = tris_a[i].area * tris_b[j].area / (area_a * area_b)
        pdf = cross_pair_pdf(pair, cfg)
        cdf_vals += w * _resample_cdf_values(grid, pdf_to_cdf(pdf))
        pdf_vals += w * _resample_pdf(pdf, d_max, cfg.grid_points)
    meta = {
        "region": "between",
        "n_pairs": len(pairs),
        "areas": [area_a, area_b],
        "pdf_values": pdf_vals,
    }
    return CdfCurve(d_max, cdf_vals, meta)


@dataclass(frozen=True)
class RingSpec:
    """Outer region with a strictly interior hole; the ring is the rest."""

    outer: SimplePolygon
    hole: SimplePolygon

    def __post_init__(self):
        check_ring(self.outer, self.hole)
        if self.ring_area <= 0.0:
            raise GeometryError("ring area must be positive")

    @property
    def outer_area(self) -> float:
        return self.outer.area

    @property
    def hole_area(self) -> float:
        return self.hole.area

    @property
    def ring_area(self) -> float:
        return self.outer.area - self.hole.area


def _clean_solved_cdf(raw: np.ndarray, d_max: float, meta: dict) -> CdfCurve:
    """Validate a CDF obtained algebraically, then clamp it into shape."""
    defect = max(
        float(-raw.min()),
        float(raw.max() - 1.0),
        float(np.maximum(0.0, -np.diff(raw)).max()) if len(raw) > 1 else 0.0,
    )
    if defect > RING_SOLVE_TOL:
        raise DiagnosticError(
            f"solved ring CDF defect {defect:.2e} exceeds {RING_SOLVE_TOL}; "
            "inputs inconsistent or resolution too coarse"
        )
    cleaned = np.maximum.accumulate(np.clip(raw, 0.0, 1.0))
    meta = dict(meta, raw_values=raw, solve_defect=defect)
    return CdfCurve(d_max, cleaned, meta)


def ring_pdd(ring: RingSpec, cfg: KMConfig | None = None) -> dict[str, CdfCurve]:
    """All six distance CDFs of an outer/hole/ring decomposition.

    Returns {"F11", "F22", "F23", "F33", "F12", "F13"} where index 1 is
    the full outer region, 2 the hole, and 3 the ring; Fxy is the CDF of
    the distance between a uniform point of region x and one of region y.
    F33 is solved from the area-weighted sum

        S1^2 F11 = S2^2 F22 + 2 S2 S3 F23 + S3^2 F33.
    """
    cfg = cfg or KMConfig()
    s1 = ring.outer_area
    s2 = ring.hole_area
    s3 = ring.ring_area
    d_max = ring.outer.diameter
    grid = np.linspace(0.0, d_max, cfg.grid_points + 1)

    # all three sweeps share one orientation rule, so the discretization
    # errors largely cancel in the solve for F33
    hole = PolygonSource(ring.hole.vertices)
    pdf11 = sweep_within(PolygonSource(ring.outer.vertices), s1, d_max, cfg)
    pdf22 = sweep_within(hole, s2, ring.hole.diameter, cfg)
    pdf23 = sweep_between(hole, s2, PolygonSource(ring.outer.vertices, ring.hole.vertices),
                          s3, d_max, cfg)
    f11_vals, f22_vals, f23_vals = (
        _resample_cdf_values(grid, pdf_to_cdf(pdf)) for pdf in (pdf11, pdf22, pdf23))
    f11_pdf, f22_pdf, f23_pdf = (
        _resample_pdf(pdf, d_max, cfg.grid_points) for pdf in (pdf11, pdf22, pdf23))

    raw33 = (s1 * s1 * f11_vals - s2 * s2 * f22_vals
             - 2.0 * s2 * s3 * f23_vals) / (s3 * s3)
    pdf33 = np.maximum(
        0.0,
        (s1 * s1 * f11_pdf - s2 * s2 * f22_pdf - 2.0 * s2 * s3 * f23_pdf)
        / (s3 * s3),
    )

    areas = {"areas": [s1, s2, s3]}
    f33 = _clean_solved_cdf(raw33, d_max, {"region": "ring", **areas,
                                           "pdf_values": pdf33})
    f12_vals = (s2 / s1) * f22_vals + (s3 / s1) * f23_vals
    f13_vals = (s2 / s1) * f23_vals + (s3 / s1) * f33.values
    f12_pdf = (s2 / s1) * f22_pdf + (s3 / s1) * f23_pdf
    f13_pdf = (s2 / s1) * f23_pdf + (s3 / s1) * pdf33
    return {
        "F11": CdfCurve(d_max, f11_vals, {"region": "outer", **areas,
                                          "pdf_values": f11_pdf}),
        "F22": CdfCurve(d_max, f22_vals, {"region": "hole", **areas,
                                          "pdf_values": f22_pdf}),
        "F23": CdfCurve(d_max, f23_vals, {"region": "hole-ring", **areas,
                                          "pdf_values": f23_pdf}),
        "F33": f33,
        "F12": CdfCurve(d_max, f12_vals, {"region": "outer-hole", **areas,
                                          "pdf_values": f12_pdf}),
        "F13": CdfCurve(d_max, f13_vals, {"region": "outer-ring", **areas,
                                          "pdf_values": f13_pdf}),
    }


def scale_curve(curve, s: float):
    """Rescale a distance curve to a region s times larger.

    Density: f_s(d) = (1/s) f(d/s); CDF: F_s(d) = F(d/s).  The uniform
    grid stretches with d_max, so stored nodes map one-to-one.
    """
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"scale must be positive, got {s!r}")
    if not isinstance(curve, (DensityCurve, CdfCurve)):
        raise TypeError(f"cannot scale {type(curve).__name__}")
    meta = dict(curve.meta, scaled_by=s)
    if "pdf_values" in meta:
        meta["pdf_values"] = np.asarray(meta["pdf_values"]) / s
    if isinstance(curve, DensityCurve):
        return DensityCurve(curve.d_max * s, curve.values / s, meta)
    if "raw_values" in meta:
        meta["raw_values"] = np.asarray(meta["raw_values"])
    return CdfCurve(curve.d_max * s, curve.values.copy(), meta)
