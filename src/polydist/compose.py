"""Assembly of polygon and ring distance distributions.

A polygon's distance curve is one sweep over its edges, and the curve
between two triangulated regions one sweep between their triangles'
loops.  A ring is a ``geom.HollowRegion`` with a polygonal hole
(``RingSpec`` is its name here); the Monte Carlo oracle samples the same
object.  It takes one sweep over its loops, which bins each edge pair once
by class (outer-outer, hole-hole, outer-hole) and gives the outer, hole,
hole-to-ring and ring-only curves.  The scaling law maps any normalized
curve to an arbitrary size.

The paper's decompositions stay as cross-check routes.  A triangulated
region's curve is the probabilistic sum over all ordered triangle pairs
(``RegionPartition``, mixed by ``weighted_mixture``),

    F = sum_i sum_j (S_i * S_j / S**2) * F_ij,

with F_ii the within-triangle and F_ij the cross-pair curves; and the
ring-only curve solved from the area-weighted identity of the outer =
hole + ring split checks the swept one (``ring_pdd``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    Disk,
    GeometryError,
    HollowRegion,
    SimplePolygon,
    Triangle,
    check_pairs,
    classify_pair,
    hull_diameter,
)
from .km_engine import (
    CdfCurve,
    DensityCurve,
    DiagnosticError,
    KMConfig,
    PolygonSource,
    UnionSource,
    cross_pair_pdf,
    pdf_to_cdf,
    sweep_between,
    sweep_ring,
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

# ring solve: tolerated gap between the solved and the swept ring CDF
RING_SOLVE_TOL = 5e-3


@dataclass(frozen=True, eq=False)
class RegionPartition:
    """Triangulated region with all pairwise distance CDFs.

    ``cdf(i, j)`` is symmetric; every curve lives on the shared grid
    spanning [0, d_max].
    """

    triangles: tuple[Triangle, ...]
    areas: np.ndarray
    total_area: float
    d_max: float
    _cdfs: dict

    def __post_init__(self):
        if abs(self.areas.sum() - self.total_area) > 1e-10 * self.total_area:
            raise GeometryError("partition areas do not sum to the region area")

    @classmethod
    def from_triangles(cls, triangles, cfg: KMConfig, d_max: float,
                       total_area: float) -> "RegionPartition":
        tris = tuple(triangles)
        if not tris:
            raise GeometryError("partition needs at least one triangle")
        grid = np.linspace(0.0, d_max, cfg.grid_points + 1)
        cdfs = {(i, i): pdf_to_cdf(within_triangle_pdf(tri, cfg)).evaluate(grid)
                for i, tri in enumerate(tris)}
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                pdf = cross_pair_pdf(classify_pair(tris[i], tris[j]), cfg)
                cdfs[(i, j)] = pdf_to_cdf(pdf).evaluate(grid)
        return cls(tris, np.array([t.area for t in tris]), total_area, d_max, cdfs)

    def cdf(self, i: int, j: int) -> CdfCurve:
        return CdfCurve(self.d_max, self._cdfs[(i, j) if i <= j else (j, i)],
                        {"pair": (i, j), "region": "partition"})

    def pair_weights(self):
        """Ordered-pair mixture weights S_i S_j / S**2 (sum to 1)."""
        n = len(self.triangles)
        s = self.total_area
        return [(i, j, float(self.areas[i] * self.areas[j] / (s * s)))
                for i in range(n) for j in range(n)]

    def mixture(self) -> CdfCurve:
        """The area-weighted sum of the ordered pairs' CDFs."""
        pairs = self.pair_weights()
        return weighted_mixture([self.cdf(i, j) for i, j, _ in pairs], [w for *_, w in pairs])


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
    one sweep over its edges."""
    cfg = cfg or KMConfig()
    pdf = sweep_within(PolygonSource(poly.vertices), poly.area, poly.diameter, cfg)
    meta = {
        "region": "polygon",
        "area": poly.area,
        "pdf_values": pdf.values,
    }
    return pdf_to_cdf(pdf, meta)


def between_regions_pdd(part_a, part_b, cfg: KMConfig | None = None) -> CdfCurve:
    """Distance CDF between one uniform point in each triangulated region,
    from one sweep between the two regions' triangles.

    ``part_a`` and ``part_b`` are lists of triangles; the regions must be
    interior-disjoint (shared boundary is fine).  Every triangle pair that
    may touch is classified, which rejects overlapping interiors; the
    curve's ``d_max`` is the largest distance over all pairs.
    """
    cfg = cfg or KMConfig()
    tris_a = list(part_a)
    tris_b = list(part_b)
    if not tris_a or not tris_b:
        raise GeometryError("both regions need at least one triangle")
    d_max = check_pairs(tris_a, tris_b)
    area_a = sum(t.area for t in tris_a)
    area_b = sum(t.area for t in tris_b)
    pdf = sweep_between(UnionSource(tris_a), area_a, UnionSource(tris_b), area_b, d_max, cfg)
    meta = {
        "region": "between",
        "n_pairs": len(tris_a) * len(tris_b),
        "areas": [area_a, area_b],
        "pdf_values": pdf.values,
    }
    return pdf_to_cdf(pdf, meta)


# the ring's name in the paper's route; the Monte Carlo oracle takes the same object
RingSpec = HollowRegion


def ring_pdd(ring: HollowRegion, cfg: KMConfig | None = None) -> dict[str, CdfCurve]:
    """All six distance CDFs of an outer/hole/ring decomposition.

    Returns {"F11", "F22", "F23", "F33", "F12", "F13"} where index 1 is
    the full outer region, 2 the hole, and 3 the ring; Fxy is the CDF of
    the distance between a uniform point of region x and one of region y.
    F11, F22, F23 and F33 come from one sweep over the ring's loops
    (``sweep_ring``), F22 resampled from the hole's own grid, and F12 and
    F13 are their area mixtures.

    The paper's route solves the area-weighted identity

        S1^2 F11 = S2^2 F22 + 2 S2 S3 F23 + S3^2 F33

    for F33.  That solved curve is the check on the swept one: it is kept
    in F33's ``meta["raw_values"]``, its largest gap to F33 in
    ``meta["solve_defect"]``, and a gap beyond RING_SOLVE_TOL raises
    ``DiagnosticError``.  The sweep takes polygonal holes only; a ``Disk``
    hole raises ``GeometryError``.
    """
    if isinstance(ring.hole, Disk):
        raise GeometryError("ring_pdd sweeps polygon holes only: use approximate_disk for a disk")
    cfg = cfg or KMConfig()
    s1 = ring.outer_area
    s2 = ring.hole_area
    s3 = ring.ring_area
    # one diameter formula for either loop, so a Triangle outer or hole
    # gives the curves of the SimplePolygon with its vertices, bit for bit
    d_max = hull_diameter(ring.outer.vertices)
    grid = np.linspace(0.0, d_max, cfg.grid_points + 1)

    pdf11, pdf22, pdf23, pdf33 = sweep_ring(
        PolygonSource(ring.outer.vertices, ring.hole.vertices),
        s1, s2, d_max, hull_diameter(ring.hole.vertices), cfg)

    def meta(region, pdf):
        return {"region": region, "areas": [s1, s2, s3], "pdf_values": pdf}

    # the swept curves carry their meta from the start: each CDF is checked once
    f11, f23, f33 = (pdf_to_cdf(pdf, meta(region, pdf.values)) for region, pdf in
                     (("outer", pdf11), ("hole-ring", pdf23), ("ring", pdf33)))
    f22_vals = pdf_to_cdf(pdf22).evaluate(grid)
    f22_pdf = pdf22.evaluate(grid)

    raw33 = (s1 * s1 * f11.values - s2 * s2 * f22_vals
             - 2.0 * s2 * s3 * f23.values) / (s3 * s3)
    defect = float(np.max(np.abs(raw33 - f33.values)))
    if defect > RING_SOLVE_TOL:
        raise DiagnosticError(
            f"ring solve: the solved F33 is {defect:.2e} from the swept one, beyond "
            f"{RING_SOLVE_TOL}; inputs inconsistent or resolution too coarse"
        )

    f33.meta.update(raw_values=raw33, solve_defect=defect)

    def curve(region, cdf, pdf):
        return CdfCurve(d_max, cdf, meta(region, pdf))

    w2, w3 = s2 / s1, s3 / s1
    return {
        "F11": f11,
        "F22": curve("hole", f22_vals, f22_pdf),
        "F23": f23,
        "F33": f33,
        "F12": curve("outer-hole", w2 * f22_vals + w3 * f23.values,
                     w2 * f22_pdf + w3 * pdf23.values),
        "F13": curve("outer-ring", w2 * f23.values + w3 * f33.values,
                     w2 * pdf23.values + w3 * pdf33.values),
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
    return CdfCurve(curve.d_max * s, curve.values.copy(), meta)
