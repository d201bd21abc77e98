"""Distance distributions between uniform random points in planar regions."""

from .geom import (
    GeometryError,
    HollowRegion,
    SimplePolygon,
    Triangle,
    canonicalize_triangle,
    classify_pair,
    geometry_from_spec,
    triangulate,
    triangulate_ring,
)
from .km_engine import (
    CdfCurve,
    DensityCurve,
    DiagnosticError,
    KMConfig,
    cross_pair_pdf,
    pdf_to_cdf,
    trapezoid_kernel,
    within_convex_pdf,
    within_triangle_pdf,
)
from .closed_form import TriangleParams, closed_form_curve, closed_form_pdf
from .compose import (
    RingSpec,
    between_regions_pdd,
    polygon_pdd,
    ring_pdd,
    scale_curve,
    weighted_mixture,
)
from .mc_oracle import EmpiricalCdf, SampleConfig, ks_distance, pdd_mc

__version__ = "0.1.0"

__all__ = [
    "GeometryError",
    "SimplePolygon",
    "Triangle",
    "canonicalize_triangle",
    "classify_pair",
    "geometry_from_spec",
    "triangulate",
    "triangulate_ring",
    "CdfCurve",
    "DensityCurve",
    "DiagnosticError",
    "KMConfig",
    "cross_pair_pdf",
    "pdf_to_cdf",
    "trapezoid_kernel",
    "within_convex_pdf",
    "within_triangle_pdf",
    "TriangleParams",
    "closed_form_curve",
    "closed_form_pdf",
    "RingSpec",
    "between_regions_pdd",
    "polygon_pdd",
    "ring_pdd",
    "scale_curve",
    "weighted_mixture",
    "EmpiricalCdf",
    "HollowRegion",
    "SampleConfig",
    "ks_distance",
    "pdd_mc",
    "__version__",
]
