"""Command-line front end.

Parses geometry descriptions, runs any of the estimators, and emits
plot-ready curve tables (``d,pdf,cdf``) or verification reports.

Commands
--------
triangle   distance distribution of two uniform points in one triangle
pair       distance distribution between two disjoint triangles
polygon    distance distribution within a simple polygon
ring       the six curves of an outer/hole/ring decomposition
mc         Monte Carlo estimate for one region or a region pair
check      compare two methods on one region against a KS threshold

Angles are degrees on the command line (including ``--dtheta``) and
radians internally.  Exit codes: 0 success, 1 failed check, 2 usage or
geometry error, 3 numeric diagnostic failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .closed_form import TriangleParams, closed_form_curve
from .compose import polygon_pdd, ring_pdd, scale_curve
from .geom import (
    GeometryError,
    HollowRegion,
    Triangle,
    classify_pair,
    geometry_from_spec,
    hull_diameter,
)
from .km_engine import (
    D_THETA_MAX,
    DensityCurve,
    DiagnosticError,
    KMConfig,
    cross_pair_pdf,
    pdf_to_cdf,
    within_triangle_pdf,
)
from .mc_oracle import SampleConfig, ks_distance, pdd_mc

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIAGNOSTIC = 3

COMMANDS = ("triangle", "pair", "polygon", "ring", "mc", "check")
METHODS = ("km", "closed", "mc")
RING_NAMES = ("F11", "F22", "F23", "F33", "F12", "F13")


@dataclass(frozen=True)
class JobSpec:
    """One fully resolved unit of work.

    Geometry fields hold the parsed description objects (the JSON shape),
    not built regions, so a spec can be echoed into output metadata and
    serialized for reproduction.
    """

    command: str
    geometry: dict | None = None
    geometry_b: dict | None = None
    outer: dict | None = None
    hole: dict | None = None
    method: str = "km"
    km: KMConfig = field(default_factory=KMConfig)
    mc: SampleConfig = field(default_factory=SampleConfig)
    fmt: str = "csv"
    out: str | None = None
    check_a: str = "km"
    check_b: str = "mc"
    ks_max: float = 0.01

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.method == "closed" and self.command not in ("triangle", "check"):
            raise ValueError("the closed method applies to triangles only")
        if self.command == "ring":
            if self.outer is None or self.hole is None:
                raise ValueError("ring needs --outer and --hole geometry")
            if self.method != "km":
                raise ValueError("ring curves are computed by the km method only")
        elif self.command == "check":
            if self.geometry is None:
                raise ValueError("check needs --geometry")
            for m in (self.check_a, self.check_b):
                if m not in METHODS:
                    raise ValueError(f"unknown method {m!r}")
            if not (self.ks_max > 0.0 and math.isfinite(self.ks_max)):
                raise ValueError(f"--ks-max must be positive, got {self.ks_max}")
        else:
            if self.geometry is None:
                raise ValueError(f"{self.command} needs a geometry")
        if self.geometry_b is not None and self.command not in ("pair", "mc"):
            raise ValueError("--geometry-b applies to the pair and mc commands")


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


def _columns(*columns) -> list[list[float]]:
    """Each column as a list of Python floats, one ``tolist`` a column."""
    return [np.asarray(c, dtype=float).tolist() for c in columns]


def render_csv(grid, pdf, cdf) -> str:
    # 17 significant digits round-trip any float64 exactly
    rows = zip(*_columns(grid, pdf, cdf))
    return "d,pdf,cdf\n" + "".join(["%.17g,%.17g,%.17g\n" % row for row in rows])


def render_json(grid, pdf, cdf, meta: dict) -> str:
    payload = dict(meta)
    payload["d"], payload["pdf"], payload["cdf"] = _columns(grid, pdf, cdf)
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _meta(job: JobSpec, extra: dict | None = None) -> dict:
    meta = {
        "tool": "polydist",
        "version": __version__,
        "command": job.command,
        "method": job.method,
        "config": {
            "d_theta_rad": job.km.d_theta,
            "grid_points": job.km.grid_points,
            "samples": job.mc.n_pairs,
            "seed": job.mc.seed,
        },
    }
    if job.geometry is not None:
        meta["geometry"] = job.geometry
    if job.geometry_b is not None:
        meta["geometry_b"] = job.geometry_b
    if job.outer is not None:
        meta["outer"] = job.outer
        meta["hole"] = job.hole
    if extra:
        meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# Curve computation per command/method
# ---------------------------------------------------------------------------


def _require_triangle(region, context: str) -> Triangle:
    if not isinstance(region, Triangle):
        raise GeometryError(f"{context} needs a triangle, got a polygon")
    return region


def _mc_table(region_a, region_b, d_max: float, job: JobSpec):
    ecdf = pdd_mc(region_a, region_b, job.mc)
    grid = np.linspace(0.0, d_max, job.km.grid_points + 1)
    return grid, ecdf.density(grid), ecdf.evaluate(grid)


def _closed_pdf(region, job: JobSpec) -> DensityCurve:
    """Closed-form density of a triangle region at its own size."""
    tri = _require_triangle(region, "the closed method")
    params = TriangleParams.from_triangle(tri)
    return scale_curve(closed_form_curve(params, n=job.km.grid_points), tri.diameter)


def _triangle_table(job: JobSpec):
    tri = _require_triangle(geometry_from_spec(job.geometry), "triangle command")
    if job.method == "mc":
        return _mc_table(tri, tri, tri.diameter, job)
    if job.method == "closed":
        curve = _closed_pdf(tri, job)
    else:
        curve = within_triangle_pdf(tri, job.km)
    return curve.grid, curve.values, pdf_to_cdf(curve).values


def _pair_table(job: JobSpec):
    if job.geometry_b is None:
        raise GeometryError("pair needs --geometry and --geometry-b")
    tri_a = _require_triangle(geometry_from_spec(job.geometry), "pair command")
    tri_b = _require_triangle(geometry_from_spec(job.geometry_b), "pair command")
    pair = classify_pair(tri_a, tri_b)
    if job.method == "km":
        curve = cross_pair_pdf(pair, job.km)
        cdf = pdf_to_cdf(curve)
        return curve.grid, curve.values, cdf.values
    return _mc_table(tri_a, tri_b, pair.max_distance, job)


def _polygon_table(job: JobSpec):
    region = geometry_from_spec(job.geometry)
    if job.method == "km":
        cdf = polygon_pdd(region, job.km)
        return cdf.grid, cdf.meta["pdf_values"], cdf.values
    return _mc_table(region, region, region.diameter, job)


def _mc_command_table(job: JobSpec):
    region_a = geometry_from_spec(job.geometry)
    if job.geometry_b is None:
        region_b = region_a
        d_max = region_a.diameter
    else:
        region_b = geometry_from_spec(job.geometry_b)
        d_max = hull_diameter(np.vstack([region_a.vertices, region_b.vertices]))
    return _mc_table(region_a, region_b, d_max, job)


def _method_cdf(region, method: str, job: JobSpec):
    """CDF of the within-region distance by one named method."""
    if method == "km":
        return polygon_pdd(region, job.km)
    if method == "closed":
        return pdf_to_cdf(_closed_pdf(region, job))
    return pdd_mc(region, region, job.mc)


def _run_check(job: JobSpec) -> int:
    region = geometry_from_spec(job.geometry)
    ks = ks_distance(
        _method_cdf(region, job.check_a, job),
        _method_cdf(region, job.check_b, job),
    )
    passed = ks <= job.ks_max
    if job.fmt == "json":
        report = _meta(job, {
            "method_a": job.check_a,
            "method_b": job.check_b,
            "ks": ks,
            "ks_max": job.ks_max,
            "passed": passed,
        })
        _emit(json.dumps(report, indent=2) + "\n", job.out)
    else:
        verdict = "pass" if passed else "FAIL"
        _emit(
            f"ks({job.check_a}, {job.check_b}) = {ks:.6g}"
            f"  threshold {job.ks_max:g}  ->  {verdict}\n",
            job.out,
        )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _run_ring(job: JobSpec) -> int:
    ring = HollowRegion(geometry_from_spec(job.outer), geometry_from_spec(job.hole))
    curves = ring_pdd(ring, job.km)
    out_dir = job.out or "."
    os.makedirs(out_dir, exist_ok=True)
    ext = job.fmt
    for name in RING_NAMES:
        curve = curves[name]
        pdf = curve.meta["pdf_values"]
        path = os.path.join(out_dir, f"{name}.{ext}")
        if job.fmt == "json":
            text = render_json(curve.grid, pdf, curve.values,
                               _meta(job, {"curve": name}))
        else:
            text = render_csv(curve.grid, pdf, curve.values)
        _emit(text, path)
        sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


def run(job: JobSpec) -> int:
    """Execute a job and return its exit status."""
    if job.command == "check":
        return _run_check(job)
    if job.command == "ring":
        return _run_ring(job)
    table = {
        "triangle": _triangle_table,
        "pair": _pair_table,
        "polygon": _polygon_table,
        "mc": _mc_command_table,
    }[job.command]
    grid, pdf, cdf = table(job)
    if job.fmt == "json":
        _emit(render_json(grid, pdf, cdf, _meta(job)), job.out)
    else:
        _emit(render_csv(grid, pdf, cdf), job.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _load_geometry_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise GeometryError(f"{path}: geometry JSON must be an object")
    return data


def _angles_arg(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated angles")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_numeric_flags(sub, with_method=True):
    sub.add_argument("--dtheta", type=float, default=None,
                     help="orientation step in degrees, at most 2 (default 0.25)")
    sub.add_argument("--grid", type=int, default=None,
                     help="number of output grid cells, 50 to 2^20 (default 500)")
    sub.add_argument("--samples", type=int, default=None,
                     help="Monte Carlo pair count (default 50000)")
    sub.add_argument("--seed", type=int, default=None,
                     help="Monte Carlo seed (default 0)")
    if with_method:
        sub.add_argument("--method", choices=METHODS, default="km")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None,
                     help="output file (ring: output directory); default stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="polydist",
        description="Distance distributions of uniform random points in planar regions.",
    )
    parser.add_argument("--version", action="version",
                        version=f"polydist {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    tri = subs.add_parser("triangle", help="distribution within one triangle")
    tri.add_argument("--angles", type=_angles_arg, default=None,
                     help="three interior angles in degrees, comma separated")
    tri.add_argument("--scale", type=float, default=None,
                     help="longest side length of an --angles triangle (default 1); "
                          'a geometry file takes its "scale" key instead')
    tri.add_argument("--geometry", default=None, help="geometry JSON file")
    _add_numeric_flags(tri)

    pair = subs.add_parser("pair", help="distribution between two triangles")
    pair.add_argument("--geometry", required=True, help="first triangle JSON file")
    pair.add_argument("--geometry-b", required=True, help="second triangle JSON file")
    _add_numeric_flags(pair)

    poly = subs.add_parser("polygon", help="distribution within a simple polygon")
    poly.add_argument("--geometry", required=True, help="geometry JSON file")
    _add_numeric_flags(poly)

    ring = subs.add_parser("ring", help="the six outer/hole/ring curves")
    ring.add_argument("--outer", required=True, help="outer polygon JSON file")
    ring.add_argument("--hole", required=True, help="hole polygon JSON file")
    _add_numeric_flags(ring, with_method=False)

    mc = subs.add_parser("mc", help="Monte Carlo estimate")
    mc.add_argument("--geometry", required=True, help="geometry JSON file")
    mc.add_argument("--geometry-b", default=None,
                    help="optional second region JSON file")
    _add_numeric_flags(mc, with_method=False)

    chk = subs.add_parser("check", help="compare two methods on one region")
    chk.add_argument("--geometry", required=True, help="geometry JSON file")
    chk.add_argument("--a", dest="method_a", choices=METHODS, required=True)
    chk.add_argument("--b", dest="method_b", choices=METHODS, required=True)
    chk.add_argument("--ks-max", type=float, default=0.01,
                     help="largest acceptable KS distance (default 0.01)")
    _add_numeric_flags(chk, with_method=False)
    return parser


def job_from_args(args: argparse.Namespace) -> JobSpec:
    km_kwargs = {}
    if args.dtheta is not None:
        # checked here, so that the error names the flag's own unit
        km_kwargs["d_theta"] = math.radians(args.dtheta)
        if not 0.0 < km_kwargs["d_theta"] <= D_THETA_MAX:
            raise ValueError(f"--dtheta must lie in (0, {math.degrees(D_THETA_MAX):g}] degrees, "
                             f"got {args.dtheta:g}")
    if args.grid is not None:
        km_kwargs["grid_points"] = args.grid
    mc_kwargs = {}
    if args.samples is not None:
        mc_kwargs["n_pairs"] = args.samples
    if args.seed is not None:
        mc_kwargs["seed"] = args.seed

    fields: dict = {
        "command": args.command,
        "km": KMConfig(**km_kwargs),
        "mc": SampleConfig(**mc_kwargs),
        "fmt": args.format,
        "out": args.out,
    }
    if args.command == "triangle":
        if (args.angles is None) == (args.geometry is None):
            raise GeometryError("give exactly one of --angles or --geometry")
        if args.geometry is not None and args.scale is not None:
            raise GeometryError('--scale applies to --angles; a geometry file '
                                'sets its size with its "scale" key')
        if args.angles is not None:
            geometry = {"angles": args.angles}
            if args.scale is not None:
                geometry["scale"] = args.scale
        else:
            geometry = _load_geometry_file(args.geometry)
        fields["geometry"] = geometry
    elif args.command in ("pair", "polygon", "mc", "check"):
        fields["geometry"] = _load_geometry_file(args.geometry)
        if getattr(args, "geometry_b", None) is not None:
            fields["geometry_b"] = _load_geometry_file(args.geometry_b)
    if args.command == "ring":
        fields["outer"] = _load_geometry_file(args.outer)
        fields["hole"] = _load_geometry_file(args.hole)
        fields["method"] = "km"
    elif args.command == "mc":
        fields["method"] = "mc"
    elif args.command == "check":
        fields["check_a"] = args.method_a
        fields["check_b"] = args.method_b
        fields["ks_max"] = args.ks_max
        fields["method"] = "km"
    else:
        fields["method"] = args.method
    return JobSpec(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = job_from_args(args)
    except (GeometryError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"polydist: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(job)
    except DiagnosticError as exc:
        print(f"polydist: diagnostic failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except (GeometryError, ValueError, OSError) as exc:
        print(f"polydist: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
