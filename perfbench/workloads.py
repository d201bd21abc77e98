"""Seeded op lists, the timed op bodies and their untimed references.

Every workload is a fixed list of ops, one "pass".  The seed moves every
input (angles, vertices, placement) but never changes how many ops there
are or what kind each one is, so the cost and accuracy of a pass are
comparable across seeds while no two seeds feed the program the same
numbers.  Ops are plain JSON-able dicts, and the program sees only these
generated inputs, through its public functions.

Each workload class supplies:

``make_ops(seed)``        the op list
``prepare(ops, workdir)`` writes the generated geometry files
``run(op)``               the timed body; returns the op's output
``reference(op)``         the untimed reference for the op's output
``check(op, out, ref)``   (ok, cdf_gap, note) for one output
``same(a, b)``            whether two outputs of one op are identical
"""
from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import polydist as pd
from polydist import cli, km_engine

# A curve that passes the package's own invariants may still differ from its
# reference route by discretization error.  Beyond the package's own
# normalization tolerance the curve counts as silently wrong.
CDF_GAP_MAX = km_engine.NORMALIZATION_TOL
# Largest KS distance accepted between a Monte Carlo curve and its reference
# (the acceptance suite's bound, which it applies at 50k pairs).
KS_MAX = 0.01
# The ring solve's back-substitution identity (acceptance test 6).
BACKSUB_MAX = 1e-12

# Acceptance test 8's half-step resolution.
HALF_STEP = pd.KMConfig(d_theta=math.pi / 1440.0, d_p=1.0 / 4000.0, grid_points=500)
# polygon_mix sweeps at 1 degree and 1/500 of the diameter, so that a pass of
# sixteen regions (up to 36 pairwise sweeps each) fits a run several times.
POLYGON_CFG = pd.KMConfig(d_theta=math.pi / 180.0, d_p=1.0 / 500.0, grid_points=200)
MC_PAIRS = 200_000
# Polygon shapes are drawn once from this seed; the workload seed then moves
# every vertex a little and places the shape.  Whether a shape's sweep passes
# its own checks depends on its triangulation, so drawing new shapes per seed
# would make the failure count, and with it the cost, change from seed to seed.
BASE_SEED = 1
POLYGON_WIGGLE = 0.002


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _floats(values) -> list:
    return [float(x) for x in values]


def _cdf_gap(grid, values, ref_grid, ref_values) -> float:
    """Sup-norm gap between a CDF and a reference CDF, on the first grid."""
    ref = np.interp(grid, ref_grid, ref_values, left=0.0, right=float(ref_values[-1]))
    return float(np.max(np.abs(np.asarray(values) - ref)))


def _closed_cdf(tri: pd.Triangle, n: int) -> pd.CdfCurve:
    params = pd.TriangleParams.from_triangle(tri)
    return pd.pdf_to_cdf(pd.scale_curve(pd.closed_form_curve(params, n=n), tri.diameter))


def _one_sweep_cdf(pieces, area: float, d_max: float, cfg: pd.KMConfig) -> pd.CdfCurve:
    """Within-region CDF from one sweep over interior-disjoint convex pieces."""
    source = km_engine.UnionSource(pieces)
    return pd.pdf_to_cdf(km_engine.sweep_within(source, area, d_max, cfg))


# ---------------------------------------------------------------------------
# Seeded shapes
# ---------------------------------------------------------------------------


def _rigid(points, rng: np.random.Generator, rotate: bool = True) -> np.ndarray:
    """Seeded rotation, scale and translation of a point set."""
    phi = rng.uniform(0.0, 2.0 * math.pi) if rotate else 0.0
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-2.0, 2.0, size=2)
    return (np.asarray(points, float) @ rot.T) * scale + shift


def _radial(radii, rng: np.random.Generator, jitter: float) -> np.ndarray:
    """Star-shaped polygon: vertex k at angle 2 pi k / n (jittered), radius radii[k]."""
    n = len(radii)
    ang = 2.0 * math.pi * (np.arange(n) + rng.uniform(-jitter, jitter, n)) / n
    return np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)


def convex_polygon(n: int, rng: np.random.Generator) -> np.ndarray:
    """Convex n-gon: jittered vertices of a regular n-gon."""
    while True:
        pts = _radial(rng.uniform(0.95, 1.05, n), rng, 0.2)
        if pd.SimplePolygon(pts).is_convex():
            return pts


def star_polygon(n: int, rng: np.random.Generator) -> np.ndarray:
    """Concave star: radii alternate between an outer and an inner band."""
    outer = np.arange(n) % 2 == 0
    radii = np.where(outer, rng.uniform(0.9, 1.0, n), rng.uniform(0.45, 0.6, n))
    return _radial(radii, rng, 0.15)


def _wiggle(points, rng: np.random.Generator, share: float = 0.01) -> np.ndarray:
    """Move each vertex by up to ``share`` of the shape's radius per coordinate."""
    pts = np.asarray(points, float)
    radius = float(np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    return pts + rng.uniform(-share, share, size=pts.shape) * radius


def _regular(n: int, side: float = 1.0) -> np.ndarray:
    r = side / (2.0 * math.sin(math.pi / n))
    ang = 2.0 * math.pi * (np.arange(n) + 0.5) / n + math.pi / 2.0
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def _square(half: float) -> np.ndarray:
    return np.array([[-half, -half], [half, -half], [half, half], [-half, half]])


L_SHAPE = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)


def _jitter_triple(triple, rng: np.random.Generator, amount: float = 0.03) -> list:
    t = np.asarray(triple, float) * (1.0 + rng.uniform(-amount, amount, 3))
    return _floats(t * 180.0 / t.sum())


def _seeded_triple(min_angle: float, rng: np.random.Generator) -> list:
    """Angle triple with the given smallest angle; the seed draws the middle
    angle from the upper 60% of its range."""
    top = (180.0 - min_angle) / 2.0
    mid = min_angle + (top - min_angle) * rng.uniform(0.4, 1.0)
    return _floats((180.0 - min_angle - mid, mid, min_angle))


def _shared_side_pair(angles_a, angles_b):
    """Two triangles on the segment (0,0)-(1,0), one apex up, one down.

    Each triple is (apex angle, angle at the origin, angle at (1,0)).
    """
    pa, qa, ra = (math.radians(t) for t in angles_a)
    pb, qb, rb = (math.radians(t) for t in angles_b)
    la = math.sin(ra) / math.sin(pa)
    lb = math.sin(rb) / math.sin(pb)
    a = [[0.0, 0.0], [1.0, 0.0], [la * math.cos(qa), la * math.sin(qa)]]
    b = [[0.0, 0.0], [1.0, 0.0], [lb * math.cos(qb), -lb * math.sin(qb)]]
    return a, b


def _shared_vertex_pair(angles_a, angles_b, gap_deg: float):
    """Two triangles meeting only at the origin, their corner sectors apart.

    Each triple is (apex angle, angle at the origin, angle at the far vertex).
    """
    def corner(angles, start):
        p, q, r = (math.radians(t) for t in angles)
        reach = math.sin(r) / math.sin(p)
        return [[0.0, 0.0], [math.cos(start), math.sin(start)],
                [reach * math.cos(start + q), reach * math.sin(start + q)]]

    return corner(angles_a, 0.0), corner(angles_b, math.radians(angles_a[1] + gap_deg))


def _canonical(angles) -> np.ndarray:
    return pd.canonicalize_triangle(angles=np.radians(angles)).vertices


def _moved_pair(a, b, rng: np.random.Generator):
    """Both triangles of a pair under one seeded rigid motion."""
    both = _rigid(np.vstack([a, b]), rng)
    return both[:3].tolist(), both[3:].tolist()


def _convex_union(tri_a: pd.Triangle, tri_b: pd.Triangle) -> pd.SimplePolygon:
    """The convex quadrilateral of a shared-side pair, vertices in angular order.

    ``classify_pair`` snaps the shared vertices, so they repeat exactly.
    """
    pts = np.unique(np.vstack([tri_a.vertices, tri_b.vertices]), axis=0)
    rel = pts - pts.mean(axis=0)
    return pd.SimplePolygon(pts[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))])


# ---------------------------------------------------------------------------
# triangle_sweep
# ---------------------------------------------------------------------------

REFERENCE_ANGLES = ((60, 60, 60), (80, 70, 30), (130, 30, 20))
SLIVER_ANGLES = ((170, 5, 5), (178, 1, 1))
# Smallest angle of each seeded triple; the two-small-angle corner of the
# angle simplex is covered by the fixed slivers above.
SEEDED_MIN_ANGLES = (1, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 26, 30,
                     35, 40, 45, 50, 55)
HALF_STEP_MIN_ANGLES = (7, 25)
# Base triples of the seeded pairs, jittered by the seed.
CONVEX_PAIRS = (((120, 25, 35), (80, 50, 50)), ((90, 40, 50), (70, 60, 50)))
CONCAVE_PAIRS = (((40, 30, 110), (15, 5, 160)), ((50, 20, 110), (30, 10, 140)))
VERTEX_PAIRS = (((80, 70, 30), (60, 60, 60)), ((100, 50, 30), (70, 40, 70)))
DISJOINT_PAIRS = (((80, 70, 30), (130, 30, 20)), ((60, 60, 60), (90, 45, 45)))


class TriangleSweep:
    """Single-triangle and triangle-pair sweeps, no composition."""

    name = "triangle_sweep"

    def make_ops(self, seed: int) -> list[dict]:
        rng = _rng(seed, 1)
        ops = [{"kind": "triangle", "angles": _floats(a), "half": False}
               for a in REFERENCE_ANGLES + SLIVER_ANGLES]
        ops += [{"kind": "triangle", "angles": _seeded_triple(m, rng), "half": False}
                for m in SEEDED_MIN_ANGLES]
        pairs = []
        for ta, tb in CONVEX_PAIRS:
            pairs.append(("shared_side_convex",
                          *_shared_side_pair(_jitter_triple(ta, rng), _jitter_triple(tb, rng))))
        for ta, tb in CONCAVE_PAIRS:
            pairs.append(("shared_side_concave",
                          *_shared_side_pair(_jitter_triple(ta, rng), _jitter_triple(tb, rng))))
        for ta, tb in VERTEX_PAIRS:
            pairs.append(("shared_vertex",
                          *_shared_vertex_pair(_jitter_triple(ta, rng), _jitter_triple(tb, rng),
                                               rng.uniform(20.0, 60.0))))
        for ta, tb in DISJOINT_PAIRS:
            a = _canonical(_jitter_triple(ta, rng))
            b = _canonical(_jitter_triple(tb, rng)) + [rng.uniform(1.2, 2.0),
                                                       rng.uniform(-0.5, 0.5)]
            pairs.append(("disjoint", a, b))
        for kind, a, b in pairs:
            moved_a, moved_b = _moved_pair(a, b, rng)
            ops.append({"kind": "pair", "pair_kind": kind, "a": moved_a, "b": moved_b,
                        "half": False})
        ops += [{"kind": "triangle", "angles": _floats(a), "half": True}
                for a in REFERENCE_ANGLES]
        ops += [{"kind": "triangle", "angles": _seeded_triple(m, rng), "half": True}
                for m in HALF_STEP_MIN_ANGLES]
        first_convex = next(op for op in ops if op.get("pair_kind") == "shared_side_convex")
        ops.append(dict(first_convex, half=True))
        return ops

    def prepare(self, ops, workdir):
        pass

    @staticmethod
    def _cfg(op) -> pd.KMConfig:
        return HALF_STEP if op["half"] else pd.KMConfig()

    def run(self, op):
        cfg = self._cfg(op)
        if op["kind"] == "triangle":
            tri = pd.canonicalize_triangle(angles=np.radians(op["angles"]))
            curve = pd.within_triangle_pdf(tri, cfg)
            kind = "triangle"
        else:
            pair = pd.classify_pair(pd.Triangle.from_vertices(*op["a"]),
                                    pd.Triangle.from_vertices(*op["b"]))
            curve = pd.cross_pair_pdf(pair, cfg)
            kind = pair.kind
        cdf = pd.pdf_to_cdf(curve)
        return {"kind": kind, "grid": cdf.grid, "cdf": cdf.values, "pdf": curve.values}

    def reference(self, op):
        cfg = self._cfg(op)
        if op["kind"] == "triangle":
            tri = pd.canonicalize_triangle(angles=np.radians(op["angles"]))
            ref = _closed_cdf(tri, cfg.grid_points)
            return {"grid": ref.grid, "cdf": ref.values}
        # solve S^2 F_u = Sa^2 F_aa + Sb^2 F_bb + 2 Sa Sb F_ab for F_ab, with
        # F_u from one sweep over the union and F_aa, F_bb in closed form
        pair = pd.classify_pair(pd.Triangle.from_vertices(*op["a"]),
                                pd.Triangle.from_vertices(*op["b"]))
        tri_a, tri_b = pair.tri_a, pair.tri_b
        sa, sb = tri_a.area, tri_b.area
        if pair.kind == "shared_side_convex":
            f_u = pd.pdf_to_cdf(pd.within_convex_pdf(_convex_union(tri_a, tri_b), cfg))
        else:
            f_u = _one_sweep_cdf([tri_a, tri_b], sa + sb, pair.max_distance, cfg)
        grid = f_u.grid
        f_aa = _closed_cdf(tri_a, cfg.grid_points).evaluate(grid)
        f_bb = _closed_cdf(tri_b, cfg.grid_points).evaluate(grid)
        s = sa + sb
        f_ab = (s * s * f_u.values - sa * sa * f_aa - sb * sb * f_bb) / (2.0 * sa * sb)
        return {"grid": grid, "cdf": f_ab}

    def check(self, op, out, ref):
        if op["kind"] == "pair" and out["kind"] != op["pair_kind"]:
            return False, None, f"classified as {out['kind']}, built as {op['pair_kind']}"
        gap = _cdf_gap(out["grid"], out["cdf"], ref["grid"], ref["cdf"])
        return gap <= CDF_GAP_MAX, gap, ""

    def same(self, a, b):
        return (a["kind"] == b["kind"] and np.array_equal(a["cdf"], b["cdf"])
                and np.array_equal(a["pdf"], b["pdf"]))


# ---------------------------------------------------------------------------
# polygon_mix
# ---------------------------------------------------------------------------


class PolygonMix:
    """Polygons and rings built from raw vertices and composed from triangle pairs."""

    name = "polygon_mix"

    def make_ops(self, seed: int) -> list[dict]:
        rng = _rng(seed, 2)
        base = _rng(BASE_SEED, 2)
        ops = []
        # Rotating a region moves it against the sweep's orientation grid,
        # which for the thin ears of a star decides whether its mass check
        # passes; polygon_mix therefore only wiggles, scales and shifts.
        shapes = [(f"convex{n}", convex_polygon(n, base)) for n in (4, 5, 6, 7, 8)]
        shapes += [(f"star{n}", star_polygon(n, base)) for n in (6, 7, 8, 9, 10)]
        # a second 7-gon and 7-star (15 sweeps each, like the first ones) put
        # the median op inside a block of four equal-cost ops, not on a step
        # between cost levels, where it would jump with every timing wobble
        shapes += [("convex7b", convex_polygon(7, base)), ("star7b", star_polygon(7, base))]
        for label, shape in shapes:
            moved = _rigid(_wiggle(shape, rng, POLYGON_WIGGLE), rng, rotate=False)
            ops.append({"kind": "polygon", "label": label, "vertices": moved.tolist()})
        # the L stays exact: moving its reflex vertex off the diagonal makes
        # ear clipping emit a sliver, which would be a different workload
        ops.append({"kind": "polygon", "label": "L", "vertices": L_SHAPE.tolist()})
        # The rings stay exact too: their solved F33 carries the largest gap
        # to its reference, and that gap (the discretization error, amplified
        # by the solve) jumps with any change of shape.  The square ring takes
        # the pairwise branch; the two rings with a 64-gon disk hole take the
        # one-sweep branch beyond PAIRWISE_SWEEP_BUDGET.
        ops.append(self._ring("square_ring", _square(0.5), _square(0.3), rng))
        ops.append(self._ring("hexagon_disk_ring", _regular(6),
                              pd.geom.approximate_disk((0.0, 0.0), 0.7, 64).vertices, rng))
        ops.append(self._ring("square_disk_ring", _square(0.5),
                              pd.geom.approximate_disk((0.0, 0.0), 0.35, 64).vertices, rng))
        return ops

    @staticmethod
    def _ring(label, outer, hole, rng):
        moved = _rigid(np.vstack([outer, hole]), rng, rotate=False)
        return {"kind": "ring", "label": label,
                "outer": moved[:len(outer)].tolist(), "hole": moved[len(outer):].tolist()}

    def prepare(self, ops, workdir):
        pass

    def run(self, op):
        if op["kind"] == "polygon":
            poly = pd.SimplePolygon(np.array(op["vertices"]))
            cdf = pd.polygon_pdd(poly, POLYGON_CFG)
            return {"grid": cdf.grid, "cdf": cdf.values, "pdf": cdf.meta["pdf_values"]}
        ring = pd.RingSpec(pd.SimplePolygon(np.array(op["outer"])),
                           pd.SimplePolygon(np.array(op["hole"])))
        curves = pd.ring_pdd(ring, POLYGON_CFG)
        f33 = curves["F33"]
        return {"grid": f33.grid, "cdf": f33.values, "pdf": f33.meta["pdf_values"],
                "raw33": f33.meta["raw_values"], "solve_defect": f33.meta["solve_defect"],
                "F11": curves["F11"].values, "F22": curves["F22"].values,
                "F23": curves["F23"].values, "areas": curves["F11"].meta["areas"]}

    def reference(self, op):
        if op["kind"] == "polygon":
            poly = pd.SimplePolygon(np.array(op["vertices"]))
            ref = _one_sweep_cdf(pd.triangulate(poly), poly.area, poly.diameter, POLYGON_CFG)
        else:
            outer = pd.SimplePolygon(np.array(op["outer"]))
            hole = pd.SimplePolygon(np.array(op["hole"]))
            source = km_engine.DifferenceSource(outer.vertices, hole.vertices)
            ref = pd.pdf_to_cdf(km_engine.sweep_within(
                source, outer.area - hole.area, outer.diameter, POLYGON_CFG))
        return {"grid": ref.grid, "cdf": ref.values}

    def check(self, op, out, ref):
        gap = _cdf_gap(out["grid"], out["cdf"], ref["grid"], ref["cdf"])
        if op["kind"] == "ring":
            s1, s2, s3 = out["areas"]
            back = (s2 * s2 * out["F22"] + 2.0 * s2 * s3 * out["F23"]
                    + s3 * s3 * out["raw33"]) / (s1 * s1)
            defect = float(np.max(np.abs(back - out["F11"])))
            if defect > BACKSUB_MAX:
                return False, gap, f"back-substitution off by {defect:.3g}"
        return gap <= CDF_GAP_MAX, gap, ""

    def same(self, a, b):
        return all(np.array_equal(a[k], b[k]) for k in ("cdf", "pdf"))


# ---------------------------------------------------------------------------
# cli_mc
# ---------------------------------------------------------------------------

# Each Monte Carlo command keeps its own fixed --seed, so only the geometry
# moves with the workload seed.  The geometry moves a little, which keeps the
# KS noise of each command (and so cdf_err_max) nearly the same across seeds.
CLOSED_TRIPLES = ((80, 70, 30), (130, 30, 20), (100, 45, 35))
STAR_SWEEP_MAX_VERTICES = 16
REFERENCE_MC_SEED = 999


class CommandFailed(RuntimeError):
    """A command line returned a nonzero exit status."""

    def __init__(self, code: int, message: str):
        super().__init__(f"exit {code}: {message}")
        self.code = code


class CliMc:
    """In-process command lines: closed-form and Monte Carlo routes, no sweep."""

    name = "cli_mc"

    def make_ops(self, seed: int) -> list[dict]:
        rng = _rng(seed, 3)
        base = _rng(BASE_SEED, 3)
        mc = ["--samples", str(MC_PAIRS), "--seed", "{seed}"]
        ops = []

        def add(kind, argv, out, files, geometry, **extra):
            argv = [a.replace("{seed}", str(1000 + len(ops))) for a in argv]
            ops.append({"kind": kind, "argv": argv + ["--out", "{dir}/" + out],
                        "files": files, "geometry": geometry, **extra})

        # two groups of the same commands on differently moved shapes, so that
        # the single 200-vertex star command stays far below 10 runs per run
        for g in range(2):
            triples = [_jitter_triple(t, rng, 0.01) for t in CLOSED_TRIPLES]
            tri = [{"vertices": _rigid(_canonical(t), rng).tolist()} for t in triples]
            hexagon = {"vertices": _rigid(_wiggle(_regular(6), rng), rng).tolist()}
            pair = [{"vertices": v} for v in _moved_pair(*_shared_side_pair(
                _jitter_triple((120, 25, 35), rng, 0.01),
                _jitter_triple((80, 50, 50), rng, 0.01)), rng)]
            polygons = {
                "convex": _wiggle(convex_polygon(6, base), rng),
                "star8": _wiggle(star_polygon(8, base), rng),
                "L": L_SHAPE,
            }
            for i, t in enumerate(triples):
                angles = {"angles": t}
                add("closed", ["triangle", "--angles", ",".join(repr(x) for x in t),
                               "--method", "closed", "--format", "csv"],
                    f"closed{g}{i}.csv", {}, angles)
                add("closed", ["triangle", "--geometry", f"{{dir}}/tri{g}{i}.json",
                               "--method", "closed", "--format", "json"],
                    f"closed{g}{i}.json", {f"tri{g}{i}.json": tri[i]}, tri[i])
            for i in range(3):
                add("mc", ["triangle", "--geometry", f"{{dir}}/tri{g}{i}.json",
                           "--method", "mc", *mc], f"mc_tri{g}{i}.csv",
                    {f"tri{g}{i}.json": tri[i]}, tri[i])
            for i in range(2):
                add("mc", ["mc", "--geometry", f"{{dir}}/hexagon{g}.json", *mc],
                    f"mc_hexagon{g}{i}.csv", {f"hexagon{g}.json": hexagon}, hexagon)
                add("mc", ["mc", "--geometry", f"{{dir}}/pair_a{g}.json", "--geometry-b",
                           f"{{dir}}/pair_b{g}.json", *mc], f"mc_pair{g}{i}.csv",
                    {f"pair_a{g}.json": pair[0], f"pair_b{g}.json": pair[1]}, pair[0],
                    geometry_b=pair[1])
            for name, shape in polygons.items():
                spec = {"vertices": _rigid(shape, rng).tolist()}
                add("mc", ["polygon", "--geometry", f"{{dir}}/{name}{g}.json",
                           "--method", "mc", *mc], f"mc_{name}{g}.csv",
                    {f"{name}{g}.json": spec}, spec)
            for i in range(3):
                add("check", ["check", "--geometry", f"{{dir}}/tri{g}{i}.json", "--a", "closed",
                              "--b", "mc", *mc, "--format", "json"], f"check{g}{i}.json",
                    {f"tri{g}{i}.json": tri[i]}, tri[i])
        star = {"vertices": _rigid(_wiggle(star_polygon(200, base), rng), rng).tolist()}
        add("mc", ["mc", "--geometry", "{dir}/star200.json", *mc], "mc_star200.csv",
            {"star200.json": star}, star)
        # the first Monte Carlo command is re-run untimed and must repeat byte for byte
        next(op for op in ops if op["kind"] == "mc")["rerun"] = True
        return ops

    def prepare(self, ops, workdir):
        self.workdir = workdir
        self._references = {}
        for op in ops:
            for name, spec in op["files"].items():
                with open(os.path.join(workdir, name), "w") as fh:
                    json.dump(spec, fh)

    def _argv(self, op):
        return [a.replace("{dir}", self.workdir) for a in op["argv"]]

    def run(self, op):
        argv = self._argv(op)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise CommandFailed(code, sink.getvalue().strip())
        with open(argv[-1], "rb") as fh:
            return {"bytes": fh.read()}

    def reference(self, op):
        ref = {}
        if op.get("rerun"):
            ref["rerun"] = self.run(op)
        if op["kind"] != "check":
            key = json.dumps([op["geometry"], op.get("geometry_b")], sort_keys=True)
            if key not in self._references:
                self._references[key] = self._reference_cdf(op)
            ref.update(self._references[key])
        return ref

    @staticmethod
    def _reference_cdf(op) -> dict:
        geometry = pd.geometry_from_spec(op["geometry"])
        if "geometry_b" in op:
            other = pd.geometry_from_spec(op["geometry_b"])
            cdf = pd.pdf_to_cdf(pd.cross_pair_pdf(pd.classify_pair(geometry, other)))
        elif isinstance(geometry, pd.Triangle):
            cdf = _closed_cdf(geometry, pd.KMConfig().grid_points)
        elif len(geometry.vertices) > STAR_SWEEP_MAX_VERTICES:
            # one sweep would clip every pair of the ~200 pieces on every line;
            # an independent Monte Carlo sample is the reference instead
            ecdf = pd.pdd_mc(geometry, geometry, pd.SampleConfig(MC_PAIRS, seed=REFERENCE_MC_SEED))
            grid = np.linspace(0.0, geometry.diameter, pd.KMConfig().grid_points + 1)
            return {"grid": grid, "cdf": ecdf.evaluate(grid)}
        elif geometry.is_convex():
            cdf = pd.pdf_to_cdf(pd.within_convex_pdf(geometry))
        else:
            cdf = _one_sweep_cdf(pd.triangulate(geometry), geometry.area,
                                 geometry.diameter, POLYGON_CFG)
        return {"grid": cdf.grid, "cdf": cdf.values}

    def check(self, op, out, ref):
        if "rerun" in ref and ref["rerun"] != out:
            return False, None, "seeded re-run is not byte-identical"
        if op["kind"] == "check":
            report = json.loads(out["bytes"])
            return bool(report["passed"]) and report["ks"] <= KS_MAX, report["ks"], ""
        text = out["bytes"].decode()
        if op["argv"][-1].endswith(".json"):
            payload = json.loads(text)
            grid, cdf = np.array(payload["d"]), np.array(payload["cdf"])
        else:
            table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
            grid, cdf = table[:, 0], table[:, 2]
        gap = _cdf_gap(grid, cdf, ref["grid"], ref["cdf"])
        limit = CDF_GAP_MAX if op["kind"] == "closed" else KS_MAX
        return gap <= limit, gap, ""

    def same(self, a, b):
        return a == b


WORKLOADS = {w.name: w for w in (TriangleSweep, PolygonMix, CliMc)}
