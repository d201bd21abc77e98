"""Span tracer for the traced run, kept entirely outside the package.

``Tracer`` wraps the entry points of every polydist module (the layers
geom, km, closed, compose, mc and cli).  Several modules import names by
value (``from .geom import triangulate``), so a wrapper replaces the name in
every module that bound it; methods such as ``ConvexClipper.chord`` are
replaced on their class.  Helpers called once per grid node (for example
``closed_form_pdf``) are left unwrapped, so that the trace does not swamp
what it measures; their time lands in the self time of the caller.

Spans (kind, start, end, parent, op id, an integer argument) stay in
memory in flat arrays and are written out when the run ends.  A span's
self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "geom": "geom",
    "km_engine": "km",
    "closed_form": "closed",
    "compose": "compose",
    "mc_oracle": "mc",
    "cli": "cli",
}


def _lines(args, kwargs):
    return int(np.size(args[2] if len(args) > 2 else kwargs["p"]))


def _pairs(args, kwargs):
    from polydist.mc_oracle import SampleConfig

    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return (cfg or SampleConfig()).n_pairs


def _text_len(args, kwargs):
    return len(args[0] if args else kwargs["text"])


# (module, attribute path, group, argument recorder).  The group names the
# per-layer figure a span's self time feeds; None leaves it in the layer's
# total self time only.
TARGETS = (
    ("geom", "canonicalize_triangle", "build", None),
    ("geom", "geometry_from_spec", "build", None),
    ("geom", "approximate_disk", "build", None),
    ("geom", "Triangle.__post_init__", "build", None),
    ("geom", "SimplePolygon.__post_init__", "build", None),
    ("geom", "SimplePolygon.is_convex", None, None),
    ("geom", "hull_diameter", None, None),
    ("geom", "point_in_polygon", None, None),
    ("geom", "classify_pair", "classify", None),
    ("geom", "triangulate", "triangulate", None),
    ("geom", "triangulate_ring", "triangulate", None),
    ("geom", "ConvexClipper.__init__", None, None),
    ("geom", "ConvexClipper.support", "support", None),
    ("geom", "ConvexClipper.chord", "chord", _lines),
    ("km_engine", "within_triangle_pdf", None, None),
    ("km_engine", "within_convex_pdf", None, None),
    ("km_engine", "cross_pair_pdf", None, None),
    ("km_engine", "sweep_within", "sweep", None),
    ("km_engine", "sweep_between", "sweep", None),
    ("km_engine", "pdf_to_cdf", "check", None),
    ("km_engine", "DensityCurve.__post_init__", "check", None),
    ("km_engine", "CdfCurve.__post_init__", "check", None),
    ("closed_form", "closed_form_curve", "curve", None),
    ("closed_form", "TriangleParams.from_triangle", None, None),
    ("compose", "polygon_pdd", "entry", None),
    ("compose", "ring_pdd", "entry", None),
    ("compose", "between_regions_pdd", "entry", None),
    ("compose", "scale_curve", None, None),
    ("compose", "weighted_mixture", None, None),
    ("compose", "RegionPartition.from_triangles", None, None),
    ("compose", "RegionPartition.mixture", None, None),
    ("compose", "RingSpec.__post_init__", None, None),
    ("mc_oracle", "pdd_mc", "sample", _pairs),
    ("mc_oracle", "sample_uniform_triangle", "sample", None),
    ("mc_oracle", "sample_uniform_polygon", "sample", None),
    ("mc_oracle", "EmpiricalCdf.__post_init__", "sample", None),
    ("mc_oracle", "ks_distance", "ks", None),
    ("cli", "main", "parse", None),
    ("cli", "build_parser", "parse", None),
    ("cli", "job_from_args", "parse", None),
    ("cli", "JobSpec.__post_init__", "parse", None),
    ("cli", "run", None, None),
    ("cli", "render_csv", "render", None),
    ("cli", "render_json", "render", None),
    ("cli", "_emit", "render", _text_len),
)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers in."""

    def __init__(self):
        self.kind_names = []
        self.kind_layer = []
        self.kind_group = []
        self.kind = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.arg = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack = []
        self._plan = []
        self._build_plan()

    # -- installation -------------------------------------------------------

    def _build_plan(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "polydist" or name.startswith("polydist."))]
        for mod_name, path, group, arg in TARGETS:
            module = sys.modules[f"polydist.{mod_name}"]
            layer = LAYERS[mod_name]
            kind = len(self.kind_names)
            self.kind_names.append(f"{layer}.{path}")
            self.kind_layer.append(layer)
            self.kind_group.append(group)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, kind, arg))
                else:
                    wrapped = self._wrap(raw, kind, arg)
                self._plan.append((cls, attr, raw, wrapped))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(original, kind, arg)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._plan.append((mod, name, original, wrapped))

    def install(self):
        for owner, name, _, wrapped in self._plan:
            setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, original, _ in self._plan:
            setattr(owner, name, original)

    def _wrap(self, fn, kind, arg):
        kinds, parents, ops, args = self.kind, self.parent, self.op, self.arg
        starts, ends, stack = self.start, self.end, self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **k):
            idx = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            args.append(arg(a, k) if arg is not None else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*a, **k)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()

        return wrapper

    # -- analysis ------------------------------------------------------------

    def mark(self) -> int:
        return len(self.kind)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-kind counts, self and inclusive times, arguments of spans [lo, hi)."""
        k = len(self.kind_names)
        kind = np.frombuffer(self.kind, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        arg = np.frombuffer(self.arg, dtype=np.int64)[lo:hi].astype(float)
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        inside = parent >= lo
        child = np.bincount(parent[inside] - lo, weights=dur[inside], minlength=len(dur))
        own = dur - child
        entry = {i for i, g in enumerate(self.kind_group) if g == "entry"}
        sweep = {i for i, g in enumerate(self.kind_group) if g == "sweep"}
        outermost = under_entry = 0
        for idx in np.flatnonzero(np.isin(kind, list(entry | sweep))):
            p, nested = parent[idx], False
            while p >= lo:
                if kind[p - lo] in entry:
                    nested = True
                    break
                p = parent[p - lo]
            if kind[idx] in entry:
                outermost += not nested
            else:
                under_entry += nested
        return {
            "count": np.bincount(kind, minlength=k),
            "self": np.bincount(kind, weights=own, minlength=k),
            "incl": np.bincount(kind, weights=dur, minlength=k),
            "arg": np.bincount(kind, weights=arg, minlength=k),
            "root": float(dur[~inside].sum()),
            "curves": outermost,
            "sweeps_in_curves": under_entry,
        }

    def save(self, path):
        np.savez(path, kind_names=np.array(self.kind_names),
                 kind=np.frombuffer(self.kind, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 arg=np.frombuffer(self.arg, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def layer_metrics(tracer: Tracer, summaries, traced_wall: float, untraced_wall: float,
                  solve_defect_max: float) -> dict:
    """Per-layer metrics of one pass from per-op span summaries."""
    total = {key: sum(s[key] for s in summaries) for key in
             ("count", "self", "incl", "arg", "root", "curves", "sweeps_in_curves")}
    names, layers, groups = tracer.kind_names, tracer.kind_layer, tracer.kind_group

    def pick(field, layer, group=None, name=None):
        return float(sum(total[field][i] for i in range(len(names))
                         if layers[i] == layer and (group is None or groups[i] == group)
                         and (name is None or names[i] == name)))

    chord_lines = pick("arg", "geom", "chord")
    sweep_s = pick("incl", "km", "sweep")
    pdd_mc_s = pick("incl", "mc", name="mc.pdd_mc")
    mc_pairs = pick("arg", "mc", name="mc.pdd_mc")
    curves = total["curves"]
    layer_self = {layer: pick("self", layer) for layer in LAYERS.values()}
    m = {
        "geom.chord_calls": pick("count", "geom", "chord"),
        "geom.chord_lines": chord_lines,
        "geom.chord_s": pick("self", "geom", "chord"),
        "geom.support_s": pick("self", "geom", "support"),
        "geom.classify_pairs": pick("count", "geom", "classify"),
        "geom.classify_s": pick("self", "geom", "classify"),
        "geom.build_s": pick("self", "geom", "build"),
        "geom.triangulate_calls": pick("count", "geom", "triangulate"),
        "geom.triangulate_s": pick("self", "geom", "triangulate"),
        "geom.self_s": layer_self["geom"],
        "km.sweeps": pick("count", "km", "sweep"),
        "km.sweep_s": sweep_s,
        "km.sweep_self_s": pick("self", "km", "sweep"),
        "km.ns_per_line": 1e9 * sweep_s / chord_lines if chord_lines else 0.0,
        "km.check_s": pick("self", "km", "check"),
        "km.self_s": layer_self["km"],
        "compose.curves": float(curves),
        "compose.sweeps_per_curve": total["sweeps_in_curves"] / curves if curves else 0.0,
        "compose.self_s": layer_self["compose"],
        "compose.solve_defect_max": solve_defect_max,
        "closed.curves": pick("count", "closed", "curve"),
        "closed.curve_s": pick("incl", "closed", "curve"),
        "closed.self_s": layer_self["closed"],
        "mc.pairs": mc_pairs,
        "mc.sample_s": pick("self", "mc", "sample"),
        "mc.pairs_per_s": mc_pairs / pdd_mc_s if pdd_mc_s else 0.0,
        "mc.ks_s": pick("self", "mc", "ks"),
        "mc.self_s": layer_self["mc"],
        "cli.commands": pick("count", "cli", name="cli.main"),
        "cli.parse_s": pick("self", "cli", "parse"),
        "cli.render_s": pick("self", "cli", "render"),
        "cli.bytes_out": pick("arg", "cli", "render"),
        "cli.self_s": layer_self["cli"],
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_frac": 1.0 - sum(layer_self.values()) / traced_wall,
    }
    return m
