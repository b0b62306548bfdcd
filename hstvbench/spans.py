"""Outside-in tracing of hstv: spans recorded from the benchmark's side.

`Tracer.install` wraps every public function of each layer module (plus a
few named methods) and rebinds the wrapper in every hstv module that holds
the original, because ``from .x import f`` binds `f` once per importing
module.  `uninstall` puts the originals back, so untraced requests run the
unmodified code.

A span is ``[id, parent_id, request, name, start, end, child_s, leaves]``.
Functions of the schatten layer and ``mesh.as_fraction`` are leaves: they
run once per edge or coordinate, so instead of one span per call they are
aggregated into their caller's span as ``leaves[name] = [calls, seconds]``.
A span's self time is its duration minus the time its child spans and
leaves cover; summed over a request, self times add up to the root span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("schatten", "mesh", "fields", "htv", "approx", "extremal", "cli")
# Names bound in a layer module but defined elsewhere that are traced there.
EXTRA = {"approx": ("delaunay",)}
# (class, method, span name) per layer module.
METHODS = {"mesh": (("Triangulation", "__init__", "Triangulation"),
                    ("Triangulation", "covers_bbox_exactly", "covers_bbox_exactly"))}
LEAF_FUNCTIONS = {"mesh.as_fraction"}
# Counters that combine across requests by max instead of sum.
MAX_COUNTS = {"approx.spacing_bits", "extremal.decompose.identity_rel_gap"}

ID, PARENT, REQUEST, NAME, START, END, CHILD, LEAVES = range(8)


def _plan_counts(counts, plan, args):
    counts["approx.cells"] += len(plan.squares)
    counts["approx.cell_types"] += len({(s.pp, s.qq, s.reflected) for s in plan.squares})
    counts["approx.spacing_bits"] = max(counts["approx.spacing_bits"],
                                        plan.spacing.denominator.bit_length())


def _mesh_counts(counts, mesh, args):
    counts["approx.vertices"] += mesh.n_vertices
    counts["approx.triangles"] += mesh.n_triangles


def _decompose_counts(counts, dec, args):
    counts["extremal.decompose.terms"] += len(dec.terms)
    gap = abs(sum(dec.coefficients) + dec.residual - dec.total) / dec.total
    counts["extremal.decompose.identity_rel_gap"] = max(
        counts["extremal.decompose.identity_rel_gap"], gap)


# Counters read from a traced call's result (or its arguments).
OBSERVERS = {
    "approx.plan_mesh": _plan_counts,
    "approx.assemble_global": _mesh_counts,
    "mesh.Triangulation": lambda c, r, a: c.__setitem__(
        "mesh.Triangulation.vertices", c["mesh.Triangulation.vertices"] + a[0].n_vertices),
    "mesh.load_mesh": lambda c, r, a: c.__setitem__(
        "mesh.load_mesh.vertices", c["mesh.load_mesh.vertices"] + r.mesh.n_vertices),
    "htv.htv_cpwl": lambda c, r, a: c.__setitem__(
        "htv.htv_cpwl.edges", c["htv.htv_cpwl.edges"] + len(r.edges)),
    "htv.p_independence_check": lambda c, r, a: c.__setitem__(
        "htv.p_independence_check.edges",
        c["htv.p_independence_check.edges"] + len(a[0].mesh.interior_edge_array)),
    "extremal.decompose": _decompose_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.request = None
        self.in_leaf = False
        # Per request: counter name -> value (see OBSERVERS).
        self.counts: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def _leaf(self, name, fn):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.in_leaf or not tr.stack:
                return fn(*args, **kwargs)
            tr.in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tr.in_leaf = False
                parent = tr.stack[-1]
                parent[CHILD] += dt
                agg = parent[LEAVES].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dt

        return traced

    def _span(self, name, fn):
        tr = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.in_leaf:
                return fn(*args, **kwargs)
            parent = tr.stack[-1] if tr.stack else None
            span = [tr._next_id, parent[ID] if parent else -1, tr.request, name,
                    0.0, 0.0, 0.0, {}]
            tr._next_id += 1
            tr.stack.append(span)
            span[START] = t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = t1 = perf_counter()
                tr.stack.pop()
                if parent is not None:
                    parent[CHILD] += t1 - t0
                tr.spans.append(span)
            if observe is not None:
                observe(tr.counts[tr.request], result, args)
            return result

        return traced

    def _wrapper(self, name, fn):
        leaf = name.startswith("schatten.") or name in LEAF_FUNCTIONS
        return self._leaf(name, fn) if leaf else self._span(name, fn)

    def install(self) -> None:
        """Wrap the layers' public functions wherever hstv binds them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hstv.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__ or attr in EXTRA.get(layer, ()):
                    wrappers.setdefault(obj, self._wrapper(f"{layer}.{attr}", obj))
            for cls_name, meth, label in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrapper(f"{layer}.{label}", orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hstv" and not mod_name.startswith("hstv."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def totals(self, requests) -> tuple[dict, dict]:
        """(self seconds, calls) per span name, over the given request ids."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span[REQUEST] not in requests:
                continue
            name = span[NAME]
            self_s[name] += span[END] - span[START] - span[CHILD]
            calls[name] += 1
            for leaf, (n, secs) in span[LEAVES].items():
                self_s[leaf] += secs
                calls[leaf] += n
        return self_s, calls

    def request_layers(self, request) -> dict[str, float]:
        """Self seconds per layer for one request."""
        self_s, _ = self.totals({request})
        out: dict[str, float] = defaultdict(float)
        for name, secs in self_s.items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "request", "name", "start",
                                  "end", "child_s", "leaves"],
                       "spans": self.spans}, f)
            f.write("\n")


def layer_metrics(tracer: Tracer, requests) -> dict[str, float]:
    """The per-layer metrics over `requests` (span names as in hstv)."""
    s, c = tracer.totals(requests)
    k: dict[str, float] = defaultdict(float)
    for request in requests:
        for key, value in tracer.counts[request].items():
            k[key] = max(k[key], value) if key in MAX_COUNTS else k[key] + value

    def per(secs, count, scale):
        return secs * scale / count if count else 0.0

    return {
        "approx.build_frames.s": s["approx.build_frames"],
        "approx.plan_mesh.s": s["approx.plan_mesh"],
        "approx.assemble_global.s": s["approx.assemble_global"],
        "approx.assemble_global.us_per_vertex":
            per(s["approx.assemble_global"], k["approx.vertices"], 1e6),
        "approx.interpolate.s": s["approx.interpolate"],
        "approx.interpolation_error_estimate.s": s["approx.interpolation_error_estimate"],
        "approx.delaunay.calls": c["approx.delaunay"],
        "approx.vertices": k["approx.vertices"],
        "approx.triangles": k["approx.triangles"],
        "approx.cells": k["approx.cells"],
        "approx.cell_types": k["approx.cell_types"],
        "approx.spacing_bits": k["approx.spacing_bits"],
        "mesh.Triangulation.s": s["mesh.Triangulation"],
        "mesh.Triangulation.calls": c["mesh.Triangulation"],
        "mesh.Triangulation.us_per_vertex":
            per(s["mesh.Triangulation"], k["mesh.Triangulation.vertices"], 1e6),
        "mesh.covers_bbox_exactly.s": s["mesh.covers_bbox_exactly"],
        "mesh.min_angle.s": s["mesh.min_angle"],
        "mesh.load_mesh.s": s["mesh.load_mesh"],
        "mesh.load_mesh.us_per_vertex":
            per(s["mesh.load_mesh"], k["mesh.load_mesh.vertices"], 1e6),
        "mesh.mesh_document.s": s["mesh.mesh_document"],
        "htv.htv_cpwl.s": s["htv.htv_cpwl"],
        "htv.htv_cpwl.calls": c["htv.htv_cpwl"],
        "htv.htv_cpwl.ns_per_edge": per(s["htv.htv_cpwl"], k["htv.htv_cpwl.edges"], 1e9),
        "htv.p_independence_check.s": s["htv.p_independence_check"],
        "htv.p_independence_check.us_per_edge":
            per(s["htv.p_independence_check"], k["htv.p_independence_check.edges"], 1e6),
        "htv.support_edges_by_jump.calls": c["htv.support_edges_by_jump"],
        "schatten.schatten_norm.calls": c["schatten.schatten_norm"],
        "fields.htv_quadrature.s": s["fields.htv_quadrature"],
        "extremal.decompose.s": s["extremal.decompose"],
        "extremal.is_extremal.s": s["extremal.is_extremal"],
        "extremal.constrained_space.s": s["extremal.constrained_space"],
        "extremal.constrained_space.ms_per_call":
            per(s["extremal.constrained_space"], c["extremal.constrained_space"], 1e3),
        "extremal.support_reduce.s": s["extremal.support_reduce"],
        "extremal.normalize_mod_affine.s": s["extremal.normalize_mod_affine"],
        "extremal.decompose.terms": k["extremal.decompose.terms"],
        "extremal.is_extremal.calls": c["extremal.is_extremal"],
        "extremal.constrained_space.calls": c["extremal.constrained_space"],
        "extremal.support_reduce.calls": c["extremal.support_reduce"],
        "extremal.decompose.identity_rel_gap": k["extremal.decompose.identity_rel_gap"],
        "cli.self_s": sum(secs for name, secs in s.items() if name.startswith("cli.")),
    }
