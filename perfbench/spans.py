"""In-memory spans around the public call boundaries of the sdlab modules.

A `Tracer` records one span per call of a wrapped function: its name, its
layer (the sdlab module), start and end on a monotonic clock, the span that
was open when it started, and a few counts taken from the arguments or the
result.  Spans stay in memory until the run ends.

`instrument` wraps every binding site of the functions in `SITES`: the
defining module attribute and every other `sdlab` module attribute that
holds the same object (names imported with `from x import y`), plus the
`metric` method of each geometry backend class.  A call made while a span
of the same name is already open (a recursive call) records no span of its
own, so its time counts as the outermost call's time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "error",
                 "counts")

    def __init__(self, sid, name, layer, parent, start):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.error = None
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "parent": self.parent, "start": self.start, "end": self.end,
                "error": self.error, "counts": self.counts}


class Tracer:
    """Span recorder; `wrap` returns a traced version of a callable."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def active(self, name: str) -> bool:
        return any(s.name == name for s in self._stack)

    def wrap(self, fn, name: str, layer: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.active(name):
                return fn(*args, **kwargs)
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = getattr(exc, "slug", type(exc).__name__)
                raise
            finally:
                tracer.close(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        traced.__traced__ = fn
        return traced

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("clear() with open spans")
        self.spans = []


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in covered:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


# ------------------------------------------------------------- binding sites

def _points(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("pts", kwargs.get("x"))
    shape = np.shape(x)
    return {"points": int(shape[0]) if len(shape) == 2 else 1}


def _integral_nodes(args, kwargs, result):
    return {"nodes": int(result.node_count)}


def _kept(args, kwargs, result):
    return {"kept": int(np.size(result))}


def _theta_terms(args, kwargs, result):
    return {"terms": int(result.terms_used)}


def _cache_hit(args, kwargs, result):
    return {"hit": result is not None}


def _brute_points(args, kwargs, result):
    # brute_force_partition(bplus, bminus, box, tau) sums (2 box + 1)^d terms
    a = dict(zip(("bplus", "bminus", "box"), args), **kwargs)
    return {"points": (2 * int(a["box"]) + 1) ** (int(a["bplus"]) + int(a["bminus"]))}


# (layer, defining module, function name, count function or None).  The span
# name is "<layer tail>.<function>", e.g. "curvature.curvature_batch".  Each
# site feeds a layer metric or keeps a layer's time out of its caller's
# self time.
SITES = (
    ("geometry.curvature", "sdlab.geometry.curvature", "curvature_batch", _points),
    ("geometry.curvature", "sdlab.geometry.curvature", "_metric_derivatives", None),
    ("geometry.quadrature", "sdlab.geometry.quadrature", "integrate_refined", None),
    ("geometry.quadrature", "sdlab.geometry.quadrature", "integrate_columns", None),
    ("geometry.quadrature", "sdlab.geometry.quadrature", "panel_rule", None),
    ("geometry.quadrature", "sdlab.geometry.quadrature", "fit_power_tail", None),
    ("geometry.integrals", "sdlab.geometry.integrals", "integrate_invariants",
     _integral_nodes),
    ("geometry.boundary", "sdlab.geometry.boundary", "boundary_report", None),
    ("spectral_zeta", "sdlab.spectral_zeta", "torus_zeta_zero", None),
    ("spectral_zeta", "sdlab.spectral_zeta", "_shell_norms", _kept),
    ("spectral_zeta", "sdlab.spectral_zeta", "_gamma_upper", None),
    ("lattice_sum", "sdlab.lattice_sum", "brute_force_partition", _brute_points),
    ("lattice_sum", "sdlab.lattice_sum", "theta_product", None),
    ("modular_forms", "sdlab.modular_forms", "theta", _theta_terms),
    ("modular_forms", "sdlab.modular_forms", "cot_contour_theta", None),
    ("assembly", "sdlab.assembly", "weights_for", None),
    ("assembly", "sdlab.assembly", "imtau_exponent", None),
    ("assembly", "sdlab.assembly", "assemble_partition", None),
    ("assembly", "sdlab.assembly", "verify_modularity", None),
    ("assembly", "sdlab.assembly", "anomaly_counterterms", None),
    ("assembly", "sdlab.assembly", "neck_check", None),
    ("assembly", "sdlab.assembly", "pathological_partition", None),
    ("cache", "sdlab.cache", "load", _cache_hit),
    ("cache", "sdlab.cache", "store", None),
    ("jsonio", "sdlab.jsonio", "canonical_dumps", None),
    ("jsonio", "sdlab.jsonio", "canonical_loads", None),
    ("catalog", "sdlab.catalog", "parse_manifest", None),
    ("cli", "sdlab.cli", "main", None),
)

BACKEND_CLASSES = ("FlatTorus", "RoundS4", "MultiTaubNut", "Schwarzschild")


def span_name(layer: str, func: str) -> str:
    return f"{layer.rsplit('.', 1)[-1]}.{func}"


def instrument(tracer: Tracer):
    """Wrap every binding site; returns (restore callable, missing sites).

    A site whose defining attribute no longer exists is reported in the
    missing list instead of failing the run, so the layer reads zero.
    """
    saved = []
    missing = []
    importlib.import_module("sdlab.cli")    # loads every binding module
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "sdlab" or n.startswith("sdlab.")) and m is not None]
    for layer, modname, func, count in SITES:
        try:
            home = importlib.import_module(modname)
        except ImportError:
            home = None
        original = getattr(home, func, None)
        if original is None:
            missing.append(f"{modname}.{func}")
            continue
        traced = tracer.wrap(original, span_name(layer, func), layer, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, attr, value))
                    setattr(module, attr, traced)
    backends = importlib.import_module("sdlab.geometry.backends")
    for cls_name in BACKEND_CLASSES:
        cls = getattr(backends, cls_name, None)
        method = vars(cls).get("metric") if cls is not None else None
        if method is None:
            missing.append(f"sdlab.geometry.backends.{cls_name}.metric")
            continue
        saved.append((cls, "metric", method))
        setattr(cls, "metric", tracer.wrap(method, "backends.metric",
                                           "geometry.backends", _points))

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore, missing


# ------------------------------------------------------------ layer metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and seconds over the given spans (one pass)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def calls(name):
        return len(named(name))

    def total(name, key=None):
        if key is None:
            return sum(s.duration for s in named(name))
        return sum(s.counts.get(key, 0) for s in named(name))

    def self_of(pred):
        return sum(own[s.id] for s in spans if pred(s))

    m = {}
    metric_points = total("backends.metric", "points")
    m["backends.metric_calls"] = calls("backends.metric")
    m["backends.metric_points"] = metric_points
    m["backends.metric_s"] = total("backends.metric")
    m["backends.us_per_point"] = 1e6 * _ratio(m["backends.metric_s"],
                                              metric_points)

    batch_points = total("curvature.curvature_batch", "points")
    m["curvature.batch_calls"] = calls("curvature.curvature_batch")
    m["curvature.points"] = batch_points
    m["curvature.stencil_s"] = self_of(
        lambda s: s.name == "curvature._metric_derivatives")
    m["curvature.assembly_s"] = self_of(
        lambda s: s.name == "curvature.curvature_batch")
    m["curvature.points_per_s"] = _ratio(
        batch_points, total("curvature.curvature_batch"))

    nodes = total("integrals.integrate_invariants", "nodes")
    m["quadrature.nodes"] = nodes
    m["quadrature.refined_calls"] = calls("quadrature.integrate_refined")
    m["quadrature.self_s"] = self_of(
        lambda s: s.layer == "geometry.quadrature")
    m["quadrature.tail_fits"] = calls("quadrature.fit_power_tail")
    m["quadrature.tail_fit_s"] = total("quadrature.fit_power_tail")

    m["integrals.calls"] = calls("integrals.integrate_invariants")
    m["integrals.self_s"] = self_of(
        lambda s: s.layer == "geometry.integrals")
    m["integrals.nodes_per_s"] = _ratio(
        nodes, total("integrals.integrate_invariants"))

    reports = named("boundary.boundary_report")
    first_batch = {}
    for s in spans:
        if s.name == "curvature.curvature_batch" and s.parent not in first_batch:
            first_batch[s.parent] = s.counts.get("points", 0)
    m["boundary.reports"] = len(reports)
    m["boundary.points"] = sum(first_batch.get(r.id, 0) for r in reports)
    m["boundary.self_s"] = self_of(lambda s: s.layer == "geometry.boundary")

    zeta = named("spectral_zeta.torus_zeta_zero")
    m["spectral_zeta.values"] = sum(1 for s in zeta if s.error is None)
    m["spectral_zeta.enumeration_refusals"] = sum(
        1 for s in zeta if s.error == "lattice-enumeration")
    m["spectral_zeta.shell_calls"] = calls("spectral_zeta._shell_norms")
    m["spectral_zeta.norms_kept"] = total("spectral_zeta._shell_norms", "kept")
    m["spectral_zeta.shell_s"] = total("spectral_zeta._shell_norms")
    m["spectral_zeta.gamma_s"] = total("spectral_zeta._gamma_upper")

    m["lattice_sum.brute_points"] = total("lattice_sum.brute_force_partition",
                                          "points")
    m["lattice_sum.brute_s"] = total("lattice_sum.brute_force_partition")

    m["modular_forms.theta_calls"] = calls("modular_forms.theta")
    m["modular_forms.theta_terms"] = total("modular_forms.theta", "terms")
    m["modular_forms.theta_s"] = total("modular_forms.theta")
    m["modular_forms.contour_s"] = total("modular_forms.cot_contour_theta")

    m["assembly.partition_calls"] = calls("assembly.assemble_partition")
    m["assembly.self_s"] = self_of(lambda s: s.layer == "assembly")

    loads = calls("cache.load")
    hits = sum(1 for s in named("cache.load") if s.counts.get("hit"))
    m["cache.loads"] = loads
    m["cache.hits"] = hits
    m["cache.misses"] = loads - hits
    m["cache.hit_ratio"] = _ratio(hits, loads)
    m["cache.load_s"] = total("cache.load")
    m["cache.stores"] = calls("cache.store")
    m["cache.store_s"] = total("cache.store")

    m["jsonio.dumps_s"] = total("jsonio.canonical_dumps")
    m["jsonio.loads_s"] = total("jsonio.canonical_loads")
    m["catalog.manifest_s"] = total("catalog.parse_manifest")
    m["cli.self_s"] = self_of(lambda s: s.name == "cli.main")

    # share of op time that spans of the computing layers account for;
    # the harness op span and the CLI entry point are glue, not layers
    glue = ("harness", "cli")
    op_time = sum(s.duration for s in spans if s.parent is None)
    glue_self = self_of(lambda s: s.layer in glue)
    m["trace.layer_coverage"] = _ratio(op_time - glue_self, op_time)
    return m


COUNT_METRICS = (
    "backends.metric_calls", "backends.metric_points", "curvature.batch_calls",
    "curvature.points", "quadrature.nodes", "quadrature.refined_calls",
    "quadrature.tail_fits", "integrals.calls", "boundary.reports",
    "boundary.points", "spectral_zeta.values",
    "spectral_zeta.enumeration_refusals", "spectral_zeta.shell_calls",
    "spectral_zeta.norms_kept", "lattice_sum.brute_points",
    "modular_forms.theta_calls", "modular_forms.theta_terms",
    "assembly.partition_calls", "cache.loads", "cache.hits", "cache.misses",
    "cache.stores",
)

# every per-layer metric the traced run prints, with its unit; the last
# group comes from child-process probes, the harness and the checks
LAYER_UNITS = {
    "backends.metric_calls": "count", "backends.metric_points": "count",
    "backends.metric_s": "s", "backends.us_per_point": "us",
    "curvature.batch_calls": "count", "curvature.points": "count",
    "curvature.stencil_s": "s", "curvature.assembly_s": "s",
    "curvature.points_per_s": "1/s",
    "quadrature.nodes": "count", "quadrature.refined_calls": "count",
    "quadrature.self_s": "s", "quadrature.tail_fits": "count",
    "quadrature.tail_fit_s": "s",
    "integrals.calls": "count", "integrals.self_s": "s",
    "integrals.nodes_per_s": "1/s",
    "boundary.reports": "count", "boundary.points": "count",
    "boundary.self_s": "s",
    "spectral_zeta.values": "count",
    "spectral_zeta.enumeration_refusals": "count",
    "spectral_zeta.shell_calls": "count", "spectral_zeta.norms_kept": "count",
    "spectral_zeta.shell_s": "s", "spectral_zeta.gamma_s": "s",
    "lattice_sum.brute_points": "count", "lattice_sum.brute_s": "s",
    "modular_forms.theta_calls": "count", "modular_forms.theta_terms": "count",
    "modular_forms.theta_s": "s", "modular_forms.contour_s": "s",
    "assembly.partition_calls": "count", "assembly.self_s": "s",
    "cache.loads": "count", "cache.hits": "count", "cache.misses": "count",
    "cache.hit_ratio": "ratio", "cache.load_s": "s", "cache.stores": "count",
    "cache.store_s": "s",
    "jsonio.dumps_s": "s", "jsonio.loads_s": "s",
    "catalog.manifest_s": "s",
    "cli.self_s": "s", "cli.import_s": "s", "cli.import_scipy_special_s": "s",
    "trace.layer_coverage": "ratio", "trace.overhead_frac": "ratio",
    "checks.fail_frac": "ratio", "checks.ref_err_max": "rel",
    "checks.err_ratio_max": "ratio",
}
