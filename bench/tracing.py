"""Spans and counters recorded from outside embimpute, for the traced run.

``install(tracer)`` replaces public functions of embimpute with timing
wrappers at the names where they are looked up when called:

* every public embimpute function bound in ``embimpute.pipeline``,
  ``embimpute.evaluation`` and ``embimpute.cli`` (the stage calls);
* ``embimpute.manifold_graph.build_mst`` and ``augment_to_min_degree``,
  which ``build_graph`` calls through its module globals;
* the package-level names the workloads call (``embimpute.<name>``).

Nothing under ``src/`` is edited; the wrappers live only in the traced
process. A listed name that no longer exists is recorded as absent.

A span is (name, start, end, parent, op). Spans stay in memory until the
run ends. Counters are attached to the span whose call produced them and
are computed from arguments and returned objects only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("embimpute.pipeline", "embimpute.evaluation", "embimpute.cli")
NAMED = {"embimpute.manifold_graph": ("build_mst", "augment_to_min_degree")}
PACKAGE_CALLS = (
    "load_returns_csv",
    "correlation_domain_matrix",
    "load_embeddings",
    "impute_embeddings",
    "save_embeddings",
    "run_synthetic_transfer",
    "sensitivity_sweep",
)

LAYERS = (
    "embedding_io",
    "domain_geometry",
    "manifold_graph",
    "weight_solver",
    "imputation_engine",
    "evaluation",
    "pipeline",
    "cli",
)


class NullTracer:
    """Tracing off: operations are delimited, nothing is recorded."""

    @contextmanager
    def op(self):
        yield


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = []  # (span index, key, value)
        self.absent = []
        self.installed = []  # (module, attr, original) for uninstall()
        self.active = False
        self._stack = []
        self._op = -1

    @contextmanager
    def op(self):
        self._op += 1
        self.active = True
        sid = self.begin("op")
        try:
            yield
        finally:
            self.end(sid)
            self.active = False

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def count(self, sid: int, key: str, value) -> None:
        self.counts.append((sid, key, float(value)))


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _wrap(tracer: Tracer, module, attr: str) -> None:
    fn = getattr(module, attr)
    name = f"{_layer(fn)}.{fn.__name__}"
    observe = OBSERVERS.get(fn.__name__)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if observe is not None:
            try:
                observe(tracer, sid, args, kwargs, out)
            except (AttributeError, TypeError, ValueError, OSError):
                # a refactor changed what the call returns: report, don't fail
                if f"counters of {name}" not in tracer.absent:
                    tracer.absent.append(f"counters of {name}")
        return out

    tracer.installed.append((module, attr, fn))
    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    import embimpute

    for modname in TRACED_MODULES:
        module = importlib.import_module(modname)
        for attr, value in list(vars(module).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__.startswith("embimpute.")
            ):
                _wrap(tracer, module, attr)
    for modname, attrs in NAMED.items():
        module = importlib.import_module(modname)
        for attr in attrs:
            if inspect.isfunction(getattr(module, attr, None)):
                _wrap(tracer, module, attr)
            else:
                tracer.absent.append(f"{modname}.{attr}")
    for attr in PACKAGE_CALLS:
        if inspect.isfunction(getattr(embimpute, attr, None)):
            _wrap(tracer, embimpute, attr)
        else:
            tracer.absent.append(f"embimpute.{attr}")


def uninstall(tracer: Tracer) -> None:
    while tracer.installed:
        module, attr, fn = tracer.installed.pop()
        setattr(module, attr, fn)


# --- counters, from arguments and returned objects ---------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_bytes(key, index, name):
    def observe(tracer, sid, args, kwargs, out):
        tracer.count(sid, key, os.path.getsize(_arg(args, kwargs, index, name)))

    return observe


def _distance(tracer, sid, args, kwargs, out):
    data = getattr(args[0], "data", args[0])
    n, d = np.shape(data)
    # computed: cdist(X, X) evaluates all n*n pairs, 3d flops each
    # (subtract, multiply, add) plus the square root; reads X, writes D
    tracer.count(sid, "distance_flops", n * n * (3 * d + 1))
    tracer.count(sid, "distance_bytes", 8 * (n * d + n * n))


def _mst(tracer, sid, args, kwargs, out):
    tracer.count(sid, "mst_edges", len(out))


def _graph(tracer, sid, args, kwargs, out):
    tracer.count(sid, "edges", out.edge_count())
    tracer.count(sid, "max_in_degree", int(np.max(out.in_degrees())))


def _weights(tracer, sid, args, kwargs, out):
    graph = _arg(args, kwargs, 0, "graph")
    m = out.matrix
    tracer.count(sid, "rows", m.shape[0])
    tracer.count(sid, "nnz", m.nnz)
    tracer.count(sid, "candidates", graph.edge_count())
    tracer.count(sid, "zero_cols", int(np.count_nonzero(np.bincount(m.indices, minlength=m.shape[1]) == 0)))


def _iterate(tracer, sid, args, kwargs, out):
    weights = _arg(args, kwargs, 0, "weights")
    known = _arg(args, kwargs, 1, "known")
    p, s = np.shape(known)
    n = weights.matrix.shape[0]
    q = n - p
    nnz_qq = weights.matrix[p:, p:].nnz
    # computed per sweep: free-block CSR (8 B value + 4 B index per entry,
    # 4 B per row pointer) plus reading Y_q and the anchor term and writing
    # the new Y_q, 8 B per value
    per_sweep = 12 * nnz_qq + 4 * (q + 1) + 3 * 8 * q * s
    tracer.count(sid, "sweeps", out.iterations)
    tracer.count(sid, "sweep_bytes", out.iterations * per_sweep)


OBSERVERS = {
    "euclidean_distance_matrix": _distance,
    "build_mst": _mst,
    "build_graph": _graph,
    "assemble_weight_matrix": _weights,
    "power_iterate": _iterate,
    "load_embeddings": _file_bytes("bytes_read", 0, "path"),
    "load_returns_csv": _file_bytes("bytes_read", 0, "path"),
    "load_domain_csv": _file_bytes("bytes_read", 0, "path"),
    "save_embeddings": _file_bytes("bytes_written", 1, "path"),
}


# --- from spans to per-layer metrics -------------------------------------------


def self_times(spans) -> list:
    """Span length minus the part of it that its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def pass_metrics(tracer: Tracer, first_span: int) -> dict:
    """Per-layer metrics for the spans recorded since ``first_span``."""
    spans = [
        [name, start, end, parent - first_span if parent >= 0 else -1, op]
        for name, start, end, parent, op in tracer.spans[first_span:]
    ]
    total = {}
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
    counts = {}
    peak = {}
    for sid, key, value in tracer.counts:
        if sid < first_span:
            continue
        if key == "max_in_degree":
            peak[key] = max(peak.get(key, 0.0), value)
        else:
            counts[key] = counts.get(key, 0.0) + value

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    assemble_s = t("weight_solver.assemble_weight_matrix")
    m = {
        "manifold_graph.mst_s": t("manifold_graph.build_mst"),
        "manifold_graph.augment_s": t("manifold_graph.augment_to_min_degree"),
        "manifold_graph.edges": counts.get("edges", 0.0),
        "manifold_graph.edges_added": (
            counts.get("edges", 0.0) - 2 * counts["mst_edges"] if "mst_edges" in counts else 0.0
        ),
        "manifold_graph.max_in_degree": peak.get("max_in_degree", 0.0),
        "domain_geometry.distance_s": t("domain_geometry.euclidean_distance_matrix"),
        "domain_geometry.corr_s": t("domain_geometry.correlation_domain_matrix"),
        "domain_geometry.distance_flops": counts.get("distance_flops", 0.0),
        "domain_geometry.distance_bytes": counts.get("distance_bytes", 0.0),
        "weight_solver.assemble_s": assemble_s,
        "weight_solver.rows_per_s": counts.get("rows", 0.0) / assemble_s if assemble_s else 0.0,
        "weight_solver.nnz": counts.get("nnz", 0.0),
        "weight_solver.support_ratio": (
            counts["nnz"] / counts["candidates"] if counts.get("candidates") else 0.0
        ),
        "weight_solver.zero_cols": counts.get("zero_cols", 0.0),
        "embedding_io.load_s": t(
            "embedding_io.load_embeddings", "embedding_io.load_returns_csv", "embedding_io.load_domain_csv"
        ),
        "embedding_io.save_s": t("embedding_io.save_embeddings"),
        "embedding_io.align_s": t("embedding_io.align"),
        "embedding_io.merge_s": t("embedding_io.merge_imputed"),
        "embedding_io.bytes_read": counts.get("bytes_read", 0.0),
        "embedding_io.bytes_written": counts.get("bytes_written", 0.0),
        "imputation_engine.fix_s": t("imputation_engine.fix_known_block"),
        "imputation_engine.iterate_s": t("imputation_engine.power_iterate"),
        "imputation_engine.sweeps": counts.get("sweeps", 0.0),
        "imputation_engine.sweep_bytes": counts.get("sweep_bytes", 0.0),
        "evaluation.make_data_s": t("evaluation.make_transfer_data"),
        "evaluation.knn_s": t("evaluation.knn_accuracy"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


UNITS = {
    "manifold_graph.edges": "count",
    "manifold_graph.edges_added": "count",
    "manifold_graph.max_in_degree": "count",
    "domain_geometry.distance_flops": "flop_computed",
    "domain_geometry.distance_bytes": "B_computed",
    "weight_solver.rows_per_s": "1/s",
    "weight_solver.nnz": "count",
    "weight_solver.support_ratio": "fraction",
    "weight_solver.zero_cols": "count",
    "embedding_io.bytes_read": "B",
    "embedding_io.bytes_written": "B",
    "imputation_engine.sweeps": "count",
    "imputation_engine.sweep_bytes": "B_computed",
    "imputation_engine.fixed_point_err": "fraction",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")
