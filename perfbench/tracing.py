"""Spans around calls into siglap's layers, recorded from outside the package.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds the wrapper
under every name that any loaded ``siglap`` module holds for it (for
example ``resistance_matrix_for_negatives`` is also bound inside
``definiteness``), so calls between modules are seen too.  Spans are kept in
memory as ``(name, start, end, parent)`` and turned into per-call layer
metrics by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name)
LAYERS = (
    ("siglap.graphfile", "parse_graph", "graphfile.parse_graph"),
    ("siglap.cli", "main", "cli.main"),
    ("siglap.graph_core", "decompose", "graph_core.decompose"),
    ("siglap.graph_core", "path_edge_sets", "graph_core.path_edge_sets"),
    ("siglap.graph_core", "component_labels", "graph_core.component_labels"),
    ("siglap.laplacians", "laplacian_matrix", "laplacians.laplacian_matrix"),
    ("siglap.laplacians", "build_bundle", "laplacians.build_bundle"),
    ("siglap.laplacians", "laplacian_pseudo_inverse", "laplacians.laplacian_pseudo_inverse"),
    ("siglap.spectra", "signature", "spectra.signature"),
    ("siglap.spectra", "pseudo_inverse_eig", "spectra.pseudo_inverse_eig"),
    ("siglap.resistance", "resistance_matrix_for_negatives",
     "resistance.resistance_matrix_for_negatives"),
    ("siglap.resistance", "effective_resistance", "resistance.effective_resistance"),
    ("siglap.definiteness", "multi_edge_verdict", "definiteness.multi_edge_verdict"),
    ("siglap.definiteness", "corollary6_check", "definiteness.corollary6_check"),
    ("siglap.consensus", "simulate", "consensus.simulate"),
    ("siglap.consensus", "_detect", "consensus.detect"),
    ("siglap.consensus", "predict_clusters", "consensus.predict_clusters"),
)

# (metric, span name, kind): "s" is the inclusive time of every span of that
# name in one call, "self_s" the same minus the time of its child spans,
# "calls" the number of spans.
LAYER_METRICS = (
    ("graphfile.parse_graph.s", "graphfile.parse_graph", "s"),
    ("cli.self_s", "cli.main", "self_s"),
    ("graph_core.decompose.s", "graph_core.decompose", "s"),
    ("graph_core.decompose.calls", "graph_core.decompose", "calls"),
    ("graph_core.path_edge_sets.s", "graph_core.path_edge_sets", "s"),
    ("graph_core.component_labels.s", "graph_core.component_labels", "s"),
    ("graph_core.component_labels.calls", "graph_core.component_labels", "calls"),
    ("laplacians.laplacian_matrix.s", "laplacians.laplacian_matrix", "s"),
    ("laplacians.laplacian_matrix.calls", "laplacians.laplacian_matrix", "calls"),
    ("laplacians.build_bundle.s", "laplacians.build_bundle", "s"),
    ("laplacians.laplacian_pseudo_inverse.s", "laplacians.laplacian_pseudo_inverse", "s"),
    ("laplacians.laplacian_pseudo_inverse.calls", "laplacians.laplacian_pseudo_inverse",
     "calls"),
    ("spectra.signature.s", "spectra.signature", "s"),
    ("spectra.pseudo_inverse_eig.s", "spectra.pseudo_inverse_eig", "s"),
    ("spectra.pseudo_inverse_eig.calls", "spectra.pseudo_inverse_eig", "calls"),
    ("resistance.resistance_matrix_for_negatives.s",
     "resistance.resistance_matrix_for_negatives", "s"),
    ("resistance.resistance_matrix_for_negatives.calls",
     "resistance.resistance_matrix_for_negatives", "calls"),
    ("resistance.effective_resistance.self_s", "resistance.effective_resistance", "self_s"),
    ("definiteness.multi_edge_verdict.self_s", "definiteness.multi_edge_verdict", "self_s"),
    ("definiteness.corollary6_check.s", "definiteness.corollary6_check", "s"),
    ("consensus.detect.s", "consensus.detect", "s"),
    ("consensus.predict_clusters.self_s", "consensus.predict_clusters", "self_s"),
)

# Per-layer metrics in the order they are reported, with their units.
METRIC_UNITS = {metric: ("count" if kind == "calls" else "s")
                for metric, _, kind in LAYER_METRICS}
METRIC_UNITS["consensus.integrate.s"] = "s"
METRIC_UNITS["trace.spans"] = "count"
METRIC_UNITS["trace.overhead_s"] = "s"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "siglap" or key.startswith("siglap.")]
        for module_name, attr, span_name in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def take(self) -> list[list]:
        """Return the spans recorded since the last call and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one call from its spans (all but the overhead)."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_kind = {"s": defaultdict(float), "self_s": defaultdict(float), "calls": Counter()}
    for k, (name, start, end, _) in enumerate(spans):
        by_kind["s"][name] += end - start
        by_kind["self_s"][name] += end - start - child_time[k]
        by_kind["calls"][name] += 1
    out = {metric: by_kind[kind][span] for metric, span, kind in LAYER_METRICS}
    out["consensus.integrate.s"] = (by_kind["s"]["consensus.simulate"]
                                    - by_kind["s"]["consensus.detect"])
    out["trace.spans"] = len(spans)
    return out
