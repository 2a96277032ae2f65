"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each listed public function with a wrapper
under every name that binds it in a loaded ``boxprod`` module (methods
are replaced on their class), so internal calls such as
``chain_check`` -> ``log_sobolev_estimate`` are counted too.  Spans nest:
a layer's self time is its span time minus the time of the spans it
encloses.  Work counts come from arguments and return values, since the
package reports none of its own.
"""

from __future__ import annotations

import functools
import sys
import time
from math import comb


def _n_vertices(graph):
    return graph.num_vertices if hasattr(graph, "num_vertices") else graph.n


# layer -> [(module, attribute path, extra counter name, counter)]
LAYERS = {
    "isoperimetry.scan": [
        ("boxprod.isoperimetry", "conductance_bruteforce", "subsets",
         lambda a, kw, r: 2 ** _n_vertices(a[0]))],
    "isoperimetry.descent": [
        ("boxprod.isoperimetry", "log_sobolev_estimate", "restarts",
         lambda a, kw, r: r.restarts if r else 0)],
    "spectral.eigen": [("boxprod.spectral", "eigendecompose", None, None)],
    "spectral.transform": [
        ("boxprod.spectral", "fourier_transform", "entries",
         lambda a, kw, r: a[0].product.num_vertices),
        ("boxprod.spectral", "inverse_transform", "entries",
         lambda a, kw, r: a[0].product.num_vertices),
        ("boxprod.spectral", "decompose", None, None)],
    "spectral.energy": [
        ("boxprod.spectral", "directional_form", None, None),
        ("boxprod.spectral", "influence_profile", None, None),
        ("boxprod.spectral", "dirichlet_form", None, None)],
    "graphs.measure": [
        ("boxprod.graphs", "ProductGraph.pi_product", None, None),
        ("boxprod.graphs", "ProductGraph.pi_rest", None, None)],
    "graphs.materialize": [
        ("boxprod.graphs", "ProductGraph.to_weighted_graph", None, None)],
    "functions.variance": [
        ("boxprod.functions", "FunctionTable.variance_along", None, None)],
    "influence": [
        ("boxprod.influence", "kkl_report", None, None),
        ("boxprod.influence", "corollary_check", None, None),
        ("boxprod.influence", "friedgut_extract", None, None)],
    "sdp.lift": [
        ("boxprod.sdp", "lift_vectors", "sets",
         lambda a, kw, r: r.n if r else 0),
        ("boxprod.sdp", "lift_sherali_adams", "sets",
         lambda a, kw, r: len(r[0].tables) if r else 0),
        ("boxprod.sdp", "lift_lasserre", "sets",
         lambda a, kw, r: len(r.vectors) if r else 0)],
    "sdp.verify": [
        ("boxprod.sdp", "LocalDistributions.check_marginal_consistency", "pairs",
         lambda a, kw, r: comb(len(a[0].tables), 2)),
        ("boxprod.sdp", "LocalDistributions.check_vector_consistency", "pairs",
         lambda a, kw, r: sum(1 for s in a[0].tables if len(s) == 2)),
        ("boxprod.sdp", "SetVectorSolution.check_delta_consistency", "pairs",
         lambda a, kw, r: len(a[0].vectors) ** 2)],
    "sdp.triangle": [
        ("boxprod.sdp", "check_triangle", "triples",
         lambda a, kw, r: r.checked if r else 0)],
    "cli": [("boxprod.cli", "run", None, None)],
}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer, entries in LAYERS.items():
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
        extras = sorted({e[2] for e in entries if e[2]})
        out.extend((f"{layer}.{x}", "count") for x in extras)
    out.append(("other.self_s", "s"))
    out.append(("trace.overhead_pct", "%"))
    return out


class Tracer:
    """Span stack plus per-layer totals, reset before each op."""

    def __init__(self):
        self._stack = []
        self._restore = []
        self.reset()

    def reset(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.covered_s = 0.0

    def _wrap(self, layer, fn, counter_name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                tracer._stack.pop()
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
                tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + elapsed - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                else:
                    tracer.covered_s += elapsed
                if counter is not None:  # result is None when fn raised
                    key = f"{layer}.{counter_name}"
                    tracer.counts[key] = tracer.counts.get(key, 0) + counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for layer, entries in LAYERS.items():
            for module_name, attr, counter_name, counter in entries:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(layer, original, counter_name, counter))
                    self._restore.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original, counter_name, counter)
                for name, mod in list(sys.modules.items()):
                    if (name == "boxprod" or name.startswith("boxprod.")) \
                            and getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self, op_seconds):
        """Per-layer numbers since the last reset; ``op_seconds`` is the
        op's time, of which the outermost spans cover ``covered_s``."""
        out = {}
        for layer, entries in LAYERS.items():
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            for extra in sorted({e[2] for e in entries if e[2]}):
                out[f"{layer}.{extra}"] = self.counts.get(f"{layer}.{extra}", 0)
        out["other.self_s"] = op_seconds - self.covered_s
        return out
