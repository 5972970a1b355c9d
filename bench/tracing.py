"""Per-layer tracing installed from outside the package.

Every geopal module is a layer.  `Tracer.install` replaces each public,
non-generator function of each layer (plus a few named methods) with a
wrapper, in every module namespace that holds the function under some name,
so calls made through an imported name are attributed too.  Nothing under
`src/` changes; `uninstall` puts the originals back.

While tracing is on, each wrapped call does one of three things:

- it enters a layer from another layer (or from the benchmark): a frame is
  pushed and a span (name, start, end, parent span, op id) is recorded;
- it calls one of the TIMED functions from inside its own layer: a frame is
  pushed so the function's self time can be measured, but no span is kept;
- otherwise (same-layer recursion) it only increments the call counter.

A frame's self time is its duration minus the durations of its child
frames.  A layer's self time is the sum over its frames; a timed function's
self time is the sum over the frames it opened.  The benchmark opens one
root frame per op; its self time is the op time no layer accounts for.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "formula",
    "topology",
    "topomodel",
    "product",
    "sslmodel",
    "rewrite",
    "dynamics",
    "games",
    "intervals",
    "cli",
)

# Methods traced besides the module-level public functions.
METHODS = {
    "topology": {"Topology": ("interior", "closure", "restrict")},
    "sslmodel": {"SslEvaluator": ("__init__", "table", "updated")},
    "product": {"ProductEvaluator": ("__init__", "table", "updated")},
}

# Short metric names for wrapped functions.
ALIASES = {
    "topology.Topology.interior": "topology.interior",
    "topology.Topology.closure": "topology.closure",
    "topology.Topology.restrict": "topology.restrict",
    "topology.verify_topology": "topology.verify",
    "sslmodel.SslEvaluator.__init__": "sslmodel.evaluators_built",
    "sslmodel.SslEvaluator.table": "sslmodel.table",
    "sslmodel.SslEvaluator.updated": "sslmodel.updated",
    "product.ProductEvaluator.__init__": "product.evaluators_built",
    "product.ProductEvaluator.table": "product.table",
    "product.ProductEvaluator.updated": "product.updated",
    "product.update_product": "product.update",
    "dynamics.limit_model": "dynamics.limit",
}

# Functions whose self time is measured even when called inside their layer.
TIMED = frozenset({
    "formula.parse",
    "formula.render",
    "topology.interior",
    "topology.verify",
    "topomodel.extension",
    "sslmodel.table",
    "sslmodel.apply_update",
    "product.table",
    "product.knowledge_interior",
    "rewrite.reduce",
    "dynamics.limit",
    "games.rational_extension",
    "cli.load_model",
})

# Calls from the axiom harness into the pointwise evaluators.
REVERIFY = ("satisfies", "satisfies_ssl", "satisfies_product")

_OP = "op"


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "span")

    def __init__(self, layer, name, start, span):
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Call counters, frames and spans for one traced run."""

    def __init__(self):
        self.on = False
        self.calls: Counter = Counter()
        self.entries: Counter = Counter()
        self.layer_self: defaultdict = defaultdict(float)
        self.func_self: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.stack: list[_Frame] = []
        self.op_id = -1
        self.op_time = 0.0
        self.unattributed = 0.0
        self._restore: list[tuple] = []
        self._reduced: list = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"geopal.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("geopal"), *modules.values()]
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrapped[obj] = self._wrap(obj, layer, f"{layer}.{attr}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    name = f"{layer}.{cls_name}.{method}"
                    self._restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(original, layer, name))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((namespace, attr, obj))
                    replacement = wrapped[obj]
                    if namespace is modules["rewrite"] and attr in REVERIFY:
                        replacement = self._count_reverify(replacement)
                    setattr(namespace, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _count_reverify(self, fn):
        calls = self.calls

        def reverify(*args, **kwargs):
            if self.on:
                calls["rewrite.reverify"] += 1
            return fn(*args, **kwargs)

        return reverify

    def _wrap(self, fn, layer, name):
        name = ALIASES.get(name, name)
        timed = name in TIMED
        hook = _HOOKS.get(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            calls[name] += 1
            stack = self.stack
            top = stack[-1]
            if top.layer == layer and (not timed or top.name == name):
                result = fn(*args, **kwargs)
            else:
                result = self._framed(fn, args, kwargs, layer, name, top)
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _framed(self, fn, args, kwargs, layer, name, parent):
        span = None
        if parent.layer != layer:
            self.entries[layer] += 1
            span = len(self.spans)
            self.spans.append(None)
        frame = _Frame(layer, name, perf_counter(), span)
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self._close(frame, end, parent)

    def _close(self, frame, end, parent):
        duration = end - frame.start
        own = duration - frame.child
        self.layer_self[frame.layer] += own
        if frame.name in TIMED:
            self.func_self[frame.name] += own
        parent.child += duration
        if frame.span is not None:
            self.spans[frame.span] = (frame.name, frame.start, end, parent.span, self.op_id)

    # -- ops --------------------------------------------------------------

    def run_op(self, fn, *args):
        """Call fn(*args) as one traced op under a root frame."""
        self.op_id += 1
        span = len(self.spans)
        self.spans.append(None)
        root = _Frame(_OP, _OP, perf_counter(), span)
        self.stack.append(root)
        self.on = True
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.on = False
            self.stack.pop()
            duration = end - root.start
            self.op_time += duration
            self.unattributed += duration - root.child
            self.spans[span] = (_OP, root.start, end, None, self.op_id)
            self._count_reduced()

    def _count_reduced(self):
        for f in self._reduced:
            tree, dag = formula_sizes(f)
            self.calls["rewrite.reduce.tree_nodes"] += tree
            self.calls["rewrite.reduce.dag_nodes"] += dag
        self._reduced.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every counter and self time, keyed by metric name."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.entries[layer]
            out[f"{layer}.self_s"] = self.layer_self[layer]
        for name, count in self.calls.items():
            out[name if name in _PLAIN_COUNTS else f"{name}.calls"] = count
        for name in TIMED:
            out[f"{name}.self_s"] = self.func_self[name]
        out["trace.unattributed_s"] = self.unattributed
        out["trace.op_s"] = self.op_time
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        """Spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps([index, name, start, end, parent, op]) + "\n")


_PLAIN_COUNTS = frozenset({
    "sslmodel.evaluators_built",
    "product.evaluators_built",
    "rewrite.reduce.tree_nodes",
    "rewrite.reduce.dag_nodes",
    "dynamics.stages",
    "games.stages",
})


def formula_sizes(f) -> tuple[int, int]:
    """(tree size, number of distinct node objects) of a formula DAG."""
    from geopal.formula import children

    sizes: dict[int, int] = {}
    stack = [f]
    while stack:
        node = stack[-1]
        if id(node) in sizes:
            stack.pop()
            continue
        kids = children(node)
        pending = [c for c in kids if id(c) not in sizes]
        if pending:
            stack.extend(pending)
        else:
            sizes[id(node)] = 1 + sum(sizes[id(c)] for c in kids)
            stack.pop()
    return sizes[id(f)], len(sizes)


def _count_stages(tracer, trace):
    tracer.calls["dynamics.stages"] += trace.stage_count


def _count_game_stages(tracer, result):
    tracer.calls["games.stages"] += result.trace.stage_count


def _keep_reduced(tracer, result):
    tracer._reduced.append(result)


_HOOKS = {
    "dynamics.limit": _count_stages,
    "dynamics.announce_while_true": _count_stages,
    "games.bi_via_announcements": _count_game_stages,
    "rewrite.reduce": _keep_reduced,
}
