"""Spans around every call into the package's public functions.

The tracer wraps, from outside the package, each public function of the
traced modules plus ``codegen.ProjectTree.write_to``. A function that a
module imported by name (``from .kernels import run_inference``) is
replaced in that module too, or calls through that name would be missed.
``fixed_point`` gets no spans: its calls are too fine-grained to wrap, so
their cost shows in the callers' self time.

Spans stay in memory as ``[name, layer, start, end, parent, op, weights,
tracer_s]`` and are written out when the run ends. A span's duration is
``end - start - tracer_s``; its self time is its duration minus the
durations of its direct children (spans nest, one thread).

The tracer's own bookkeeping (weight counts, the dense-layer queue of a
``run_inference`` call) is done before a span's start is read, or, when it
needs the result, after its end, and is then taken out of every open span,
so it lands in no span at all.
"""

import importlib
import inspect
import json

from time import perf_counter

MODULES = ("cli", "model_ir", "passes", "kernels", "trainer", "pruning",
           "estimator", "profiler", "codegen")
METHODS = (("codegen", "ProjectTree", "write_to"),)
# The rest of cli's public names (the cmd_* handlers, build_parser) run
# inside cli.run, so their work counts as cli's self time.
CLI_ENTRY = ("run", "main")

# Stages whose cost is reported per dense weight of the graph they handle.
PER_WEIGHT = {
    "kernels.materialize_quantized", "model_ir.parse_model", "model_ir.serialize_model",
    "estimator.estimate_model", "profiler.profile_weights", "pruning.rank_and_mask",
    "pruning.apply_masks", "codegen.emit_project",
}
MV_KERNELS = ("kernels.dense_mv", "kernels.sparse_mv_coo")

# (span name, network layer or None, quantity): the per-layer metrics.
_QUANTITY_UNITS = {"calls": "count/pass", "self_s": "s/pass", "us_per_row": "us/row",
                   "us_per_weight": "us/weight"}
_SPECS = [
    ("kernels.run_inference", "us_per_row"),
    ("kernels.dense_mv", "us_per_row"),
    ("kernels.sparse_mv_coo", "us_per_row"),
    ("kernels.compress_coo", "self_s"),
    ("kernels.materialize_quantized", "us_per_weight"),
    ("trainer.emulate_batch", "us_per_row"),
    ("trainer.evaluate", "self_s"),
    ("trainer.train", "self_s"),
    ("trainer.scan_precisions", "self_s"),
    ("trainer.ptq_qat_scan", "self_s"),
    ("model_ir.parse_model", "us_per_weight"),
    ("model_ir.serialize_model", "us_per_weight"),
    ("model_ir.validate", "self_s"),
    ("passes.run_standard_passes", "self_s"),
    ("estimator.estimate_model", "us_per_weight"),
    ("estimator.reuse_sweep", "self_s"),
    ("profiler.profile_weights", "us_per_weight"),
    ("profiler.check_coverage", "self_s"),
    ("pruning.rank_and_mask", "us_per_weight"),
    ("pruning.apply_masks", "us_per_weight"),
    ("codegen.emit_project", "us_per_weight"),
    ("codegen.emit_report", "self_s"),
    ("codegen.ProjectTree.write_to", "self_s"),
    ("cli.run", "self_s"),
]
PER_LAYER = []
for _name, _quantity in _SPECS:
    PER_LAYER.append((_name, None, _quantity))
    PER_LAYER.append((_name, None, "calls"))
PER_LAYER += [("kernels.dense_mv", f"dense{i}", "us_per_row") for i in range(4)]
PER_LAYER += [("kernels.sparse_mv_coo", f"dense{i}", "us_per_row") for i in (1, 2)]


def metric_name(name, layer, quantity):
    return ".".join(p for p in (name, layer, quantity) if p)


def _weights(graph, materializing=False):
    """Dense weights of ``graph``; with ``materializing``, only the real-valued
    ones, which are all that ``materialize_quantized`` has to quantize."""
    return sum(n.params["weight"].size for n in graph.nodes
               if n.kind == "dense" and "weight" in n.params
               and not (materializing and n.params["weight"].is_quantized()))


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = 0
        self._op = None
        self._stack = []
        self._layer_queues = []  # dense-layer names still to run, per open run_inference
        self._dense_names = (None, ())  # (graph, its dense-layer names), the last one seen
        modules = {m: importlib.import_module(f"fixflow.{m}") for m in MODULES}
        self._graph_type = modules["model_ir"].ModelGraph
        self._topo_order = modules["model_ir"].topo_order
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__
                        and (short != "cli" or attr in CLI_ENTRY)):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        self._patches = []
        for mod in modules.values():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn in wrappers:
                    self._patches.append((mod, attr, fn, wrappers[fn]))
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn, self._wrap(f"{short}.{cls_name}.{attr}", fn)))

    def install(self, op):
        """Trace the calls of benchmark operation ``op`` until ``uninstall``."""
        self._op = op
        self.ops += 1
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _dense_queue(self, graph):
        """Dense-layer names of ``graph`` in run order, cached for the last graph."""
        if self._dense_names[0] is not graph:
            names = tuple(n.name for n in self._topo_order(graph) if n.kind == "dense")
            self._dense_names = (graph, names)
        return list(self._dense_names[1])

    def _exclude(self, seconds):
        """Take bookkeeping time out of every open span."""
        for index in self._stack:
            self.spans[index][7] += seconds

    def _wrap(self, name, fn):
        spans, stack, queues = self.spans, self._stack, self._layer_queues
        per_weight = name in PER_WEIGHT
        materializing = name == "kernels.materialize_quantized"
        is_mv = name in MV_KERNELS
        is_inference = name == "kernels.run_inference"

        def traced(*args, **kwargs):
            t0 = perf_counter()
            layer = None
            if is_mv and queues:
                layer = queues[-1].pop(0) if queues[-1] else None
            elif is_inference:
                queues.append(self._dense_queue(args[0]))
            weights = None if per_weight else 0
            if per_weight and isinstance(args[0], self._graph_type):
                weights = _weights(args[0], materializing)
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._op, weights or 0,
                      0.0]
            self._exclude(perf_counter() - t0)
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
                if is_inference:
                    queues.pop()
            if weights is None:
                record[6] = _weights(result)
            self._exclude(perf_counter() - record[3])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def metrics(self, passes):
        """The per-layer metrics; counts and self times are per traced pass."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _, _, lost in self.spans:
            if parent >= 0:
                child_time[parent] += end - start - lost
        calls, total, own, weights, by_layer = {}, {}, {}, {}, {}
        for i, (name, layer, start, end, _, _, n_weights, lost) in enumerate(self.spans):
            dur = end - start - lost
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child_time[i]
            weights[name] = weights.get(name, 0) + n_weights
            if layer is not None:
                by_layer[(name, layer)] = by_layer.get((name, layer), 0.0) + dur
        passes = max(passes, 1)
        rows = calls.get("kernels.run_inference", 0)
        out = {}
        for name, layer, quantity in PER_LAYER:
            if quantity == "calls":
                value = calls.get(name, 0) / passes
            elif quantity == "self_s":
                value = own.get(name, 0.0) / passes
            elif quantity == "us_per_row":
                spent = by_layer.get((name, layer), 0.0) if layer else total.get(name, 0.0)
                value = spent / rows * 1e6 if rows else 0.0
            else:
                n = weights.get(name, 0)
                value = total.get(name, 0.0) / n * 1e6 if n else 0.0
            out[metric_name(name, layer, quantity)] = {"value": value,
                                                       "unit": _QUANTITY_UNITS[quantity]}
        return out

    def write(self, path):
        origin = self.spans[0][2] if self.spans else 0.0
        keys = ("name", "layer", "start_s", "end_s", "parent", "op", "weights", "tracer_s")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, (s[0], s[1], s[2] - origin, s[3] - origin) + tuple(s[4:])))
                       for s in self.spans], fh)
