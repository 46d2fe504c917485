"""Graph-rewrite passes that precompute constants and fuse layers.

All passes are pure graph-to-graph functions run on real-valued
parameters, before quantization; fusing after quantization would change
the quantization grid. Each returns the rewritten graph plus a
PassReport listing (removed layer names, absorbing layer name) per
rewrite, and is idempotent: a second application reports no rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import batch_norm_scale_shift, run_inference
from .model_ir import MODE_CONST_MINUS, MODE_CONST_PLUS, MODE_GE, MODE_LE, ModelGraph, Tensor


@dataclass(frozen=True)
class PassReport:
    pass_name: str
    rewrites: tuple  # ((removed names...), absorbing name)

    def __post_init__(self):
        object.__setattr__(
            self, "rewrites", tuple((tuple(r), a) for r, a in self.rewrites)
        )

    @property
    def empty(self) -> bool:
        return not self.rewrites

    def to_doc(self) -> dict:
        return {
            "pass": self.pass_name,
            "rewrites": [{"removed": list(r), "absorbed_into": a} for r, a in self.rewrites],
        }


def _real_params(node) -> bool:
    return all(not t.is_quantized() for t in node.params.values())


def _fuse_pairs(graph: ModelGraph, pass_name: str, fuse):
    """Rewrite each adjacent pair of layers that ``fuse`` merges, left to right.

    ``fuse(node, nxt)`` returns None to keep the pair, or the merged node
    and the name of the layer it removes; the merged node's name is the
    absorbing layer. An unchanged graph is returned as it is.
    """
    nodes, out, rewrites = graph.nodes, [], []
    i = 0
    while i < len(nodes):
        merged = fuse(nodes[i], nodes[i + 1]) if i + 1 < len(nodes) else None
        if merged is None:
            out.append(nodes[i])
            i += 1
        else:
            out.append(merged[0])
            rewrites.append(((merged[1],), merged[0].name))
            i += 2
    report = PassReport(pass_name, tuple(rewrites))
    return (graph.replace_nodes(out) if rewrites else graph), report


def fuse_batchnorm_into_dense(graph: ModelGraph):
    """Fold dense -> batch_norm into the dense layer's weights and bias.

    With scale s_i = gamma_i / sqrt(var_i + eps): W'_ij = s_i * W_ij and
    b'_i = s_i * (b_i - mean_i) + beta_i.
    """
    def fuse(node, nxt):
        if not (node.kind == "dense" and nxt.kind == "batch_norm"
                and _real_params(node) and _real_params(nxt)):
            return None
        with np.errstate(over="ignore", invalid="ignore"):  # the serializer names a value past the floats
            try:
                scale, shift = batch_norm_scale_shift(nxt.params)
            except ValueError as e:
                raise ValueError(f"cannot fuse {nxt.name!r} into {node.name!r}: {e}") from None
            weight = scale[:, None] * node.param("weight").to_numpy()
            bias = scale * node.param("bias").to_numpy() + shift
        return node.with_params(weight=Tensor.from_numpy(weight), bias=Tensor.from_numpy(bias)), nxt.name

    return _fuse_pairs(graph, "fuse_batchnorm_into_dense", fuse)


def fuse_batchnorm_into_binary_tanh(graph: ModelGraph):
    """Replace batch_norm -> binary_tanh with per-channel thresholds.

    The threshold solves gamma_i*(t - mean_i)/sqrt(var_i + eps) + beta_i = 0;
    a negative gain flips the comparison direction, and a zero gain leaves
    the channel constant at sign(beta_i) (sign(0) = +1), the limit of the
    threshold formula.
    """
    def fuse(node, nxt):
        if not (node.kind == "batch_norm" and nxt.kind == "binary_tanh"
                and "threshold" not in nxt.params and _real_params(node)):
            return None
        scale, shift = batch_norm_scale_shift(node.params)
        zero = scale == 0.0
        thresholds = np.divide(-shift, scale, out=np.zeros_like(shift), where=~zero)
        modes = np.where(zero, np.where(shift >= 0, MODE_CONST_PLUS, MODE_CONST_MINUS),
                         np.where(scale > 0, MODE_GE, MODE_LE))
        return nxt.with_params(threshold=Tensor.from_numpy(thresholds),
                               mode=Tensor.from_numpy(modes)), node.name

    return _fuse_pairs(graph, "fuse_batchnorm_into_binary_tanh", fuse)


def constant_fold(graph: ModelGraph):
    """Precompute everything that depends only on constant parameters.

    Batch-norm parameter blocks collapse to per-channel (scale, shift).
    When the graph input itself is a constant, the whole chain is folded
    through the bit-accurate emulator and replaced by its computed output,
    so folding never changes emulation results; the input shape becomes
    the output's when the chain changed the width.
    """
    rewrites = []
    folded_nodes = []
    for node in graph.nodes:
        if node.kind == "batch_norm" and "scale" not in node.params and _real_params(node):
            scale, shift = batch_norm_scale_shift(node.params)
            folded_nodes.append(replace(node, params={
                "scale": Tensor.from_numpy(scale),
                "shift": Tensor.from_numpy(shift),
            }))
            rewrites.append(((), node.name))
        else:
            folded_nodes.append(node)
    nodes = folded_nodes

    head, input_shape = nodes[0], graph.input_shape
    if head.kind == "input" and "value" in head.params and len(nodes) > 1:
        output, _ = run_inference(graph.replace_nodes(nodes))
        removed = tuple(n.name for n in nodes[1:])
        nodes = [head.with_params(value=output)]
        rewrites.append((removed, head.name))
        if output.size != graph.input_width:  # a dense layer changed the width
            input_shape = output.shape

    report = PassReport("constant_fold", tuple(rewrites))
    return (ModelGraph.chain(nodes, input_shape) if rewrites else graph), report


def run_standard_passes(graph: ModelGraph):
    """The default pre-quantization pipeline, in its canonical order."""
    reports = []
    for pass_fn in (fuse_batchnorm_into_dense, fuse_batchnorm_into_binary_tanh, constant_fold):
        graph, report = pass_fn(graph)
        reports.append(report)
    return graph, reports
