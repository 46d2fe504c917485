"""Bit-accurate execution of compiled networks.

The cast-point convention is frozen so that emitted source, the emulator,
and the test oracles all agree:

* each weight/input product is exact (no rounding), then cast once into
  the accumulator spec;
* the accumulator starts at the bias cast into the accumulator spec and
  adds casted products in ascending input-index order, applying the
  accumulator spec's overflow handling at every add;
* one final cast into the result spec.

Sparse COO execution iterates entries in ascending packed index
(``out * n_in + in``), which coincides with the dense per-row order, so
dense and sparse results are bit-identical. Softmax is evaluated in real
arithmetic at the output only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .fixed_point import (
    ROUND_HALF_UP,
    SATURATE,
    FixedPointSpec,
    FixedPointValue,
    apply_overflow,
    cast_raw,
    quantize,
)
from .model_ir import LayerNode, ModelGraph, PrecisionSet, Tensor, walk


@dataclass(frozen=True)
class CooWeights:
    """Nonzero weights as (packed row-major index, value) pairs.

    ``packed = out_index * n_in + in_index``; entries are sorted by packed
    index with no duplicates. The packed index occupies
    ``ceil(log2(n_in * n_out))`` bits alongside the weight in one record.
    """

    entries: tuple  # ((packed_index, FixedPointValue), ...)
    n_in: int
    n_out: int
    weight_spec: FixedPointSpec

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        packed = [p for p, _ in self.entries]
        if packed != sorted(packed) or len(set(packed)) != len(packed):
            raise ValueError("COO entries must be sorted by packed index without duplicates")
        if packed and not 0 <= packed[-1] < self.n_in * self.n_out:
            raise ValueError("packed index out of range")

    @property
    def index_bits(self) -> int:
        return max(0, math.ceil(math.log2(self.n_in * self.n_out)))


@dataclass(frozen=True)
class LayerTap:
    layer: str
    output: Tensor


def _as_values(tensor) -> tuple:
    data = tensor.data if isinstance(tensor, Tensor) else tuple(tensor)
    if not all(isinstance(v, FixedPointValue) for v in data):
        raise TypeError("expected quantized (FixedPointValue) data")
    return data


def dense_mv(weights: Tensor, bias: Tensor, x, precision: PrecisionSet) -> Tensor:
    """Matrix-vector kernel under the frozen cast-point convention."""
    if len(weights.shape) != 2:
        raise ValueError(f"weight tensor must be 2-D, got shape {weights.shape}")
    m, n = weights.shape
    wdata = _as_values(weights)
    bdata = _as_values(bias)
    xdata = _as_values(x)
    if len(bdata) != m or len(xdata) != n:
        raise ValueError(f"shape mismatch: weight {m}x{n}, bias {len(bdata)}, input {len(xdata)}")

    acc_spec, res_spec = precision.accumulator, precision.result
    acc_frac = acc_spec.fraction_bits
    out = []
    for i in range(m):
        b = bdata[i]
        acc = cast_raw(b.raw, b.spec.fraction_bits, acc_spec)
        row = i * n
        for j in range(n):
            w = wdata[row + j]
            if w.raw == 0:
                continue  # zero weights contribute nothing, bit-exactly
            v = xdata[j]
            prod_frac = w.spec.fraction_bits + v.spec.fraction_bits
            p = cast_raw(w.raw * v.raw, prod_frac, acc_spec)
            acc = apply_overflow(acc + p, acc_spec)
        out.append(FixedPointValue(cast_raw(acc, acc_frac, res_spec), res_spec))
    return Tensor((m,), tuple(out))


def compress_coo(weights: Tensor) -> CooWeights:
    """Pack the nonzero entries of a quantized 2-D weight tensor."""
    if len(weights.shape) != 2:
        raise ValueError(f"weight tensor must be 2-D, got shape {weights.shape}")
    m, n = weights.shape
    wdata = _as_values(weights)
    entries = tuple((idx, w) for idx, w in enumerate(wdata) if w.raw != 0)
    return CooWeights(entries, n_in=n, n_out=m, weight_spec=wdata[0].spec if wdata else None)


def decompress_coo(coo: CooWeights) -> Tensor:
    zero = FixedPointValue(0, coo.weight_spec)
    data = [zero] * (coo.n_in * coo.n_out)
    for packed, w in coo.entries:
        data[packed] = w
    return Tensor((coo.n_out, coo.n_in), tuple(data))


def sparse_mv_coo(coo: CooWeights, bias: Tensor, x, precision: PrecisionSet) -> Tensor:
    """COO kernel; bit-identical to dense_mv on the decompressed matrix."""
    bdata = _as_values(bias)
    xdata = _as_values(x)
    if len(bdata) != coo.n_out or len(xdata) != coo.n_in:
        raise ValueError(
            f"shape mismatch: COO {coo.n_out}x{coo.n_in}, bias {len(bdata)}, input {len(xdata)}"
        )
    acc_spec, res_spec = precision.accumulator, precision.result
    accs = [cast_raw(b.raw, b.spec.fraction_bits, acc_spec) for b in bdata]
    n = coo.n_in
    # Ascending packed index == ascending j within each output row.
    for packed, w in coo.entries:
        i, j = divmod(packed, n)
        v = xdata[j]
        prod_frac = w.spec.fraction_bits + v.spec.fraction_bits
        p = cast_raw(w.raw * v.raw, prod_frac, acc_spec)
        accs[i] = apply_overflow(accs[i] + p, acc_spec)
    acc_frac = acc_spec.fraction_bits
    out = [FixedPointValue(cast_raw(a, acc_frac, res_spec), res_spec) for a in accs]
    return Tensor((coo.n_out,), tuple(out))


def batch_norm_scale_shift(params: dict):
    """Per-channel (scale, shift) floats from batch-norm parameters.

    scale_i = gamma_i / sqrt(var_i + eps), shift_i = beta_i - mean_i * scale_i.
    Already-folded params pass through, so folding is idempotent and the
    emulator sees identical numbers either way.
    """
    if "scale" in params and "shift" in params:
        return list(params["scale"].data), list(params["shift"].data)
    eps = params["epsilon"].data[0]
    gamma = params["gamma"].data
    beta = params["beta"].data
    mean = params["moving_mean"].data
    var = params["moving_variance"].data
    scale, shift = [], []
    for i in range(len(gamma)):
        denom = var[i] + eps
        if denom <= 0:
            raise ValueError(f"batch_norm channel {i}: variance + epsilon = {denom} is not positive")
        s = gamma[i] / math.sqrt(denom)
        scale.append(s)
        shift.append(beta[i] - mean[i] * s)
    return scale, shift


def _quantize_tensor(t: Tensor, spec: FixedPointSpec) -> Tensor:
    return Tensor(t.shape, tuple(quantize(v, spec) for v in t.data))


def materialize_quantized(graph: ModelGraph) -> ModelGraph:
    """Quantize all layer parameters onto their precision slots.

    Dense weights/biases go to the weight/bias specs. Batch-norm collapses
    to per-channel scale/shift quantized like a diagonal dense layer.
    Threshold params stay real; they are re-expressed on the incoming grid
    at execution time.
    """
    nodes = []
    for node in graph.nodes:
        if node.kind == "dense" and not node.param("weight").is_quantized():
            nodes.append(node.with_params(
                weight=_quantize_tensor(node.param("weight"), node.precision.weight),
                bias=_quantize_tensor(node.param("bias"), node.precision.bias),
            ))
        elif node.kind == "batch_norm" and not (
            "scale" in node.params and node.param("scale").is_quantized()
        ):
            scale, shift = batch_norm_scale_shift(node.params)
            width = len(scale)
            nodes.append(replace(node, params={
                "scale": _quantize_tensor(Tensor((width,), tuple(scale)), node.precision.weight),
                "shift": _quantize_tensor(Tensor((width,), tuple(shift)), node.precision.bias),
            }))
        else:
            nodes.append(node)
    return graph.replace_nodes(nodes)


def threshold_raws(node: LayerNode, width: int, in_spec: FixedPointSpec):
    """Per-channel threshold raws on the incoming grid, plus mode codes.

    Mode codes: 0 = +1 iff x >= t, 1 = +1 iff x <= t (negative batch-norm
    gain), 2 = constant +1, 3 = constant -1. Ternary adds a symmetric band
    of half a unit around the threshold. Code generation reuses these raws
    so firmware comparisons match the emulator bit-for-bit.
    """
    thresholds = node.params.get("threshold")
    modes = node.params.get("mode")
    tvals = list(thresholds.data) if thresholds is not None else [0.0] * width
    mvals = [int(v) for v in modes.data] if modes is not None else [0] * width
    # Round-to-nearest with saturation keeps the comparison grid stable.
    tspec = replace(in_spec, rounding=ROUND_HALF_UP, overflow=SATURATE)
    return [quantize(t, tspec).raw for t in tvals], mvals


def ternary_half_raw(in_spec: FixedPointSpec) -> int:
    """The half-unit band bound of ternary tanh, on the incoming grid."""
    half_spec = replace(in_spec, rounding=ROUND_HALF_UP, overflow=SATURATE)
    return quantize(0.5, half_spec).raw


def _run_binary_tanh(node, values, in_spec, res_spec):
    traws, modes = threshold_raws(node, len(values), in_spec)
    plus = quantize(1.0, res_spec)
    minus = quantize(-1.0, res_spec)
    out = []
    for v, traw, mode in zip(values, traws, modes):
        if mode == 2:
            out.append(plus)
        elif mode == 3:
            out.append(minus)
        elif mode == 1:
            out.append(plus if v.raw <= traw else minus)
        else:
            out.append(plus if v.raw >= traw else minus)
    return out


def _run_ternary_tanh(node, values, in_spec, res_spec):
    # +/-0.5 band convention; the band is centered on the threshold.
    traws, modes = threshold_raws(node, len(values), in_spec)
    half = ternary_half_raw(in_spec)
    plus = quantize(1.0, res_spec)
    zero = quantize(0.0, res_spec)
    minus = quantize(-1.0, res_spec)
    out = []
    for v, traw, mode in zip(values, traws, modes):
        if mode == 2:
            out.append(plus)
        elif mode == 3:
            out.append(minus)
        else:
            d = v.raw - traw
            if mode == 1:
                d = -d
            out.append(plus if d >= half else (minus if d <= -half else zero))
    return out


def _softmax_real(values) -> tuple:
    reals = [v.to_float() if isinstance(v, FixedPointValue) else float(v) for v in values]
    peak = max(reals)
    exps = [math.exp(r - peak) for r in reals]
    total = sum(exps)
    return tuple(e / total for e in exps)


def run_inference(graph: ModelGraph, input_tensor=None, tap_all: bool = False):
    """Execute the graph bit-accurately; returns (output, taps).

    Parameters are materialized on the fly when still real-valued. Taps
    collect every layer output in chain order when requested. Compressed
    dense layers run through ``dense_mv``: COO order equals dense order, so
    the result is the same bit for bit.
    """
    graph = materialize_quantized(graph)
    taps = []
    for node, in_spec, _, _ in walk(graph):
        res_spec = node.precision.result
        if node.kind == "input":
            value = node.params.get("value")
            if value is not None:
                source = value.data
            elif input_tensor is not None:
                source = input_tensor.data if isinstance(input_tensor, Tensor) else tuple(input_tensor)
            else:
                raise ValueError("graph input is not constant and no input tensor was provided")
            current = tuple(
                v if isinstance(v, FixedPointValue) else quantize(float(v), res_spec)
                for v in source
            )
        elif node.kind == "dense":
            current = dense_mv(node.param("weight"), node.param("bias"), current, node.precision).data
        elif node.kind == "batch_norm":
            acc_spec = node.precision.accumulator
            acc_frac = acc_spec.fraction_bits
            out = []
            for v, s, b in zip(current, node.param("scale").data, node.param("shift").data):
                acc = cast_raw(b.raw, b.spec.fraction_bits, acc_spec)
                p = cast_raw(s.raw * v.raw, s.spec.fraction_bits + v.spec.fraction_bits, acc_spec)
                acc = apply_overflow(acc + p, acc_spec)
                out.append(FixedPointValue(cast_raw(acc, acc_frac, res_spec), res_spec))
            current = tuple(out)
        elif node.kind == "relu":
            current = tuple(
                FixedPointValue(cast_raw(max(v.raw, 0), v.spec.fraction_bits, res_spec), res_spec)
                for v in current
            )
        elif node.kind == "binary_tanh":
            current = tuple(_run_binary_tanh(node, current, in_spec, res_spec))
        elif node.kind == "ternary_tanh":
            current = tuple(_run_ternary_tanh(node, current, in_spec, res_spec))
        else:  # softmax, always the last layer
            current = _softmax_real(current)
        if tap_all:
            taps.append(LayerTap(node.name, Tensor((len(current),), current)))
    return Tensor((len(current),), current), taps
