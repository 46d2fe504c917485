"""Bit-accurate execution of compiled networks.

The cast-point convention is frozen so that emitted source, the emulator,
and the test oracles all agree:

* each weight/input product is exact (no rounding), then cast once into
  the accumulator spec;
* the accumulator starts at the bias cast into the accumulator spec and
  adds casted products in ascending input-index order, applying the
  accumulator spec's overflow handling at every add;
* one final cast into the result spec.

``_mac`` is the one statement of this convention: ``dense_mv``,
``sparse_mv_coo`` and batch norm (a diagonal dense layer) all call it.
Sparse COO execution groups entries by output row; within a row, the
ascending packed index (``out * n_in + in``) is the ascending input
index of the dense order, so dense and sparse results are bit-identical.
Softmax is evaluated in real arithmetic at the output only.

The emulator's per-row state between layers, and every tap, is a quantized
``Tensor``: the raws of one layer output on that layer's result spec. The
kernels take those raws once per call as Python ints (``array.tolist()``)
and compute on them, so products up to 128 bits and 64-bit accumulators
never wrap outside the spec's own overflow rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fixed_point import (
    ROUND_HALF_UP,
    SATURATE,
    FixedPointSpec,
    FixedPointValue,
    apply_overflow,
    cast_raw,
    quantize,
)
from .model_ir import (MODE_CONST_MINUS, MODE_CONST_PLUS, MODE_LE, LayerNode, ModelGraph,
                       PrecisionSet, Tensor, walk)


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
        if any(w.spec != self.weight_spec for _, w in self.entries):
            raise ValueError("COO entries must all be on weight_spec")

    @property
    def index_bits(self) -> int:
        return max(0, math.ceil(math.log2(self.n_in * self.n_out)))


@dataclass(frozen=True)
class LayerTap:
    layer: str
    output: Tensor


def _vector(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor((len(x),), x)


def _mac(bias: int, bias_frac: int, terms, prod_frac: int, precision: PrecisionSet) -> int:
    """One output raw under the frozen convention from a bias raw and (weight, input) raw pairs."""
    acc_spec = precision.accumulator
    acc = cast_raw(bias, bias_frac, acc_spec)
    for w, v in terms:
        if w:  # zero weights contribute nothing, bit-exactly
            acc = apply_overflow(acc + cast_raw(w * v, prod_frac, acc_spec), acc_spec)
    return cast_raw(acc, acc_spec.fraction_bits, precision.result)


def dense_mv(weights: Tensor, bias: Tensor, x, precision: PrecisionSet) -> Tensor:
    """Matrix-vector kernel under the frozen cast-point convention."""
    if len(weights.shape) != 2:
        raise ValueError(f"weight tensor must be 2-D, got shape {weights.shape}")
    m, n = weights.shape
    x = _vector(x)
    if bias.size != m or x.size != n:
        raise ValueError(f"shape mismatch: weight {m}x{n}, bias {bias.size}, input {x.size}")

    prod_frac = weights.spec.fraction_bits + x.spec.fraction_bits
    wraws, xraws = weights.array.tolist(), x.array.tolist()
    out = [_mac(b, bias.spec.fraction_bits, zip(wraws[i * n:(i + 1) * n], xraws), prod_frac, precision)
           for i, b in enumerate(bias.array.tolist())]
    return Tensor((m,), out, precision.result)


def compress_coo(weights: Tensor) -> CooWeights:
    """Pack the nonzero entries of a quantized 2-D weight tensor."""
    if len(weights.shape) != 2:
        raise ValueError(f"weight tensor must be 2-D, got shape {weights.shape}")
    m, n = weights.shape
    entries = tuple((p, FixedPointValue(raw, weights.spec))
                    for p, raw in enumerate(weights.array.tolist()) if raw != 0)
    return CooWeights(entries, n_in=n, n_out=m, weight_spec=weights.spec)


def decompress_coo(coo: CooWeights) -> Tensor:
    raws = [0] * (coo.n_in * coo.n_out)
    for packed, w in coo.entries:
        raws[packed] = w.raw
    return Tensor((coo.n_out, coo.n_in), raws, coo.weight_spec)


def sparse_mv_coo(coo: CooWeights, bias: Tensor, x, precision: PrecisionSet) -> Tensor:
    """COO kernel; bit-identical to dense_mv on the decompressed matrix."""
    x = _vector(x)
    if bias.size != coo.n_out or x.size != coo.n_in:
        raise ValueError(
            f"shape mismatch: COO {coo.n_out}x{coo.n_in}, bias {bias.size}, input {x.size}"
        )
    xraws, rows = x.array.tolist(), [[] for _ in range(coo.n_out)]
    for packed, w in coo.entries:  # ascending packed index: ascending j within a row
        i, j = divmod(packed, coo.n_in)
        rows[i].append((w.raw, xraws[j]))
    prod_frac = coo.weight_spec.fraction_bits + x.spec.fraction_bits
    out = [_mac(b, bias.spec.fraction_bits, terms, prod_frac, precision)
           for b, terms in zip(bias.array.tolist(), rows)]
    return Tensor((coo.n_out,), out, precision.result)


def batch_norm_scale_shift(params: dict):
    """Per-channel (scale, shift) float64 arrays from batch-norm parameters.

    scale_i = gamma_i / sqrt(var_i + eps), shift_i = beta_i - mean_i * scale_i.
    Already-folded params pass through, so folding is idempotent and the
    emulator sees identical numbers either way.
    """
    if "scale" in params and "shift" in params:
        return params["scale"].to_numpy().reshape(-1), params["shift"].to_numpy().reshape(-1)
    eps = params["epsilon"].to_numpy().item()
    gamma, beta, mean, var = (params[k].to_numpy().reshape(-1) for k in
                              ("gamma", "beta", "moving_mean", "moving_variance"))
    denom = var + eps
    bad = np.flatnonzero(denom <= 0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"batch_norm channel {i}: variance + epsilon = {denom[i]} is not positive")
    scale = gamma / np.sqrt(denom)
    return scale, beta - mean * scale


def materialize_quantized(graph: ModelGraph) -> ModelGraph:
    """Quantize every parameter the hardware reads onto its grid.

    Dense weights/biases go to the weight/bias specs. Batch-norm collapses
    to per-channel scale/shift quantized like a diagonal dense layer. Sign
    activation thresholds go onto the round-half-up, saturating variant of
    the incoming spec, the grid their comparisons run on, and missing
    thresholds and mode codes are filled in as 0 on every channel. A
    materialized graph thus holds every raw the emulator and the C++ writer
    read, and materializing it again changes nothing. A threshold already
    quantized on another grid raises ValueError naming the layer.
    """
    nodes = []
    for node, in_spec, width, _ in walk(graph):
        prec = node.precision
        if node.kind == "dense" and not node.param("weight").is_quantized():
            node = node.with_params(
                weight=node.param("weight").quantized(prec.weight),
                bias=node.param("bias").quantized(prec.bias),
            )
        elif node.kind == "batch_norm" and not (
            "scale" in node.params and node.param("scale").is_quantized()
        ):
            scale, shift = batch_norm_scale_shift(node.params)
            node = replace(node, params={
                "scale": Tensor.from_numpy(scale).quantized(prec.weight),
                "shift": Tensor.from_numpy(shift).quantized(prec.bias),
            })
        elif node.kind in ("binary_tanh", "ternary_tanh"):
            # Round-to-nearest with saturation keeps the comparison grid stable.
            tspec = replace(in_spec, rounding=ROUND_HALF_UP, overflow=SATURATE)
            thresholds = node.params.get("threshold")
            if thresholds is None or not thresholds.is_quantized():
                t, m = sign_params(node, width)
                node = node.with_params(threshold=Tensor.from_numpy(t).quantized(tspec),
                                        mode=Tensor.from_numpy(m))
            elif thresholds.spec != tspec:
                raise ValueError(f"layer {node.name!r}: thresholds are quantized on "
                                 f"{thresholds.spec}, but the incoming grid is {tspec}")
        nodes.append(node)
    return graph.replace_nodes(nodes)


def sign_params(node: LayerNode, width: int):
    """Real per-channel thresholds and integer mode codes of a sign activation.

    Missing params default to threshold 0 and mode 0 on every channel.
    """
    thresholds, modes = node.params.get("threshold"), node.params.get("mode")
    t = thresholds.to_numpy().reshape(-1) if thresholds is not None else np.zeros(width)
    m = modes.to_numpy().reshape(-1).astype(int) if modes is not None else np.zeros(width, int)
    return t, m


def sign_levels(node: LayerNode):
    """(band raw, +1 raw, 0 raw, -1 raw) of a materialized sign activation.

    Ternary adds a symmetric band of half a unit on the thresholds' grid
    around each threshold; the band's raw is 0 for binary. The three output
    levels are raws on the result spec. The emulator and the C++ writer
    both read these, so firmware comparisons match the emulator bit for bit.
    """
    half = quantize(0.5, node.param("threshold").spec).raw if node.kind == "ternary_tanh" else 0
    return (half, *(quantize(c, node.precision.result).raw for c in (1.0, 0.0, -1.0)))


def sign_activation(x, thresholds, modes, half):
    """+1.0, 0.0 or -1.0 per channel of binary or ternary tanh.

    ``x`` is one row or a batch of rows, ``thresholds`` and ``modes`` hold
    one entry per channel (mode codes in ``model_ir``). With d = x - t
    (t - x under MODE_LE) the output is +1 when d >= half, -1 when
    d <= -half and 0 in between; binary tanh is the ternary with half = 0.
    Raws must come as object arrays of Python ints so that x - t, which can
    exceed 64 bits, is exact.
    """
    d = np.where(modes == MODE_LE, thresholds - x, x - thresholds)
    out = np.where(d >= half, 1.0, np.where(d <= -half, -1.0, 0.0))
    return np.where(modes == MODE_CONST_PLUS, 1.0, np.where(modes == MODE_CONST_MINUS, -1.0, out))


def _softmax_real(x: Tensor) -> Tensor:
    reals = x.to_numpy().reshape(-1).tolist()
    peak = max(reals)
    exps = [math.exp(r - peak) for r in reals]
    total = sum(exps)
    return Tensor((len(exps),), [e / total for e in exps])


def run_inference(graph: ModelGraph, input_tensor: Tensor = None, tap_all: bool = False):
    """Execute the graph bit-accurately; returns (output, taps).

    Parameters are materialized on the fly when still real-valued. A real
    input is quantized onto the input layer's result spec; a quantized one
    is used as it is. Taps collect every layer output in chain order when
    requested. Compressed dense layers run through ``dense_mv``: COO order
    equals dense order, so the result is the same bit for bit.
    """
    taps = []
    for node in materialize_quantized(graph).nodes:
        res_spec = node.precision.result
        if node.kind == "input":
            current = node.params.get("value", input_tensor)
            if current is None:
                raise ValueError("graph input is not constant and no input tensor was provided")
            if not current.is_quantized():
                current = current.quantized(res_spec)
        elif node.kind == "dense":
            current = dense_mv(node.param("weight"), node.param("bias"), current, node.precision)
        elif node.kind == "batch_norm":
            scale, shift = node.param("scale"), node.param("shift")
            prod_frac = scale.spec.fraction_bits + current.spec.fraction_bits
            out = [_mac(b, shift.spec.fraction_bits, ((s, v),), prod_frac, node.precision) for v, s, b
                   in zip(current.array.tolist(), scale.array.tolist(), shift.array.tolist())]
            current = Tensor((len(out),), out, res_spec)
        elif node.kind == "relu":
            frac = current.spec.fraction_bits
            current = Tensor(current.shape, [cast_raw(max(v, 0), frac, res_spec)
                                             for v in current.array.tolist()], res_spec)
        elif node.kind in ("binary_tanh", "ternary_tanh"):
            half, *levels = sign_levels(node)
            thresholds = node.param("threshold").array.astype(object)
            codes = sign_activation(current.array.astype(object), thresholds, node.param("mode").array, half)
            level = dict(zip((1.0, 0.0, -1.0), levels))
            current = Tensor(current.shape, [level[c] for c in codes.tolist()], res_spec)
        else:  # softmax, always the last layer
            current = _softmax_real(current)
        if tap_all:
            taps.append(LayerTap(node.name, current))
    return current, taps
