"""Bit-accurate execution of compiled networks.

The cast-point convention is frozen so that emitted source, the emulator,
and the test oracles all agree:

* each weight/input product is exact (no rounding), then cast once into
  the accumulator spec;
* the accumulator starts at the bias cast into the accumulator spec and
  adds casted products in ascending input-index order, applying the
  accumulator spec's overflow handling at every add;
* one final cast into the result spec.

``_sum`` is the one statement of this convention, for dense and batch-norm
(a diagonal dense) layers; ``dense_mv`` runs it as a one-step plan, and
``sparse_mv_coo`` runs ``dense_mv`` on the decompressed matrix, whose dense
order is the packed order. Softmax is real arithmetic, at the output only.
A wrapping sum is one wrap of the exact sum (wrapping commutes with
addition), a saturating one whose bounds prove no clamp can fire the exact
sum, and any other clamps every product and every add, once per add
whatever the number of rows. An exact int64 sum whose product cast is a left
shift is one matmul; every other sum forms the products of all rows for a
block of input columns at a time.

``plan`` makes each layer's static choices once: the kept columns, the
weight layout, the cast bias, the shift, and the dtype and branch that the
incoming spec's full range gives, int64 where every value formed fits
(``fixed_point.cast_extremes``) and Python ints elsewhere. A choice left on
Python ints or a per-add clamp is made again per call, from the call's raws.
``run_inference`` walks the plan on bare ``[B, width]`` arrays, and only
taps and the output become ``Tensor``s, unscanned, since the final casts
put them in range. At ``FIXFLOW_LOG=DEBUG`` each step logs its choice.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .fixed_point import (ROUND_HALF_UP, SATURATE, FixedPointSpec, apply_overflow_array,
                          cast_extremes, cast_raw_array, int_dtype, quantize, shift_round)
from .model_ir import (MODE_CONST_MINUS, MODE_CONST_PLUS, MODE_LE, LayerNode, ModelGraph,
                       PrecisionSet, Tensor, walk)

log = logging.getLogger(__name__)
MATMUL, EXACT, CLAMP = "matmul", "exact sum", "per-add clamp"  # a sum's branches, fastest first


@dataclass(frozen=True, eq=False)
class CooWeights:
    """Nonzero weights as a packed-index array and a raw array on ``weight_spec``.

    ``packed = out_index * n_in + in_index``, strictly ascending, and
    ``raws[k]`` is the weight raw at ``packed[k]``. The packed index
    occupies ``ceil(log2(n_in * n_out))`` bits alongside the weight in one
    record. Both arrays are read-only copies of what was passed.
    """

    packed: np.ndarray
    raws: np.ndarray
    n_in: int
    n_out: int
    weight_spec: FixedPointSpec

    def __post_init__(self):
        spec = self.weight_spec
        packed = np.array(self.packed, dtype=np.int64).reshape(-1)
        raws = np.array(self.raws, dtype=spec.raw_dtype).reshape(-1)
        if packed.size != raws.size:
            raise ValueError(f"{packed.size} packed indices but {raws.size} raws")
        if (np.diff(packed) <= 0).any():
            raise ValueError("COO entries must be sorted by packed index without duplicates")
        if packed.size and not (0 <= packed[0] and packed[-1] < self.n_in * self.n_out):
            raise ValueError("packed index out of range")
        if raws.size and not (spec.min_raw <= raws.min() and raws.max() <= spec.max_raw):
            raise ValueError(f"COO raws must lie in the range of weight_spec {spec}")
        for name, array in (("packed", packed), ("raws", raws)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def index_bits(self) -> int:
        return max(0, math.ceil(math.log2(self.n_in * self.n_out)))


@dataclass(frozen=True)
class LayerTap:
    layer: str
    output: Tensor


class _Step(NamedTuple):
    name: str
    spec: FixedPointSpec  # of the output raws; None for softmax's reals
    choice: tuple  # (dtype, branch) from the incoming spec's full range
    choose: object  # (lo, hi) of the input raws -> (dtype, branch)
    body: object  # (input raws [B, n], dtype, branch) -> output raws [B, m]


def _step(name, spec, in_spec, choose, body) -> _Step:
    return _Step(name, spec, choose(in_spec.min_raw, in_spec.max_raw), choose, body)


# Elements of one [columns, B, m] block of products in a sum: it bounds the
# temporaries to at most this or one [B, m] accumulator, so a long block
# of rows through a wide layer adds no memory. At 64 KB of int64 a block
# stays below glibc's default mmap threshold (128 KB), above which every
# temporary is mapped and faulted in afresh: 2**15 ran saturating layers of
# 100 and 1000 rows up to 1.6x slower.
_BLOCK_ELEMENTS = 1 << 13


def _extent(raws) -> tuple:
    return int(raws.min()), int(raws.max())


def _sum(name, weights: Tensor, bias: Tensor, in_spec, precision) -> _Step:
    """The step of a 2-D weight tensor and its bias under the frozen convention."""
    if len(weights.shape) != 2 or bias.size != weights.shape[0]:
        raise ValueError(f"layer {name!r}: weight of shape {weights.shape} and {bias.size} biases")
    acc_spec, (m, n), w_raws = precision.accumulator, weights.shape, weights.array.reshape(weights.shape)
    # Zero-weight columns, like zero weights in kept ones, add exact zeros that change nothing.
    cols = np.flatnonzero(w_raws.any(axis=0))
    kept, k = np.ascontiguousarray(w_raws[:, cols].T), len(cols)  # [k, m]
    prod_frac, bias_frac = weights.spec.fraction_bits + in_spec.fraction_bits, bias.spec.fraction_bits
    shift, (wlo, whi) = acc_spec.fraction_bits - prod_frac, _extent(w_raws)
    bias_terms = cast_extremes(*_extent(bias.array), bias_frac, acc_spec)
    bias = cast_raw_array(bias.array.astype(int_dtype(*bias_terms)), bias_frac, acc_spec)

    def choose(xlo, xhi):
        """(dtype, branch) of the sum on input raws in [xlo, xhi], by the partial-sum
        bound. A right shift moves a value towards 0 and at most to 0, so the
        formed bounds widened to take in 0 bound every cast value, and every
        partial sum lies in [lowest, highest]: in range, no clamp fires. ``reach``
        bounds a clamped sum (one term added to an in-range accumulator) and an
        exact one (up to k terms added to the cast bias), and so the matmul."""
        products = (wlo * xlo, wlo * xhi, whi * xlo, whi * xhi)
        terms = cast_extremes(min(products), max(products), prod_frac, acc_spec)
        acc_range = (acc_spec.min_raw, acc_spec.max_raw)
        lowest = min(bias_terms[0], 0) + k * min(terms[0], 0)
        highest = max(bias_terms[1], 0) + k * max(terms[1], 0)
        saturate = (acc_spec.overflow == SATURATE
                    and not acc_range[0] <= lowest <= highest <= acc_range[1])
        span = max(map(abs, acc_range))
        reach = 2 * span if saturate else span + k * max(map(abs, terms[:2]))
        dtype = int_dtype(wlo, whi, xlo, xhi, *products, *terms, -reach, reach,
                          *bias_terms,
                          *cast_extremes(*acc_range, acc_spec.fraction_bits, precision.result))
        if dtype is np.int64 and shift >= 0 and not saturate:
            return dtype, MATMUL  # each cast product is the exact product shifted left
        return dtype, CLAMP if saturate else EXACT

    def body(x, dtype, branch):
        if x.shape[1] != n:
            raise ValueError(f"layer {name!r}: weight {m}x{n}, input rows of {x.shape[1]}")
        rows, x = len(x), x[:, cols]
        weights, acc = kept.astype(dtype, copy=False), bias.astype(dtype, copy=False)
        if branch == MATMUL:
            acc = ((x.astype(dtype, copy=False) @ weights) << shift) + acc
        else:
            # Column-major copies: each [columns, B, m] block and its [B, m] slices are contiguous.
            weights, x = weights[:, None, :], np.ascontiguousarray(x.T, dtype=dtype)[:, :, None]
            acc = np.repeat(acc[None, :], rows, axis=0)
            step = max(1, _BLOCK_ELEMENTS // max(1, rows * m))
            for c in range(0, k, step):
                formed = shift_round(x[c:c + step] * weights[c:c + step], shift, acc_spec.rounding)
                if branch == CLAMP:
                    formed = apply_overflow_array(formed, acc_spec)
                    for term in formed:
                        acc = apply_overflow_array(acc + term, acc_spec)
                else:
                    acc = acc + formed.sum(axis=0)
        if branch != CLAMP:
            acc = apply_overflow_array(acc, acc_spec)
        return cast_raw_array(acc, acc_spec.fraction_bits, precision.result)

    return _step(name, precision.result, in_spec, choose, body)


def _batch_norm(node: LayerNode, in_spec) -> _Step:
    scale = node.param("scale")  # a diagonal dense layer
    diagonal = Tensor((scale.size, scale.size), np.diag(scale.array), scale.spec)
    return _sum(node.name, diagonal, node.param("shift"), in_spec, node.precision)


def _relu(node: LayerNode, in_spec) -> _Step:
    frac, spec = in_spec.fraction_bits, node.precision.result
    return _step(node.name, spec, in_spec,
                 lambda lo, hi: (int_dtype(*cast_extremes(0, max(hi, 0), frac, spec)), "relu"),
                 lambda x, dtype, _: cast_raw_array(np.maximum(x, 0).astype(dtype, copy=False), frac, spec))


def _sign(node: LayerNode, in_spec) -> _Step:
    """A materialized binary or ternary tanh, whose every x - t is exact."""
    half, *levels = sign_levels(node)
    thresholds, modes, spec = node.param("threshold").array, node.param("mode").array, node.precision.result
    levels, (tlo, thi) = np.array(levels, dtype=spec.raw_dtype), _extent(thresholds)  # +1, 0, -1

    def body(x, dtype, _):
        x, t = x.astype(dtype, copy=False), thresholds.astype(dtype, copy=False)
        return levels[(1.0 - sign_activation(x, t, modes, half)).astype(int)]

    return _step(node.name, spec, in_spec, lambda xlo, xhi: (int_dtype(
        xlo, xhi, tlo, thi, xlo - thi, xhi - tlo, tlo - xhi, thi - xlo, half), "sign"), body)


def _softmax(node: LayerNode, in_spec) -> _Step:
    def body(x, dtype, _):
        out = []
        for reals in Tensor._from_cast(x.shape, x, in_spec).to_numpy().tolist():
            peak = max(reals)
            exps = [math.exp(r - peak) for r in reals]
            total = sum(exps)
            out.append([e / total for e in exps])
        return np.array(out)

    return _step(node.name, None, in_spec, lambda lo, hi: (np.float64, "softmax"), body)


_STEPS = {"dense": lambda node, spec: _sum(node.name, node.param("weight"), node.param("bias"), spec,
                                           node.precision),
          "input": lambda node, spec: _step(node.name, spec, spec,
                                            lambda lo, hi: (spec.raw_dtype, "input"), lambda x, dtype, _: x),
          "batch_norm": _batch_norm, "relu": _relu, "binary_tanh": _sign, "ternary_tanh": _sign,
          "softmax": _softmax}


def plan(graph: ModelGraph, input_spec: FixedPointSpec) -> list:
    """One ``_Step`` per layer of ``graph`` for input raws on ``input_spec``.
    Real parameters are quantized as ``materialize_quantized`` does."""
    return _plan(walk(graph), input_spec)


def _plan(walked: list, input_spec: FixedPointSpec) -> list:
    steps, spec = [], input_spec
    for node, in_spec, width, _ in walked:
        steps.append(_STEPS[node.kind](_materialized(node, in_spec, width), spec))
        spec = steps[-1].spec
    return steps


def _run(steps: list, x: Tensor, tap_all: bool):
    """(output, taps) of ``steps`` on the rows of ``x``; the taps when ``tap_all``."""
    if len(x.shape) > 2:
        raise ValueError(f"input must be one row or a block of rows, got shape {x.shape}")
    lead, raws, taps = x.shape[:-1], x.array.reshape(-1, x.shape[-1]), []
    debug = log.isEnabledFor(logging.DEBUG)
    for name, spec, (dtype, branch), choose, body in steps:
        proven = dtype is not object and branch != CLAMP  # else the call's raws may do better
        dtype, branch = (dtype, branch) if proven else choose(*_extent(raws))
        raws = body(raws, dtype, branch)
        if debug:
            log.debug("step %s: %s, %s, %s", name, np.dtype(dtype).name, branch,
                      "proven from the spec" if proven else "taken from the data")
        if tap_all:
            taps.append(LayerTap(name, Tensor._from_cast(lead + raws.shape[1:], raws, spec)))
    return taps[-1].output if tap_all else Tensor._from_cast(lead + raws.shape[1:], raws, spec), taps


def dense_mv(weights: Tensor, bias: Tensor, x, precision: PrecisionSet) -> Tensor:
    """Matrix-vector kernel under the frozen cast-point convention: ``x`` is
    one row ``(n,)`` or a block ``(B, n)``, and the result has its leading shape."""
    x = x if isinstance(x, Tensor) else Tensor((len(x),), x)
    return _run([_sum("dense_mv", weights, bias, x.spec, precision)], x, False)[0]


def compress_coo(weights: Tensor) -> CooWeights:
    """Pack the nonzero entries of a quantized 2-D weight tensor."""
    if len(weights.shape) != 2:
        raise ValueError(f"weight tensor must be 2-D, got shape {weights.shape}")
    m, n = weights.shape
    packed = np.flatnonzero(weights.array)
    return CooWeights(packed, weights.array[packed], n_in=n, n_out=m, weight_spec=weights.spec)


def decompress_coo(coo: CooWeights) -> Tensor:
    raws = np.zeros(coo.n_in * coo.n_out, dtype=coo.raws.dtype)
    raws[coo.packed] = coo.raws
    return Tensor((coo.n_out, coo.n_in), raws, coo.weight_spec)


def sparse_mv_coo(coo: CooWeights, bias: Tensor, x, precision: PrecisionSet) -> Tensor:
    """COO kernel: ``dense_mv`` on the decompressed matrix, whose dense order
    is the packed one; the zeros COO leaves out add nothing, so this is what
    the emitted COO kernel computes."""
    return dense_mv(decompress_coo(coo), bias, x, precision)


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
    return graph.replace_nodes([_materialized(node, in_spec, width)
                                for node, in_spec, width, _ in walk(graph)])


def _materialized(node: LayerNode, in_spec, width: int) -> LayerNode:
    """``node`` as ``materialize_quantized`` leaves it: itself once materialized."""
    prec = node.precision
    if node.kind == "dense" and not node.param("weight").is_quantized():
        return node.with_params(weight=node.param("weight").quantized(prec.weight),
                                bias=node.param("bias").quantized(prec.bias))
    if node.kind == "batch_norm" and not ("scale" in node.params and node.param("scale").is_quantized()):
        scale, shift = batch_norm_scale_shift(node.params)
        return replace(node, params={
            "scale": Tensor.from_numpy(scale).quantized(prec.weight),
            "shift": Tensor.from_numpy(shift).quantized(prec.bias),
        })
    if node.kind in ("binary_tanh", "ternary_tanh"):
        # Round-to-nearest with saturation keeps the comparison grid stable.
        tspec = replace(in_spec, rounding=ROUND_HALF_UP, overflow=SATURATE)
        thresholds = node.params.get("threshold")
        if thresholds is None or not thresholds.is_quantized():
            t, m = sign_params(node, width)
            return node.with_params(threshold=Tensor.from_numpy(t).quantized(tspec),
                                    mode=Tensor.from_numpy(m))
        if thresholds.spec != tspec:
            raise ValueError(f"layer {node.name!r}: thresholds are quantized on "
                             f"{thresholds.spec}, but the incoming grid is {tspec}")
    return node


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
    """
    d = np.where(modes == MODE_LE, thresholds - x, x - thresholds)
    out = np.where(d >= half, 1.0, np.where(d <= -half, -1.0, 0.0))
    return np.where(modes == MODE_CONST_PLUS, 1.0, np.where(modes == MODE_CONST_MINUS, -1.0, out))


def run_inference(graph: ModelGraph, input_tensor: Tensor = None, tap_all: bool = False):
    """Execute the graph bit-accurately; returns (output, taps).

    The input is one row of the input width, or a ``(B, width)`` block of
    rows that runs as one batch; the output and every tap keep its leading
    shape, and row b of each equals a single-row call on row b, bit for bit.
    A real input is quantized onto the input layer's result spec, and the
    first layer is planned on the input's spec. Each call plans the graph
    once. Taps collect every layer output in chain order when requested.
    Compressed dense layers run as dense ones (COO order is dense order).
    """
    walked = walk(graph)
    head = walked[0][0]
    x = head.params.get("value", input_tensor)
    if x is None:
        raise ValueError("graph input is not constant and no input tensor was provided")
    if not x.is_quantized():
        x = x.quantized(head.precision.result)
    if len(x.shape) > 1 and x.shape != (x.shape[0], graph.input_width):
        x = Tensor((x.size,), x.array, x.spec)  # one row of any shape
    return _run(_plan(walked, x.spec), x, tap_all)
