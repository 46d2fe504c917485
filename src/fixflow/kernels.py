"""Bit-accurate execution of compiled networks.

The cast-point convention is frozen so that emitted source, the emulator,
and the test oracles all agree:

* each weight/input product is exact (no rounding), then cast once into
  the accumulator spec;
* the accumulator starts at the bias cast into the accumulator spec and
  adds casted products in ascending input-index order, applying the
  accumulator spec's overflow handling at every add;
* one final cast into the result spec.

``_mac`` is the one statement of this convention: ``dense_mv`` and batch
norm (a diagonal dense layer) call it, and ``sparse_mv_coo`` runs
``dense_mv`` on the decompressed matrix. Within a row, the
ascending packed index (``out * n_in + in``) is the ascending input
index of the dense order, so dense and sparse results are bit-identical.
Softmax is evaluated in real arithmetic at the output only.

``_mac`` forms the products of all rows for a block of input columns at
a time. A wrapping accumulator is computed as one wrap of the exact sum of
the bias and the rounded products: wrapping is reduction mod ``2**W``,
which commutes with addition, so this equals wrapping every product and
every add. A saturating accumulator still clamps every product and every
add, in ascending input index, once per add whatever the number of rows,
unless the bounds of the cast bias and products prove that no clamp can
fire: then it is the exact sum too.

The emulator runs a whole block of rows per call. Its state between
layers, and every tap, is a quantized ``Tensor`` of shape ``(B, width)``
(or ``(width,)`` for a single row): the raws of one layer output on that
layer's result spec. Each layer computes on its ``[B, width]`` block as
int64 when the bounds of every value it forms (products, shifted and
rounded values, sums) fit int64, and otherwise runs the same code on
object arrays of Python ints, so products up to 128 bits and 64-bit
accumulators never wrap outside the spec's own overflow rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fixed_point import (
    ROUND_HALF_UP,
    SATURATE,
    FixedPointSpec,
    apply_overflow_array,
    cast_raw_array,
    int_dtype,
    quantize,
    shift_round,
)
from .model_ir import (MODE_CONST_MINUS, MODE_CONST_PLUS, MODE_LE, LayerNode, ModelGraph,
                       PrecisionSet, Tensor, walk)


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


# Elements of one [columns, B, m] block of products in ``_mac``: it bounds
# the temporaries to at most this or one [B, m] accumulator, so a long block
# of rows through a wide layer adds no memory. At 64 KB of int64 a block
# stays below glibc's default mmap threshold (128 KB), above which every
# temporary is mapped and faulted in afresh: 2**15 ran saturating layers of
# 100 and 1000 rows up to 1.6x slower.
_BLOCK_ELEMENTS = 1 << 13


def _extent(raws) -> tuple:
    return int(raws.min()), int(raws.max())


def _cast_bounds(lo: int, hi: int, fraction_bits: int, spec: FixedPointSpec) -> tuple:
    """Bounds of the values ``cast_raw_array`` forms from raws in [lo, hi]."""
    shift = spec.fraction_bits - fraction_bits
    formed = (lo << shift, hi << shift) if shift >= 0 else (lo, hi + (1 << (-shift - 1)))
    return (*formed, 1 << abs(shift), spec.min_raw, spec.max_raw)


def _mac(bias, bias_frac: int, weights, x, prod_frac: int, precision: PrecisionSet):
    """Result raws [B, m] under the frozen convention.

    From bias raws [m], weight raws [m, n] and input raws [B, n]: the
    accumulator starts at the cast bias; for j ascending, each exact
    product is cast into the accumulator and added, with overflow after
    the add; one final cast into the result spec.

    The exact products of every row with the k nonzero-weight columns are
    shift-rounded into the accumulator a block of columns at a time. A
    wrapping accumulator takes one wrap of the exact sum, which equals
    wrapping each product and every add (mod 2**W); so does a saturating
    one whose worst-case sums stay in range. Any other saturating one
    clamps the products, then every add.
    """
    acc_spec, res_spec = precision.accumulator, precision.result
    (wlo, whi), (xlo, xhi), (blo, bhi) = _extent(weights), _extent(x), _extent(bias)
    # Zero-weight columns add exact zeros to an in-range accumulator, which
    # leaves it unchanged. A zero weight inside a kept column does the same.
    cols = np.flatnonzero((weights != 0).any(axis=0))
    b, m, k = len(x), len(weights), len(cols)
    products = (wlo * xlo, wlo * xhi, whi * xlo, whi * xhi)
    terms = _cast_bounds(min(products), max(products), prod_frac, acc_spec)
    bias_terms = _cast_bounds(blo, bhi, bias_frac, acc_spec)
    acc_range = (acc_spec.min_raw, acc_spec.max_raw)
    # A right shift moves a value towards 0 and at most to 0, so the formed
    # bounds widened to take in 0 bound every cast value. Every partial sum
    # of the cast bias and up to k products then lies in [lowest, highest];
    # when that is in range no clamp fires and the exact sum is the result.
    lowest = min(bias_terms[0], 0) + k * min(terms[0], 0)
    highest = max(bias_terms[1], 0) + k * max(terms[1], 0)
    saturate = (acc_spec.overflow == SATURATE
                and not acc_range[0] <= lowest <= highest <= acc_range[1])
    # A clamped sum adds one term to an in-range accumulator; an exact one
    # adds up to k terms to the cast bias.
    span = max(map(abs, acc_range))
    reach = 2 * span if saturate else span + k * max(map(abs, terms[:2]))
    dtype = int_dtype(wlo, whi, xlo, xhi, *products, *terms, -reach, reach,
                      *bias_terms,
                      *_cast_bounds(*acc_range, acc_spec.fraction_bits, res_spec))
    # Column-major copies, so each [columns, B, m] block and its [B, m]
    # slices are contiguous.
    weights = np.ascontiguousarray(weights[:, cols].T, dtype=dtype)[:, None, :]
    x = np.ascontiguousarray(x[:, cols].T, dtype=dtype)[:, :, None]
    acc = np.repeat(cast_raw_array(bias.astype(dtype), bias_frac, acc_spec)[None, :], b, axis=0)
    shift = acc_spec.fraction_bits - prod_frac
    step = max(1, _BLOCK_ELEMENTS // max(1, b * m))
    for c in range(0, k, step):
        formed = shift_round(x[c:c + step] * weights[c:c + step], shift, acc_spec.rounding)
        if saturate:
            formed = apply_overflow_array(formed, acc_spec)
            for term in formed:
                acc = apply_overflow_array(acc + term, acc_spec)
        else:
            acc = acc + formed.sum(axis=0)
    if not saturate:
        acc = apply_overflow_array(acc, acc_spec)
    return cast_raw_array(acc, acc_spec.fraction_bits, res_spec)


def _rows(x: Tensor):
    """The raws of a ``(n,)`` or ``(B, n)`` tensor as a [B, n] block."""
    if len(x.shape) > 2:
        raise ValueError(f"input must be one row or a block of rows, got shape {x.shape}")
    return x.array.reshape(-1, x.shape[-1])


def dense_mv(weights: Tensor, bias: Tensor, x, precision: PrecisionSet) -> Tensor:
    """Matrix-vector kernel under the frozen cast-point convention.

    ``x`` is one row ``(n,)`` or a block ``(B, n)``; the result has the
    same leading shape.
    """
    if len(weights.shape) != 2:
        raise ValueError(f"weight tensor must be 2-D, got shape {weights.shape}")
    m, n = weights.shape
    x = x if isinstance(x, Tensor) else Tensor((len(x),), x)
    if bias.size != m or x.shape[-1] != n:
        raise ValueError(f"shape mismatch: weight {m}x{n}, bias {bias.size}, input {x.shape}")
    out = _mac(bias.array, bias.spec.fraction_bits, weights.array.reshape(m, n), _rows(x),
               weights.spec.fraction_bits + x.spec.fraction_bits, precision)
    return Tensor(x.shape[:-1] + (m,), out, precision.result)


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
    """COO kernel: ``dense_mv`` on the decompressed matrix.

    The dense order visits a row's entries in ascending input index, which
    is their packed order, and the zeros COO leaves out add nothing, so
    this is what the emitted COO kernel computes.
    """
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
    Raws come as int64 only when every x - t fits int64, and otherwise as
    object arrays of Python ints, so that x - t is exact.
    """
    d = np.where(modes == MODE_LE, thresholds - x, x - thresholds)
    out = np.where(d >= half, 1.0, np.where(d <= -half, -1.0, 0.0))
    return np.where(modes == MODE_CONST_PLUS, 1.0, np.where(modes == MODE_CONST_MINUS, -1.0, out))


def _sign_block(node: LayerNode, x: Tensor) -> np.ndarray:
    """Raws of a materialized sign activation on a block of rows."""
    half, *levels = sign_levels(node)
    thresholds, modes = node.param("threshold").array, node.param("mode").array
    (xlo, xhi), (tlo, thi) = _extent(x.array), _extent(thresholds)
    dtype = int_dtype(xlo, xhi, tlo, thi, xlo - thi, xhi - tlo, tlo - xhi, thi - xlo, half)
    codes = sign_activation(_rows(x).astype(dtype), thresholds.astype(dtype), modes, half)
    return np.array(levels, dtype=object)[(1.0 - codes).astype(int)]  # +1, 0, -1


def _softmax_real(x: Tensor) -> Tensor:
    out = []
    for reals in x.to_numpy().reshape(-1, x.shape[-1]).tolist():
        peak = max(reals)
        exps = [math.exp(r - peak) for r in reals]
        total = sum(exps)
        out.extend(e / total for e in exps)
    return Tensor(x.shape, out)


def run_inference(graph: ModelGraph, input_tensor: Tensor = None, tap_all: bool = False):
    """Execute the graph bit-accurately; returns (output, taps).

    The input is one row of the input width, or a ``(B, width)`` block of
    rows that runs as one batch; the output and every tap keep its leading
    shape, and row b of each equals a single-row call on row b, bit for bit.
    Parameters are materialized once per call when still real-valued. A
    real input is quantized onto the input layer's result spec; a quantized
    one is used as it is. Taps collect every layer output in chain order
    when requested. Compressed dense layers run through ``dense_mv``: COO
    order equals dense order, so the result is the same bit for bit.
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
            if len(current.shape) > 1 and current.shape != (current.shape[0], graph.input_width):
                current = Tensor((current.size,), current.array, current.spec)  # one row of any shape
        elif node.kind == "dense":
            current = dense_mv(node.param("weight"), node.param("bias"), current, node.precision)
        elif node.kind == "batch_norm":
            scale, shift = node.param("scale"), node.param("shift")
            out = _mac(shift.array, shift.spec.fraction_bits, np.diag(scale.array), _rows(current),
                       scale.spec.fraction_bits + current.spec.fraction_bits, node.precision)
            current = Tensor(current.shape, out, res_spec)
        elif node.kind == "relu":
            frac = current.spec.fraction_bits
            dtype = int_dtype(*_cast_bounds(0, max(_extent(current.array)[1], 0), frac, res_spec))
            out = cast_raw_array(np.maximum(current.array.astype(dtype), 0), frac, res_spec)
            current = Tensor(current.shape, out, res_spec)
        elif node.kind in ("binary_tanh", "ternary_tanh"):
            current = Tensor(current.shape, _sign_block(node, current), res_spec)
        else:  # softmax, always the last layer
            current = _softmax_real(current)
        if tap_all:
            taps.append(LayerTap(node.name, current))
    return current, taps
