"""Static cost model: DSP tiling, reuse-factor timing, LUT heuristic, BOPs.

The DSP tiling model reproduces the two known hard-block data points
(one 25x18 multiply per block, two blocks for 25x19) and degrades
plausibly in between; it is a model, not vendor truth. Multiplies whose
operands both fit in ``LUT_THRESHOLD`` bits map to LUTs instead and
cost no DSPs.

Timing follows the reuse-factor contract: a dense layer with reuse
factor R has initiation interval R, latency R plus the accumulation-tree
depth plus a pipeline constant, layers run sequentially, and total
latency adds one interconnect cycle per layer boundary. The constants
below are declared, not fitted, and excluded from any calibration claim.
The LUT estimate is an explicitly uncalibrated heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import materialize_quantized
from .model_ir import ModelGraph, walk
from .pruning import compute_bops

DSP_PORT_WIDE = 25
DSP_PORT_NARROW = 18
LUT_THRESHOLD = 9
PIPELINE_CONSTANT = 3
INTERCONNECT_CYCLES = 1
LUT_PER_MULT_BIT = 0.5
LUT_PER_ACCUM_BIT = 4.0
CLOCK_MHZ = 200.0


def dsp_per_multiply(b1: int, b2: int) -> int:
    """DSP blocks for one b1 x b2 multiply; 0 when it maps to LUTs."""
    if b1 < 1 or b2 < 1:
        raise ValueError("bit widths must be >= 1")
    if max(b1, b2) <= LUT_THRESHOLD:
        return 0
    straight = math.ceil(b1 / DSP_PORT_WIDE) * math.ceil(b2 / DSP_PORT_NARROW)
    swapped = math.ceil(b1 / DSP_PORT_NARROW) * math.ceil(b2 / DSP_PORT_WIDE)
    return min(straight, swapped)


@dataclass(frozen=True)
class LayerResource:
    layer: str
    n_mult: int
    multipliers: int
    dsp: int
    lut: int  # heuristic, uncalibrated
    bops: float


@dataclass(frozen=True)
class LayerTiming:
    layer: str
    ii_cycles: int
    latency_cycles: int


@dataclass(frozen=True)
class ResourceEstimate:
    per_layer: tuple
    dsp_total: int
    lut_estimate: int  # heuristic, uncalibrated
    bops_total: float


@dataclass(frozen=True)
class TimingEstimate:
    per_layer: tuple
    total_latency_cycles: int
    model_ii_cycles: int
    clock_mhz: float

    @property
    def throughput_inferences_per_second(self) -> float:
        if self.model_ii_cycles == 0:
            return 0.0
        return self.clock_mhz * 1e6 / self.model_ii_cycles


def cycles_to_seconds(cycles: int, clock_mhz: float) -> float:
    return cycles / (clock_mhz * 1e6)


def quantized_zero_fraction(node) -> float:
    """Fraction of weights that are zero on the layer's weight grid.

    Multiplications by zero weights are skipped in the generated kernels,
    so they allocate no hardware. The node's weights must be quantized.
    """
    weight = node.param("weight")
    return (weight.size - np.count_nonzero(weight.array)) / weight.size


def _multiplier_cost(node, multipliers: int, b_a: int, accumulators: int):
    """(DSP, LUT) of the layer's weight-width x b_a multipliers and its accumulators."""
    b_w = node.precision.weight.width_bits
    per_mult = dsp_per_multiply(b_w, b_a)
    lut_mults = multipliers if per_mult == 0 else 0
    lut = round(LUT_PER_MULT_BIT * lut_mults * b_w * b_a
                + LUT_PER_ACCUM_BIT * accumulators * node.precision.accumulator.width_bits)
    return multipliers * per_mult, lut


def estimate_layer(node, f_p: float, activation_bits: int):
    """(resource row, timing row) for one dense layer at pruned fraction f_p
    whose inputs are ``activation_bits`` wide."""
    if node.kind != "dense":
        raise ValueError(f"estimate_layer expects a dense layer, got {node.kind!r}")
    if node.reuse_factor < 1:
        raise ValueError("reuse factor must be >= 1")
    m, n = node.param("weight").shape
    n_mult = int(round((1.0 - f_p) * n * m))
    r = node.reuse_factor
    multipliers = math.ceil(n_mult / r)
    resource = LayerResource(node.name, n_mult, multipliers,
                             *_multiplier_cost(node, multipliers, activation_bits, m),
                             compute_bops(n, m, node.precision.weight.width_bits, activation_bits, f_p))
    latency = r + math.ceil(math.log2(n)) if n > 1 else r
    timing = LayerTiming(node.name, r, latency + PIPELINE_CONSTANT)
    return resource, timing


def estimate_model(graph: ModelGraph, *, clock_mhz: float = CLOCK_MHZ, assume_dense: bool = False):
    """Roll up per-layer estimates over the chain.

    Dense pruned fractions come from the zero count of the quantized
    weights; ``assume_dense`` forces f_p = 0 everywhere (architecture studies).
    Batch norm scales count as one multiply per channel at reuse 1;
    activations cost one cycle; softmax and the input node are excluded
    from estimation. Real-valued weights are quantized first; an already
    quantized graph is used as it is. The clock must be above 0 and its
    rate in Hz finite.
    """
    if not (clock_mhz > 0 and math.isfinite(clock_mhz * 1e6)):
        raise ValueError(f"clock (--clock-mhz) is {clock_mhz!r} MHz, it must be above 0 and its rate in Hz finite")
    if not assume_dense:
        graph = materialize_quantized(graph)
    resources, timings = [], []
    for node, in_spec, _, width in walk(graph):
        if node.kind in ("input", "softmax"):
            continue  # softmax is host-side
        activation_bits = in_spec.width_bits
        if node.kind == "dense":
            f_p = 0.0 if assume_dense else quantized_zero_fraction(node)
            res, tim = estimate_layer(node, f_p, activation_bits)
            resources.append(res)
            timings.append(tim)
        elif node.kind == "batch_norm":
            dsp, lut = _multiplier_cost(node, width, activation_bits, width)
            resources.append(LayerResource(node.name, width, width, dsp, lut, 0.0))
            timings.append(LayerTiming(node.name, 1, 1 + PIPELINE_CONSTANT))
        else:  # relu, binary_tanh, ternary_tanh
            timings.append(LayerTiming(node.name, 1, 1))

    total_latency = sum(t.latency_cycles for t in timings)
    if timings:
        total_latency += INTERCONNECT_CYCLES * (len(timings) - 1)
    resource = ResourceEstimate(
        per_layer=tuple(resources),
        dsp_total=sum(r.dsp for r in resources),
        lut_estimate=sum(r.lut for r in resources),
        bops_total=sum(r.bops for r in resources),
    )
    timing = TimingEstimate(
        per_layer=tuple(timings),
        total_latency_cycles=total_latency,
        model_ii_cycles=max((t.ii_cycles for t in timings), default=0),
        clock_mhz=clock_mhz,
    )
    return resource, timing


def reuse_sweep(graph: ModelGraph, reuse_factors, clock_mhz: float = CLOCK_MHZ,
                assume_dense: bool = False):
    """Estimate the model at each reuse factor applied to every dense layer.

    Returns rows of (R, model II, total latency, DSP total, total
    multiplications, throughput): the data behind a reuse-scan plot.
    """
    rows = []
    for r in reuse_factors:
        nodes = [
            replace(n, reuse_factor=r) if n.kind == "dense" else n
            for n in graph.nodes
        ]
        res, tim = estimate_model(graph.replace_nodes(nodes), clock_mhz=clock_mhz,
                                  assume_dense=assume_dense)
        rows.append({
            "reuse_factor": r,
            "model_ii_cycles": tim.model_ii_cycles,
            "total_latency_cycles": tim.total_latency_cycles,
            "dsp_total": res.dsp_total,
            "n_mult_total": sum(row.n_mult for row in res.per_layer),
            "throughput_hz": tim.throughput_inferences_per_second,
        })
    return rows
