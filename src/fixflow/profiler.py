"""Numerical profiling of model parameters and precision-coverage checks.

One record per parameter tensor: absolute-value quartiles under linear
interpolation between closest ranks, boxplot whiskers at 1.5 IQR clamped
to the data extremes, zero fraction, and the signed extremes needed to
decide whether the assigned fixed-point type covers the tensor. Kind 0
is weight-like (dense weight, batch-norm gain), kind 1 is bias-like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .fixed_point import SATURATE, quantize
from .model_ir import ModelGraph

KIND_WEIGHT = 0
KIND_BIAS = 1

_PROFILED_PARAMS = {
    "weight": KIND_WEIGHT,
    "gamma": KIND_WEIGHT,
    "scale": KIND_WEIGHT,
    "bias": KIND_BIAS,
    "beta": KIND_BIAS,
    "shift": KIND_BIAS,
}


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks on pre-sorted data."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of empty data")
    rank = q * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    t = rank - lo
    return float(sorted_values[lo] * (1.0 - t) + sorted_values[hi] * t)


@dataclass(frozen=True)
class TensorProfile:
    layer: str
    param: str
    kind: int  # 0 weight-like, 1 bias-like
    count: int
    zero_fraction: float
    min_abs_nonzero: float  # None when every entry is zero
    max_abs: float
    q25: float
    q50: float
    q75: float
    whisker_low: float
    whisker_high: float
    value_min: float
    value_max: float

    def to_doc(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class ProfileReport:
    rows: tuple

    def to_doc(self) -> dict:
        return {"rows": [r.to_doc() for r in self.rows], "notes": []}

    @classmethod
    def from_doc(cls, doc) -> "ProfileReport":
        return cls(tuple(TensorProfile(**row) for row in doc["rows"]))

    def row(self, layer: str, param: str) -> TensorProfile:
        for r in self.rows:
            if r.layer == layer and r.param == param:
                return r
        raise KeyError((layer, param))


def _profile_tensor(layer: str, param: str, kind: int, tensor) -> TensorProfile:
    flat = tensor.to_numpy().reshape(-1)
    magnitudes = np.sort(np.abs(flat))
    smallest, largest = magnitudes[0].item(), magnitudes[-1].item()
    zeros = flat.size - int(np.count_nonzero(flat))  # the nonzero magnitudes follow them
    q25 = percentile(magnitudes, 0.25)
    q50 = percentile(magnitudes, 0.50)
    q75 = percentile(magnitudes, 0.75)
    iqr = q75 - q25
    return TensorProfile(
        layer=layer,
        param=param,
        kind=kind,
        count=flat.size,
        zero_fraction=zeros / flat.size,
        min_abs_nonzero=magnitudes[zeros].item() if zeros < flat.size else None,
        max_abs=largest,
        q25=q25,
        q50=q50,
        q75=q75,
        whisker_low=max(smallest, q25 - 1.5 * iqr),
        whisker_high=min(largest, q75 + 1.5 * iqr),
        # The first extreme in index order, as builtin min/max pick between -0.0 and 0.0.
        value_min=flat[np.argmax(flat == flat.min())].item(),
        value_max=flat[np.argmax(flat == flat.max())].item(),
    )


def profile_weights(graph: ModelGraph) -> ProfileReport:
    """Exact statistics over every parameter tensor; never mutates the model."""
    rows = []
    for node in graph.nodes:
        for param, kind in _PROFILED_PARAMS.items():
            if param in node.params:  # a Tensor is never empty
                rows.append(_profile_tensor(node.name, param, kind, node.params[param]))
    return ProfileReport(tuple(rows))


@dataclass(frozen=True)
class CoverageEntry:
    layer: str
    param: str
    level: str  # "warning" (range overflow) or "info" (small weights truncate)
    covered: bool
    margin_bits: int
    message: str


def spec_covers(value: float, spec) -> bool:
    """True when saturating quantization stays within one grid unit."""
    q = quantize(value, replace(spec, overflow=SATURATE))
    return abs(q.to_fraction() - Fraction(value)) <= spec.resolution


def margin_bits(max_abs: float, spec) -> int:
    """Spare integer-bit headroom; negative means the range overflows."""
    if max_abs == 0.0:
        return spec.width_bits
    return math.floor(math.log2(float(spec.max_value) / max_abs))


def check_coverage(report: ProfileReport, graph: ModelGraph):
    """Coverage warnings for every profiled tensor against its precision slot.

    A warning means the extreme values cannot be represented (saturating
    them moves the value by more than one grid unit); an info entry means
    the smallest nonzero magnitudes fall below the grid resolution and
    will truncate away.
    """
    entries = []
    for row in report.rows:
        node = graph.node(row.layer)
        spec = node.precision.weight if row.kind == KIND_WEIGHT else node.precision.bias
        covered = spec_covers(row.value_min, spec) and spec_covers(row.value_max, spec)
        margin = margin_bits(row.max_abs, spec)
        if not covered:
            entries.append(CoverageEntry(
                row.layer, row.param, "warning", False, margin,
                f"max |value| {row.max_abs:g} exceeds {spec} range (headroom {margin} bits)",
            ))
        elif row.min_abs_nonzero is not None and Fraction(row.min_abs_nonzero) < spec.resolution:
            entries.append(CoverageEntry(
                row.layer, row.param, "info", True, margin,
                f"smallest nonzero |value| {row.min_abs_nonzero:g} is below the "
                f"{spec} resolution and truncates to zero",
            ))
    return entries
