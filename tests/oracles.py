"""Independent reference implementations used to cross-check the package.

Everything here works on exact rationals (fractions.Fraction) and plain
formulas, deliberately avoiding the package's integer shift/mask paths,
so a bug in one side cannot hide in the other.
"""

import math
from fractions import Fraction

from fixflow.fixed_point import ROUND_HALF_UP, SATURATE


def oracle_quantize_raw(value: Fraction, spec) -> int:
    """Rounding then overflow, straight from the documented definitions."""
    scaled = value * Fraction(2) ** spec.fraction_bits
    if spec.rounding == ROUND_HALF_UP:
        raw = math.floor(scaled + Fraction(1, 2))
    else:
        raw = math.floor(scaled)
    if spec.overflow == SATURATE:
        return min(max(raw, spec.min_raw), spec.max_raw)
    span = 1 << spec.width_bits
    raw %= span
    if spec.signed and raw > spec.max_raw:
        raw -= span
    return raw


def oracle_value(raw: int, spec) -> Fraction:
    return Fraction(raw) * Fraction(2) ** (-spec.fraction_bits)


def oracle_dense_mv_raws(weights, bias, x, precision):
    """Raw outputs of the dense kernel under the documented cast points.

    weights: FixedPointValue tensor (m x n); bias, x: value sequences.
    Accumulation: bias cast into the accumulator spec, exact products cast
    into the accumulator spec and added in ascending input order with the
    accumulator's overflow applied per add, one final cast to the result.
    """
    acc_spec = precision.accumulator
    res_spec = precision.result
    m, n = weights.shape
    out = []
    for i in range(m):
        acc = oracle_value(oracle_quantize_raw(bias.data[i].to_fraction(), acc_spec), acc_spec)
        for j in range(n):
            w = weights.data[i * n + j]
            product = w.to_fraction() * x[j].to_fraction()
            p = oracle_value(oracle_quantize_raw(product, acc_spec), acc_spec)
            acc = oracle_value(oracle_quantize_raw(acc + p, acc_spec), acc_spec)
        out.append(oracle_quantize_raw(acc, res_spec))
    return out


def oracle_relu_raws(x, res_spec):
    """Raws of max(0, x) cast onto the result spec, for x a FixedPointValue sequence."""
    return [oracle_quantize_raw(max(Fraction(0), v.to_fraction()), res_spec) for v in x]


def oracle_sign_raws(x, thresholds, modes, ternary, res_spec):
    """Raws of binary or ternary tanh from the documented comparison.

    With d = x - t, or t - x under mode 1, both exact: +1 when d >= half,
    -1 when d <= -half, else 0, where half is 0.5 on the thresholds' grid for
    ternary and 0 for binary (ties map to +1). Modes 2 and 3 give constant
    +1 and -1. Each level is cast onto the result spec.
    """
    out = []
    for v, t, mode in zip(x, thresholds, modes):
        half = Fraction(0)
        if ternary:
            half = oracle_value(oracle_quantize_raw(Fraction(1, 2), t.spec), t.spec)
        d = v.to_fraction() - t.to_fraction()
        d = -d if mode == 1 else d
        level = 1 if d >= half else (-1 if d <= -half else 0)
        level = {2: 1, 3: -1}.get(mode, level)
        out.append(oracle_quantize_raw(Fraction(level), res_spec))
    return out


def oracle_auc_trapezoid(scores, positives) -> float:
    """Area under the ROC curve by explicit threshold sweep + trapezoids."""
    pairs = sorted(zip(scores, positives), key=lambda t: -t[0])
    p = sum(1 for _, y in pairs if y)
    q = len(pairs) - p
    tps, fps = [0], [0]
    tp = fp = 0
    i = 0
    while i < len(pairs):
        j = i
        while j + 1 < len(pairs) and pairs[j + 1][0] == pairs[i][0]:
            j += 1
        for k in range(i, j + 1):
            if pairs[k][1]:
                tp += 1
            else:
                fp += 1
        tps.append(tp)
        fps.append(fp)
        i = j + 1
    area = 0.0
    for k in range(1, len(tps)):
        area += (fps[k] - fps[k - 1]) * (tps[k] + tps[k - 1]) / 2.0
    return area / (p * q)


def oracle_bops(n, m, b_w, b_a, f_p) -> float:
    return m * n * ((1 - f_p) * b_a * b_w + b_a + b_w + math.log2(n))


def oracle_percentile(values, q) -> float:
    data = sorted(values)
    rank = q * (len(data) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return data[lo]
    return data[lo] + (rank - lo) * (data[hi] - data[lo])
