import json
import random
from dataclasses import replace

import numpy as np
import pytest

from fixflow import profiler
from fixflow.fixed_point import FixedPointSpec, SATURATE, quantize
from fixflow.model_ir import LayerNode, ModelGraph, PrecisionSet, Tensor
from fixflow.profiler import (
    CoverageEntry,
    ProfileReport,
    check_coverage,
    margin_bits,
    percentile,
    profile_weights,
)

from oracles import oracle_percentile


def model_with_weights(weights, bias, precision="fixed<16,6>"):
    w = np.asarray(weights, dtype=np.float64)
    nodes = [
        LayerNode("input", "input"),
        LayerNode("d", "dense", {
            "weight": Tensor.from_numpy(w),
            "bias": Tensor.from_numpy(np.asarray(bias, dtype=np.float64)),
        }, precision=PrecisionSet.uniform(precision)),
    ]
    return ModelGraph.chain(nodes, (w.shape[1],))


class TestPercentile:
    def test_spec_example(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0.50) == 2.5
        assert percentile(data, 0.25) == 1.75
        assert percentile(data, 0.75) == 3.25

    def test_matches_numpy_linear(self):
        rng = random.Random(3)
        for _ in range(100):
            data = sorted(rng.uniform(-5, 5) for _ in range(rng.randint(1, 40)))
            q = rng.random()
            assert percentile(data, q) == pytest.approx(
                float(np.percentile(data, q * 100, method="linear")), abs=1e-12)
            assert percentile(data, q) == pytest.approx(oracle_percentile(data, q), abs=1e-12)


class TestProfileWeights:
    def test_constant_tensor(self):
        g = model_with_weights([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])
        report = profile_weights(g)
        row = report.row("d", "weight")
        assert (row.q25, row.q50, row.q75) == (0.5, 0.5, 0.5)
        assert row.max_abs == 0.5
        assert row.whisker_low == 0.5 and row.whisker_high == 0.5

    def test_quartiles_of_1234(self):
        g = model_with_weights([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
        row = profile_weights(g).row("d", "weight")
        assert (row.q25, row.q50, row.q75) == (1.75, 2.5, 3.25)

    def test_all_zero_tensor(self):
        g = model_with_weights([[0.0, 0.0]], [0.0])
        row = profile_weights(g).row("d", "weight")
        assert row.zero_fraction == 1.0
        assert row.min_abs_nonzero is None

    def test_kinds(self):
        g = model_with_weights([[1.0, 2.0]], [3.0])
        report = profile_weights(g)
        assert report.row("d", "weight").kind == profiler.KIND_WEIGHT
        assert report.row("d", "bias").kind == profiler.KIND_BIAS

    def test_does_not_mutate_model(self):
        g = model_with_weights([[1.0, -2.0]], [0.5])
        before = g.node("d").param("weight").data
        profile_weights(g)
        assert g.node("d").param("weight").data == before

    def test_whiskers_clamped_to_extremes(self):
        values = [0.1, 0.2, 0.3, 0.4, 10.0]
        g = model_with_weights([values], [0.0])
        row = profile_weights(g).row("d", "weight")
        iqr = row.q75 - row.q25
        assert row.whisker_high == min(10.0, row.q75 + 1.5 * iqr)
        assert row.whisker_low == 0.1

    def test_ordering_invariant(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        g = model_with_weights(rng.normal(0, 2, (6, 5)), rng.normal(0, 1, 6))
        for row in profile_weights(g).rows:
            assert row.min_abs_nonzero <= row.q25 <= row.q50 <= row.q75 <= row.max_abs
            assert 0.0 <= row.zero_fraction <= 1.0

    @pytest.mark.parametrize("weights, bias, want_weight, want_bias", [
        # (value_min, value_max, min_abs_nonzero, zero_fraction, max_abs) as reprs:
        # the first of equal signed zeros wins, as builtin min and max keep it.
        ([[-0.0, 0.0], [0.25, -0.0]], [-0.0, 0.0], ("-0.0", "0.25", "0.25", 0.75, "0.25"),
         ("-0.0", "-0.0", "None", 1.0, "0.0")),
        ([[0.0, -0.0, -0.5, 0.0]], [0.0], ("-0.5", "0.0", "0.5", 0.75, "0.5"),
         ("0.0", "0.0", "None", 1.0, "0.0")),
        ([[-0.0, 0.0, -0.5, 0.0]], [1e-300], ("-0.5", "-0.0", "0.5", 0.75, "0.5"),
         ("1e-300", "1e-300", "1e-300", 0.0, "1e-300")),
    ])
    def test_signed_zeros(self, weights, bias, want_weight, want_bias):
        report = profile_weights(model_with_weights(weights, bias))
        for param, want in (("weight", want_weight), ("bias", want_bias)):
            row = report.row("d", param)
            got = (repr(row.value_min), repr(row.value_max), repr(row.min_abs_nonzero),
                   row.zero_fraction, repr(row.max_abs))
            assert got == want, param
            assert all(type(v) is float for v in (row.value_min, row.value_max, row.q50))

    @pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_signed_zeros_in_long_tensors(self, zeros, sign):
        # Long enough for numpy's vectorized min and max; the zeros come
        # first, so they are the extreme on one side, and more of both
        # signs are spread through the rest.
        rng = np.random.Generator(np.random.Philox(key=12))
        rest = sign * rng.uniform(0.0, 3.0, 1200)
        rest[rng.integers(0, rest.size, 40)] = 0.0
        rest[rng.integers(0, rest.size, 40)] = -0.0
        weights = np.concatenate([zeros, rest]).reshape(1, -1)
        row = profile_weights(model_with_weights(weights, [0.0])).row("d", "weight")
        values = weights.reshape(-1).tolist()
        assert (repr(row.value_min), repr(row.value_max)) == (repr(min(values)), repr(max(values)))
        assert repr(row.value_min if sign > 0 else row.value_max) == repr(zeros[0])
        assert type(row.value_min) is float and type(row.value_max) is float

    def test_serialization_round_trip(self):
        g = model_with_weights([[1.0, -2.0], [0.0, 4.0]], [0.5, -0.25])
        report = profile_weights(g)
        doc = json.loads(json.dumps(report.to_doc()))
        back = ProfileReport.from_doc(doc)
        assert back == report


class TestCheckCoverage:
    def test_in_range_no_warning(self):
        g = model_with_weights([[31.9, 0.5]], [0.0], precision="fixed<16,6>")
        entries = check_coverage(profile_weights(g), g)
        assert not any(e.level == "warning" for e in entries)

    def test_overflow_warns(self):
        g = model_with_weights([[64.0, 0.5]], [0.0], precision="fixed<16,6>")
        entries = check_coverage(profile_weights(g), g)
        warnings = [e for e in entries if e.level == "warning"]
        assert len(warnings) == 1
        assert warnings[0].layer == "d" and warnings[0].param == "weight"
        assert warnings[0].margin_bits < 0

    def test_exactly_representable_no_entries(self):
        g = model_with_weights([[0.5, 0.25]], [1.0], precision="fixed<16,6>")
        assert check_coverage(profile_weights(g), g) == []

    def test_small_weights_get_info(self):
        g = model_with_weights([[0.5, 1e-5]], [0.0], precision="fixed<16,6>")
        entries = check_coverage(profile_weights(g), g)
        infos = [e for e in entries if e.level == "info"]
        assert len(infos) == 1 and infos[0].covered

    def test_warning_consistent_with_saturating_quantize(self):
        rng = random.Random(9)
        for _ in range(200):
            width = rng.randint(4, 24)
            integer = rng.randint(0, width)
            spec_text = f"fixed<{width},{integer}>"
            value = rng.uniform(-4, 4) * 2.0 ** rng.randint(-4, 8)
            g = model_with_weights([[value, 0.25]], [0.0], precision=spec_text)
            entries = check_coverage(profile_weights(g), g)
            warned = any(e.level == "warning" and e.param == "weight" for e in entries)
            spec = g.node("d").precision.weight
            sat = replace(spec, overflow=SATURATE)
            from fractions import Fraction
            err = abs(quantize(value, sat).to_fraction() - Fraction(value))
            assert warned == (err > spec.resolution), (value, spec_text)

    def test_margin_bits(self):
        spec = FixedPointSpec(16, 6)
        assert margin_bits(1.0, spec) == 4
        assert margin_bits(64.0, spec) < 0
