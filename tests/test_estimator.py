import math
import random
from dataclasses import replace

import numpy as np
import pytest

from fixflow import estimator, passes, pruning, trainer
from fixflow.estimator import (
    cycles_to_seconds,
    dsp_per_multiply,
    estimate_layer,
    estimate_model,
    reuse_sweep,
)
from fixflow.model_ir import LayerNode, ModelGraph, PrecisionSet, Tensor


def mnist_model(reuse=1):
    """784 -> 16 -> 10 with nonzero constant weights (architecture study)."""
    nodes = [LayerNode("input", "input")]
    dims = [(16, 784), (10, 16)]
    for i, (m, n) in enumerate(dims):
        nodes.append(LayerNode(
            f"fc{i}", "dense",
            {"weight": Tensor((m, n), (0.5,) * (m * n)),
             "bias": Tensor((m,), (0.0,) * m)},
            reuse_factor=reuse,
        ))
        if i == 0:
            nodes.append(LayerNode("relu0", "relu"))
    return ModelGraph.chain(nodes, (784,))


class TestDspPerMultiply:
    def test_hard_block_data_points(self):
        assert dsp_per_multiply(25, 18) == 1
        assert dsp_per_multiply(25, 19) == 2
        assert dsp_per_multiply(18, 25) == 1
        assert dsp_per_multiply(19, 25) == 2

    def test_lut_threshold(self):
        assert dsp_per_multiply(6, 6) == 0
        assert dsp_per_multiply(9, 9) == 0
        assert dsp_per_multiply(10, 10) == 1

    def test_monotone_over_grid(self):
        for b1 in range(1, 33):
            for b2 in range(1, 33):
                here = dsp_per_multiply(b1, b2)
                assert dsp_per_multiply(b1 + 1, b2) >= here
                assert dsp_per_multiply(b1, b2 + 1) >= here

    def test_domain(self):
        with pytest.raises(ValueError):
            dsp_per_multiply(0, 4)


class TestEstimateLayer:
    def test_mnist_serial_extreme(self):
        model = mnist_model(reuse=12544)
        res, tim = estimate_layer(model.node("fc0"), 0.0, activation_bits=16)
        assert res.n_mult == 12544
        assert res.multipliers == 1
        assert tim.ii_cycles == 12544
        assert cycles_to_seconds(tim.ii_cycles, 100.0) == 0.12544e-3

    def test_mnist_parallel_point(self):
        model = mnist_model(reuse=14)
        res, tim = estimate_layer(model.node("fc0"), 0.0, activation_bits=16)
        assert res.multipliers == 896
        assert tim.ii_cycles == 14
        assert cycles_to_seconds(tim.ii_cycles, 100.0) == 140e-9

    def test_latency_model(self):
        model = mnist_model(reuse=14)
        _, tim = estimate_layer(model.node("fc0"), 0.0, activation_bits=16)
        assert tim.latency_cycles == 14 + math.ceil(math.log2(784)) + 3

    def test_tight_ceiling_property(self):
        rng = random.Random(2)
        for _ in range(300):
            n_mult = rng.randint(1, 20000)
            r = rng.randint(1, 20000)
            multipliers = math.ceil(n_mult / r)
            assert multipliers * r >= n_mult
            assert (multipliers - 1) * r < n_mult

    def test_pruned_fraction_reduces_multiplies(self):
        model = mnist_model(reuse=1)
        res, _ = estimate_layer(model.node("fc0"), 0.75, activation_bits=16)
        assert res.n_mult == round(0.25 * 12544)

    def test_rejects_non_dense(self):
        model = mnist_model()
        with pytest.raises(ValueError):
            estimate_layer(model.node("relu0"), 0.0, activation_bits=16)

    def test_bops_delegates_to_pruning(self):
        model = mnist_model()
        res, _ = estimate_layer(model.node("fc0"), 0.3, activation_bits=16)
        assert res.bops == pruning.compute_bops(784, 16, 16, 16, 0.3)


class TestEstimateModel:
    def test_total_multiplications(self):
        res, _ = estimate_model(mnist_model())
        assert sum(r.n_mult for r in res.per_layer) == 12704

    def test_empty_chain_is_free(self):
        g = ModelGraph.chain([LayerNode("input", "input")], (4,))
        res, tim = estimate_model(g)
        assert res.dsp_total == 0 and res.bops_total == 0
        assert tim.total_latency_cycles == 0 and tim.model_ii_cycles == 0

    def test_ii_equals_reuse_factor(self):
        for r in (14, 28, 98, 784, 12544):
            _, tim = estimate_model(mnist_model(reuse=r))
            dense_rows = [t for t in tim.per_layer if t.layer.startswith("fc")]
            assert all(t.ii_cycles == r for t in dense_rows)
            assert tim.model_ii_cycles == r

    def test_doubling_reuse_halves_throughput(self):
        for r in (1, 2, 7, 50):
            _, tim1 = estimate_model(mnist_model(reuse=r), clock_mhz=200.0)
            _, tim2 = estimate_model(mnist_model(reuse=2 * r), clock_mhz=200.0)
            assert tim2.throughput_inferences_per_second == (
                tim1.throughput_inferences_per_second / 2)

    def test_dsp_monotone_in_reuse(self):
        sweep = reuse_sweep(mnist_model(), [1, 2, 4, 14, 98, 784, 12544])
        dsps = [row["dsp_total"] for row in sweep]
        assert all(a >= b for a, b in zip(dsps, dsps[1:]))

    def test_latency_roll_up(self):
        g = mnist_model(reuse=14)
        _, tim = estimate_model(g)
        per_layer = sum(t.latency_cycles for t in tim.per_layer)
        assert tim.total_latency_cycles == per_layer + 1 * (len(tim.per_layer) - 1)

    def test_options_are_keyword_only(self):
        with pytest.raises(TypeError):
            estimate_model(mnist_model(), 100.0)

    def test_quantized_zero_counting(self):
        # weights below one grid step truncate to zero and free their
        # multipliers (negative tinies floor to -1 raw, so they stay)
        nodes = [
            LayerNode("input", "input"),
            LayerNode("d", "dense", {
                "weight": Tensor((2, 2), (0.5, 1e-6, 2e-6, 0.25)),
                "bias": Tensor((2,), (0.0, 0.0)),
            }),
        ]
        g = ModelGraph.chain(nodes, (2,))
        res, _ = estimate_model(g)
        assert res.per_layer[0].n_mult == 2
        negged = ModelGraph.chain([
            nodes[0],
            nodes[1].with_params(weight=Tensor((2, 2), (0.5, -1e-6, 2e-6, 0.25))),
        ], (2,))
        res, _ = estimate_model(negged)
        assert res.per_layer[0].n_mult == 3

    def test_bops_total_matches_pruning_module(self, jet_float_model):
        res, _ = estimate_model(jet_float_model)
        want = 0.0
        for row in res.per_layer:
            node = jet_float_model.node(row.layer)
            m, n = node.param("weight").shape
            f_p = 1.0 - row.n_mult / (m * n)
            want += pruning.compute_bops(n, m, 16, 16, f_p)
        assert res.bops_total == pytest.approx(want, rel=1e-12)

    def test_batch_norm_row(self):
        """One multiplier and one accumulator per channel at reuse 1, of the
        weight width times the incoming width; folded params estimate alike."""
        c = 3
        bn = LayerNode("bn", "batch_norm", {
            "gamma": Tensor.from_numpy([1.0, -2.0, 0.5]), "beta": Tensor.from_numpy(np.zeros(c)),
            "moving_mean": Tensor.from_numpy(np.zeros(c)), "moving_variance": Tensor.from_numpy(np.ones(c)),
            "epsilon": Tensor.scalar(1e-3)}, precision=PrecisionSet.from_doc({
                "weight": "fixed<20,4>", "bias": "fixed<8,4>", "accumulator": "fixed<24,8>",
                "result": "fixed<8,4>"}, "bn"))
        g = ModelGraph.chain([LayerNode("input", "input", precision=PrecisionSet.uniform("fixed<10,4>")), bn],
                             (c,))
        folded, _ = passes.constant_fold(g)
        assert set(folded.node("bn").params) == {"scale", "shift"}
        for graph in (g, folded):
            res, tim = estimate_model(graph)
            lut = round(estimator.LUT_PER_ACCUM_BIT * c * 24)  # 20x10 bits take DSPs, not LUTs
            assert res.per_layer == (estimator.LayerResource("bn", c, c, c * dsp_per_multiply(20, 10), lut, 0.0),)
            assert tim.per_layer == (estimator.LayerTiming("bn", 1, 1 + estimator.PIPELINE_CONSTANT),)

    def test_throughput_formula(self):
        _, tim = estimate_model(mnist_model(reuse=98), clock_mhz=200.0)
        assert tim.throughput_inferences_per_second == 200e6 / 98


class TestReuseSweep:
    def test_sweep_rows(self):
        rows = reuse_sweep(mnist_model(), [14, 12544], clock_mhz=100.0)
        assert rows[0]["model_ii_cycles"] == 14
        assert rows[1]["model_ii_cycles"] == 12544
        assert all(row["n_mult_total"] == 12704 for row in rows)
