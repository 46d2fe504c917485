import math

import numpy as np
import pytest

from fixflow import passes, trainer
from fixflow.kernels import batch_norm_scale_shift, run_inference
from fixflow.model_ir import (LayerNode, ModelGraph, PrecisionSet, Tensor, parse_model,
                              serialize_model, validate)



def bn_params(gamma, beta, mean, var, eps=0.0):
    width = len(gamma)
    return {
        "gamma": Tensor((width,), tuple(gamma)),
        "beta": Tensor((width,), tuple(beta)),
        "moving_mean": Tensor((width,), tuple(mean)),
        "moving_variance": Tensor((width,), tuple(var)),
        "epsilon": Tensor.scalar(eps),
    }


def dense_node(name, w, b):
    w = np.asarray(w, dtype=np.float64)
    return LayerNode(name, "dense", {
        "weight": Tensor.from_numpy(w),
        "bias": Tensor.from_numpy(np.asarray(b, dtype=np.float64)),
    })


def chain(*nodes, input_width):
    return ModelGraph.chain([LayerNode("input", "input"), *nodes], (input_width,))


# Gains positive, negative, 0.0 and -0.0, each zero gain with a beta >= 0
# and a beta < 0, so the fusion meets every threshold and mode branch.
SIGN_GAMMA = [1.5, -0.75, 0.0, 0.0, -0.0, -0.0, 2.0, -1.25]
SIGN_BETA = [0.25, -0.5, 0.5, -0.25, 0.0, -0.625, -0.125, 0.0]


def bn_sign_model() -> ModelGraph:
    """batch_norm -> binary_tanh -> dense over SIGN_GAMMA's eight channels."""
    rng = np.random.Generator(np.random.Philox(key=88))
    return chain(
        LayerNode("bn", "batch_norm", bn_params(SIGN_GAMMA, SIGN_BETA, rng.normal(0.0, 0.5, 8),
                                                 rng.uniform(0.5, 2.0, 8), eps=1e-3)),
        LayerNode("bt", "binary_tanh"),
        dense_node("d", rng.normal(0.0, 0.5, (3, 8)), rng.normal(0.0, 0.25, 3)),
        input_width=8,
    )


class TestFuseBatchnormIntoDense:
    def test_identity_batchnorm_leaves_weights(self):
        g = chain(
            dense_node("d", [[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5]),
            LayerNode("bn", "batch_norm", bn_params([1, 1], [0, 0], [0, 0], [1, 1])),
            input_width=2,
        )
        fused, report = passes.fuse_batchnorm_into_dense(g)
        assert report.rewrites == ((("bn",), "d"),)
        assert fused.node("d").param("weight").data == (1.0, 2.0, 3.0, 4.0)
        assert fused.node("d").param("bias").data == (0.5, -0.5)
        assert [n.name for n in fused.nodes] == ["input", "d"]

    def test_hand_algebra_example(self):
        g = chain(
            dense_node("d", [[1.0]], [0.0]),
            LayerNode("bn", "batch_norm", bn_params([2.0], [3.0], [0.0], [1.0])),
            input_width=1,
        )
        fused, _ = passes.fuse_batchnorm_into_dense(g)
        assert fused.node("d").param("weight").data == (2.0,)
        assert fused.node("d").param("bias").data == (3.0,)

    def test_random_fusion_preserves_forward(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        w = rng.normal(size=(8, 16))
        b = rng.normal(size=8)
        g = chain(
            dense_node("d", w, b),
            LayerNode("bn", "batch_norm", bn_params(
                rng.normal(size=8), rng.normal(size=8),
                rng.normal(size=8), rng.uniform(0.5, 2.0, 8), eps=1e-3)),
            input_width=16,
        )
        fused, _ = passes.fuse_batchnorm_into_dense(g)
        x = rng.normal(size=(100, 16))
        before = trainer.forward_real(g, x)
        after = trainer.forward_real(fused, x)
        assert np.abs(after - before).max() <= 1e-6 * np.abs(before).max()

    def test_nonpositive_variance_names_channel(self):
        g = chain(
            dense_node("d", [[1.0]], [0.0]),
            LayerNode("bn", "batch_norm", bn_params([1.0], [0.0], [0.0], [-2.0])),
            input_width=1,
        )
        with pytest.raises(ValueError) as err:
            passes.fuse_batchnorm_into_dense(g)
        assert "channel 0" in str(err.value)


class TestFuseBatchnormIntoBinaryTanh:
    def test_identity_batchnorm_gives_zero_thresholds(self):
        g = chain(
            LayerNode("bn", "batch_norm", bn_params([1, 1, 1], [0, 0, 0], [0, 0, 0], [1, 1, 1])),
            LayerNode("bt", "binary_tanh"),
            input_width=3,
        )
        fused, report = passes.fuse_batchnorm_into_binary_tanh(g)
        assert report.rewrites == ((("bn",), "bt"),)
        assert fused.node("bt").param("threshold").data == (0.0, 0.0, 0.0)

    def test_linear_solve_example(self):
        g = chain(
            LayerNode("bn", "batch_norm", bn_params([1.0], [-1.0], [0.0], [1.0])),
            LayerNode("bt", "binary_tanh"),
            input_width=1,
        )
        fused, _ = passes.fuse_batchnorm_into_binary_tanh(g)
        assert fused.node("bt").param("threshold").data == (1.0,)
        assert fused.node("bt").param("mode").data == (float(passes.MODE_GE),)

    def test_negative_gain_flips_direction(self):
        g = chain(
            LayerNode("bn", "batch_norm", bn_params([-2.0], [1.0], [0.5], [1.0])),
            LayerNode("bt", "binary_tanh"),
            input_width=1,
        )
        fused, _ = passes.fuse_batchnorm_into_binary_tanh(g)
        assert fused.node("bt").param("mode").data == (float(passes.MODE_LE),)

    def test_zero_gain_becomes_constant_sign_of_beta(self):
        g = chain(
            LayerNode("bn", "batch_norm", bn_params([0.0, 0.0], [0.5, -0.5], [1, 1], [1, 1])),
            LayerNode("bt", "binary_tanh"),
            input_width=2,
        )
        fused, _ = passes.fuse_batchnorm_into_binary_tanh(g)
        assert fused.node("bt").param("mode").data == (
            float(passes.MODE_CONST_PLUS), float(passes.MODE_CONST_MINUS))

    def test_thresholds_and_modes_match_channel_loop(self):
        model = bn_sign_model()
        fused, report = passes.fuse_batchnorm_into_binary_tanh(model)
        assert report.rewrites == ((("bn",), "bt"),)
        scale, shift = batch_norm_scale_shift(model.node("bn").params)
        # The per-channel statement of the rule, kept as the reference.
        thresholds, modes = [], []
        for s, sh in zip(scale.tolist(), shift.tolist()):
            if s == 0.0:
                thresholds.append(0.0)
                modes.append(passes.MODE_CONST_PLUS if sh >= 0 else passes.MODE_CONST_MINUS)
            else:
                thresholds.append(-sh / s)
                modes.append(passes.MODE_GE if s > 0 else passes.MODE_LE)
        got = fused.node("bt").param("threshold").data
        assert [(t, math.copysign(1.0, t)) for t in got] == [
            (t, math.copysign(1.0, t)) for t in thresholds]
        assert fused.node("bt").param("mode").data == tuple(map(float, modes))
        assert set(modes) == {passes.MODE_GE, passes.MODE_LE,
                              passes.MODE_CONST_PLUS, passes.MODE_CONST_MINUS}

    def test_composition_oracle_on_grid(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        gamma = rng.normal(size=8)
        gamma[3] = 0.0  # exercise the degenerate channel
        params = bn_params(gamma, rng.normal(size=8), rng.normal(size=8),
                           rng.uniform(0.25, 4.0, 8), eps=1e-3)
        g = chain(LayerNode("bn", "batch_norm", params),
                  LayerNode("bt", "binary_tanh"), input_width=8)
        fused, _ = passes.fuse_batchnorm_into_binary_tanh(g)
        xs = np.linspace(-3, 3, 61)
        for x0 in xs:
            x = np.full(8, x0)
            want = trainer.forward_real(g, x)
            got = trainer.forward_real(fused, x)
            assert (want == got).all(), x0


class TestConstantFold:
    def test_no_constants_unchanged(self):
        g = chain(dense_node("d", [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), input_width=2)
        folded, report = passes.constant_fold(g)
        assert report.empty
        assert folded is g

    def test_batch_norm_params_precomputed(self):
        g = chain(
            LayerNode("bn", "batch_norm", bn_params([2.0], [1.0], [0.5], [3.0], eps=1.0)),
            input_width=1,
        )
        folded, report = passes.constant_fold(g)
        assert not report.empty
        assert folded.node("bn").param("scale").data == (1.0,)
        assert folded.node("bn").param("shift").data == (0.5,)

    def test_dense_on_constant_input_folds(self):
        g = ModelGraph.chain([
            LayerNode("input", "input", {"value": Tensor((2,), (1.0, 2.0))}),
            dense_node("d", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 0.25]),
        ], (2,))
        folded, report = passes.constant_fold(g)
        assert len(folded.nodes) == 1
        assert report.rewrites[-1] == (("d",), "input")
        value = folded.nodes[0].param("value")
        assert [v.to_float() for v in value.data] == [1.0, 2.0, 3.25]

    def test_width_changing_fold_takes_value_shape(self):
        """Folding 2 inputs through a 3x2 dense layer leaves a valid 3-wide input."""
        g = ModelGraph.chain([
            LayerNode("input", "input", {"value": Tensor((2,), (1.0, 2.0))}),
            dense_node("d", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 0.25]),
        ], (2,))
        folded, _ = passes.run_standard_passes(g)
        assert folded.input_shape == (3,)
        assert validate(folded) == []
        assert parse_model(serialize_model(folded)).input_shape == (3,)

    def test_fold_then_emulate_bit_exact(self):
        rng = np.random.Generator(np.random.Philox(key=33))
        g = ModelGraph.chain([
            LayerNode("input", "input", {"value": Tensor.from_numpy(rng.normal(size=4))}),
            dense_node("d0", rng.normal(size=(6, 4)), rng.normal(size=6)),
            LayerNode("r0", "relu"),
            dense_node("d1", rng.normal(size=(3, 6)), rng.normal(size=3)),
        ], (4,))
        unfolded_out, _ = run_inference(g)
        folded, _ = passes.constant_fold(g)
        folded_out, _ = run_inference(folded)
        assert [v.raw for v in folded_out.data] == [v.raw for v in unfolded_out.data]
        assert folded_out.data[0].spec == unfolded_out.data[0].spec


class TestPassContracts:
    def make_graph(self):
        rng = np.random.Generator(np.random.Philox(key=77))
        return chain(
            dense_node("d0", rng.normal(size=(8, 4)), rng.normal(size=8)),
            LayerNode("bn0", "batch_norm", bn_params(
                rng.normal(size=8), rng.normal(size=8), rng.normal(size=8),
                rng.uniform(0.5, 2.0, 8), eps=1e-3)),
            LayerNode("r0", "relu"),
            dense_node("d1", rng.normal(size=(2, 8)), rng.normal(size=2)),
            input_width=4,
        )

    @pytest.mark.parametrize("pass_fn", [
        passes.fuse_batchnorm_into_dense,
        passes.fuse_batchnorm_into_binary_tanh,
        passes.constant_fold,
    ])
    def test_node_count_monotone_and_idempotent(self, pass_fn):
        g = self.make_graph()
        once, first = pass_fn(g)
        assert len(once.nodes) <= len(g.nodes)
        twice, second = pass_fn(once)
        assert second.empty
        assert len(twice.nodes) == len(once.nodes)

    def test_standard_pipeline_preserves_real_semantics(self):
        g = self.make_graph()
        optimized, reports = passes.run_standard_passes(g)
        rng = np.random.Generator(np.random.Philox(key=78))
        x = rng.normal(size=(50, 4))
        before = trainer.forward_real(g, x)
        after = trainer.forward_real(optimized, x)
        assert np.abs(after - before).max() <= 1e-6 * max(np.abs(before).max(), 1.0)
        assert sum(len(r.rewrites) for r in reports) >= 1
