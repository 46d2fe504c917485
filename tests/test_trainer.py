import csv
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fixflow import kernels, trainer
from fixflow.fixed_point import ROUND_HALF_UP, SATURATE, FixedPointSpec, round_scaled
from fixflow.model_ir import LayerNode, ModelGraph, Tensor, walk
from fixflow.trainer import (
    Dataset,
    EvaluationError,
    QuantizerSpec,
    TrainingConfig,
    TrainingDivergedError,
    build_classifier,
    evaluate,
    load_csv_dataset,
    make_rng,
    quantize_model_weights,
    save_csv_dataset,
    synthetic_task,
    train,
    train_qat,
)

from oracles import oracle_auc_trapezoid


def two_blob_data(seed=4, n=400):
    rng = make_rng(seed)
    labels = rng.integers(0, 2, n)
    centers = np.array([[-2.0, -2.0], [2.0, 2.0]])
    features = centers[labels] + rng.normal(0, 1, (n, 2))
    return Dataset(features, labels, 2)


def weights_of(model):
    return {n.name: n.param("weight").to_numpy() for n in model.nodes if n.kind == "dense"}


class TestTrain:
    def test_linear_separable_accuracy(self):
        data = two_blob_data()
        model = build_classifier(2, [], 2, seed=0)
        cfg = TrainingConfig(epochs=200, seed=1, learning_rate=0.05, optimizer="sgd")
        trained, trace = train(model, data, cfg)
        assert evaluate(trained, data).accuracy >= 0.95
        assert trace[-1].loss < trace[0].loss

    def test_huge_l1_drives_weights_down(self):
        data = two_blob_data()
        model = build_classifier(2, [4], 2, seed=0)
        cfg = TrainingConfig(epochs=100, seed=1, learning_rate=0.05, l1_lambda=10.0)
        trained, _ = train(model, data, cfg)
        before = np.concatenate([w.reshape(-1) for w in weights_of(model).values()])
        after = np.concatenate([w.reshape(-1) for w in weights_of(trained).values()])
        assert np.median(np.abs(after)) < np.median(np.abs(before))

    def test_identical_seed_bit_identical(self):
        data = two_blob_data()
        model = build_classifier(2, [8], 2, seed=0)
        cfg = TrainingConfig(epochs=20, seed=9)
        m1, t1 = train(model, data, cfg)
        m2, t2 = train(model, data, cfg)
        for name in weights_of(m1):
            assert (weights_of(m1)[name] == weights_of(m2)[name]).all()
        assert [(s.loss, s.accuracy) for s in t1] == [(s.loss, s.accuracy) for s in t2]

    def test_l1_weakly_decreases_weight_mass(self):
        data = two_blob_data(n=600)
        model = build_classifier(2, [8], 2, seed=0)
        totals = []
        for lam in (0.0, 1e-4, 1e-2):
            cfg = TrainingConfig(epochs=150, seed=1, learning_rate=0.02, l1_lambda=lam)
            trained, _ = train(model, data, cfg)
            totals.append(sum(np.abs(w).sum() for w in weights_of(trained).values()))
        assert totals[0] >= totals[1] >= totals[2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_epoch(self):
        data = two_blob_data()
        model = build_classifier(2, [8], 2, seed=0)
        cfg = TrainingConfig(epochs=50, seed=1, learning_rate=1e12, optimizer="sgd")
        with pytest.raises(TrainingDivergedError) as err:
            train(model, data, cfg)
        assert "epoch" in str(err.value)

    def test_input_graph_not_mutated(self):
        data = two_blob_data()
        model = build_classifier(2, [4], 2, seed=0)
        before = {k: v.copy() for k, v in weights_of(model).items()}
        train(model, data, TrainingConfig(epochs=5, seed=1))
        for name, w in weights_of(model).items():
            assert (w == before[name]).all()


class _ParameterLoopOptimizer:
    """The per-parameter SGD/Adam loop, on arrays of their own: the reference
    for the flat update of ``trainer._Optimizer``."""

    def __init__(self, cfg, net):
        self.cfg = cfg
        self.step_count = 0
        self.m, self.v = {}, {}
        for i, layer in enumerate(net.layers):
            for pname, value, _ in layer.params():
                setattr(layer, pname, value.copy())  # off the flat buffer
                self.m[(i, pname)] = np.zeros_like(value)
                self.v[(i, pname)] = np.zeros_like(value)

    def step(self, net):
        cfg = self.cfg
        self.step_count += 1
        for i, layer in enumerate(net.layers):
            for pname, value, grad_fn in layer.params():
                g = grad_fn()
                if cfg.optimizer == "sgd":
                    value -= cfg.learning_rate * g
                else:
                    m = self.m[(i, pname)]
                    v = self.v[(i, pname)]
                    m *= trainer.ADAM_BETA1
                    m += (1 - trainer.ADAM_BETA1) * g
                    v *= trainer.ADAM_BETA2
                    v += (1 - trainer.ADAM_BETA2) * g * g
                    mhat = m / (1 - trainer.ADAM_BETA1 ** self.step_count)
                    vhat = v / (1 - trainer.ADAM_BETA2 ** self.step_count)
                    value -= cfg.learning_rate * mhat / (np.sqrt(vhat) + trainer.ADAM_EPS)
        for layer in net.dense_layers():
            if layer.mask is not None:
                layer.w *= layer.mask


class TestOptimizer:
    @pytest.mark.parametrize("case", [
        "adam", "adam_l1", "sgd", "sgd_l1", "masks", "sgd_masks", "adam_l1_masks", "batch_norm", "qat",
        "binary", "ternary"])
    def test_flat_update_equals_parameter_loop(self, monkeypatch, case):
        data = two_blob_data(n=160)
        model = build_classifier(2, [8, 6], 2, seed=3, batch_norm=case == "batch_norm")
        cfg = TrainingConfig(epochs=3, batch_size=32, seed=5, learning_rate=0.05,
                             optimizer="sgd" if case.startswith("sgd") else "adam",
                             l1_lambda=0.01 if "_l1" in case else 0.0)
        if case.endswith("masks"):
            rng = make_rng(6)
            cfg = replace(cfg, masks={name: rng.random(w.shape) < 0.6
                                      for name, w in weights_of(model).items()})
        elif case == "qat":
            cfg = replace(cfg, quantizers=QuantizerSpec(4, 2),
                          activation_quantizers={"relu0": QuantizerSpec(5, 3), "dense2": QuantizerSpec(6, 4)})
        elif case in ("binary", "ternary"):
            cfg = replace(cfg, quantizers=QuantizerSpec(1, mode=case, alpha=0.5))
        got, got_trace = train(model, data, cfg)
        monkeypatch.setattr(trainer, "_Optimizer", _ParameterLoopOptimizer)
        want, want_trace = train(model, data, cfg)
        assert got_trace == want_trace
        for a, b in zip(got.nodes, want.nodes):
            assert a.params.keys() == b.params.keys()
            for key in a.params:
                assert a.param(key).to_numpy().tobytes() == b.param(key).to_numpy().tobytes(), (a.name, key)


class _CopyingDense(trainer._Dense):
    """The dense step on arrays of its own: ``@`` products, fresh gradients, and
    dx also from the first layer."""

    def forward(self, x, owned):
        self._x = x
        out = x @ self._w_eff.T
        out += self.b
        return out

    def backward(self, dy):
        dw = dy.T @ self._x
        if self._ste is not None:
            dw *= self._ste
        if self.mask is not None:
            dw *= self.mask
        self.dw, self.db = dw, dy.sum(axis=0)
        return dy @ self._w_eff


class _CopyingBatchNorm(trainer._BatchNorm):
    def backward(self, dy):
        self.dgamma = (dy * self._xhat).sum(axis=0)
        self.dbeta = dy.sum(axis=0)
        dxhat = dy * self.gamma
        return self._istd * (dxhat - dxhat.mean(axis=0) - self._xhat * (dxhat * self._xhat).mean(axis=0))


class _CopyingRelu(trainer._Relu):
    def forward(self, x, owned):
        self._mask = x > 0
        return x * self._mask


class _CopyingNet(trainer._Net):
    """The loss and its gradient with the labels' one-hot rows subtracted."""

    def __init__(self, graph, cfg):
        super().__init__(graph, cfg)
        self._eye = np.eye(walk(graph)[-1][3])

    def loss_and_grads(self, x, y, l1_lambda, start=0):
        self._quantize_weights()
        for layer in self.layers[start:]:
            x = layer.forward(x, True)
        shifted = x - x.max(axis=1, keepdims=True)
        log_z = np.exp(shifted).sum(axis=1)
        np.log(log_z, out=log_z)
        probs = shifted - log_z[:, None]
        np.exp(probs, out=probs)
        n = len(y)
        data_loss = float((log_z - shifted[np.arange(n), y]).mean())
        penalty = 0.0
        grad = probs - self._eye[y]
        grad /= n
        for layer in reversed(self.layers[self._first:]):
            grad = layer.backward(grad)
        if l1_lambda > 0:
            for layer in self._dense:
                penalty += float(np.abs(layer.w).sum())
                layer.dw += l1_lambda * np.sign(layer.w)
                if layer.mask is not None:
                    layer.dw *= layer.mask
        return data_loss + l1_lambda * penalty, probs


class _CopyingOptimizer:
    """SGD or Adam on the flat buffer, with the gradients concatenated per
    step and Adam's moments and every intermediate in arrays of their own."""

    def __init__(self, cfg, net):
        self.cfg = cfg
        self.step_count = 0
        self.m = np.zeros_like(net.theta)
        self.v = np.zeros_like(net.theta)

    def step(self, net):
        cfg = self.cfg
        self.step_count += 1
        g = np.concatenate([grad() for layer in net.layers for *_, grad in layer.params()], axis=None)
        if cfg.optimizer == "sgd":
            net.theta -= cfg.learning_rate * g
        else:
            self.m *= trainer.ADAM_BETA1
            self.m += (1 - trainer.ADAM_BETA1) * g
            self.v *= trainer.ADAM_BETA2
            self.v += (1 - trainer.ADAM_BETA2) * g * g
            mhat = self.m / (1 - trainer.ADAM_BETA1 ** self.step_count)
            vhat = self.v / (1 - trainer.ADAM_BETA2 ** self.step_count)
            net.theta -= cfg.learning_rate * mhat / (np.sqrt(vhat) + trainer.ADAM_EPS)


def _copying_train(monkeypatch, model, data, cfg):
    """``train`` with a step that builds every array it uses and accuracy
    counted per step: the reference for the step that writes into buffers of
    the net and the optimizer."""
    with monkeypatch.context() as patched:
        for name, cls in (("_Dense", _CopyingDense), ("_BatchNorm", _CopyingBatchNorm), ("_Relu", _CopyingRelu)):
            patched.setattr(trainer, name, cls)
        net = _CopyingNet(model, cfg)
        opt = _CopyingOptimizer(cfg, net)
        rng = make_rng(cfg.seed)
        n = len(data)
        batch = max(1, min(cfg.batch_size, n))
        features, first = data.features, 0
        if net.layers and isinstance(net.layers[0], trainer._FakeQuant):
            features, first = net.layers[0].quantizer.fake_quant(features)[0], 1
        trace = []
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            losses, hits = [], 0
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                x, y = features[idx], data.labels[idx]
                loss, probs = net.loss_and_grads(x, y, cfg.l1_lambda, first)
                opt.step(net)
                losses.append(loss * len(idx))
                hits += int((probs.argmax(axis=1) == y).sum())
            trace.append(trainer.EpochStats(epoch, sum(losses) / n, hits / n))
        return net.write_back(model), trace


def _relu_first_model(seed):
    """input -> relu -> dense -> relu -> dense -> softmax: a ReLU on the caller's rows."""
    rng = make_rng(seed)
    nodes = [LayerNode("input", "input"), LayerNode("relu_in", "relu")]
    for i, (n_out, n_in) in enumerate([(12, 16), (5, 12)]):
        w, b = trainer.init_dense_params(rng, n_out, n_in)
        nodes.append(LayerNode(f"dense{i}", "dense", {"weight": Tensor.from_numpy(w), "bias": Tensor.from_numpy(b)}))
        if i == 0:
            nodes.append(LayerNode("relu0", "relu"))
    nodes.append(LayerNode("softmax", "softmax"))
    return ModelGraph.chain(nodes, (16,))


class TestStep:
    """The training step that writes gradients, Adam's moments and ReLU outputs
    into buffers, byte for byte against ``_copying_train``."""

    @staticmethod
    def scan_quantizers(model, data, bits):
        ptq = trainer.scan_precisions(model, data.features, bits)
        return ({n.name: QuantizerSpec(bits, n.precision.weight.integer_bits) for n in ptq.nodes if n.kind == "dense"},
                {n.name: QuantizerSpec(bits, n.precision.result.integer_bits) for n in ptq.nodes if n.kind != "softmax"})

    @pytest.mark.parametrize("case", [
        "adam", "sgd", "adam_l1", "sgd_l1", "masks", "sgd_l1_masks", "batch_norm", "qat", "binary", "ternary",
        "quant_relu", "quant_relu_batch_norm", "relu_first", "n_below_batch"])
    def test_step_equals_copying_step(self, monkeypatch, case):
        data = synthetic_task(seed=7, n_samples=20 if case == "n_below_batch" else 203, sample_seed=5)
        model = (_relu_first_model(4) if case == "relu_first" else
                 build_classifier(16, [12, 8], 5, seed=2, batch_norm="batch_norm" in case))
        cfg = TrainingConfig(epochs=3, batch_size=32, seed=5, learning_rate=0.05,
                             optimizer="sgd" if case.startswith("sgd") else "adam",
                             l1_lambda=0.01 if "_l1" in case else 0.0)
        if "masks" in case:
            rng = make_rng(6)
            cfg = replace(cfg, masks={name: rng.random(w.shape) < 0.6 for name, w in weights_of(model).items()})
        elif case == "qat":
            cfg = replace(cfg, quantizers=QuantizerSpec(4, 2), activation_quantizers={
                "input": QuantizerSpec(6, 3), "relu0": QuantizerSpec(5, 3), "dense2": QuantizerSpec(6, 4)})
        elif case in ("binary", "ternary"):
            cfg = replace(cfg, quantizers=QuantizerSpec(1, mode=case, alpha=0.5))
        elif case.startswith("quant_relu"):
            quantizers, act = self.scan_quantizers(model, data, 6)
            cfg = replace(cfg, quantizers=quantizers, activation_quantizers=act)
            assert [type(layer) for layer in trainer._Net(model, cfg).layers].count(trainer._QuantRelu) == 2
        rows = data.features.copy()
        got, got_trace = train(model, data, cfg)
        assert data.features.tobytes() == rows.tobytes()
        want, want_trace = _copying_train(monkeypatch, model, data, cfg)
        assert len(data) % 32 != 0  # a short last batch, or one batch of every row
        assert got_trace == want_trace
        for a, b in zip(got.nodes, want.nodes):
            assert a.params.keys() == b.params.keys()
            for key in a.params:
                assert a.param(key).to_numpy().tobytes() == b.param(key).to_numpy().tobytes(), (a.name, key)
        if "masks" in case:  # pruned masters stay -0.0
            assert any((np.signbit(w) & (w == 0)).any() for w in weights_of(got).values())

    def test_relu_after_the_input_leaves_the_callers_rows(self):
        data = synthetic_task(seed=7, n_samples=32, sample_seed=5)
        net = trainer._Net(_relu_first_model(4), TrainingConfig())
        x, rows = data.features, data.features.copy()
        assert isinstance(net.layers[0], trainer._Relu) and (x < 0).any()
        loss, probs = net.loss_and_grads(x, data.labels, 0.0)
        grad = net.grad.copy()
        assert x.tobytes() == rows.tobytes()
        again, probs_again = net.loss_and_grads(x, data.labels, 0.0)
        assert again == loss and probs_again.tobytes() == probs.tobytes()
        assert net.grad.tobytes() == grad.tobytes()

    def test_dot_equals_matmul_on_random_shapes(self):
        # The step's np.dot products give the bits of ``@`` with this numpy and BLAS.
        rng = make_rng(21)
        for _ in range(300):
            n, k, m = (int(v) for v in rng.integers(1, 81, 3))
            x, w, dy = rng.normal(size=(n, k)), rng.normal(size=(m, k)), rng.normal(size=(n, m))
            assert np.dot(x, w.T).tobytes() == (x @ w.T).tobytes(), (n, k, m)
            assert np.dot(dy.T, x).tobytes() == (dy.T @ x).tobytes(), (n, k, m)
            assert np.dot(dy, w).tobytes() == (dy @ w).tobytes(), (n, k, m)


def _reference_apply(q, w):
    """QuantizerSpec.apply with the fixed mode stated on raws: round_scaled's
    raws of w / step, clamped to the spec's raw limits, times the step. The
    reference for ``_fixed_fake_quant``, which clamps after scaling."""
    if q.mode != "fixed":
        return q.apply(w)
    raws = round_scaled(w / q._step, ROUND_HALF_UP)
    np.maximum(raws, q.spec.min_raw, out=raws)
    np.minimum(raws, q.spec.max_raw, out=raws)
    raws *= q._step
    return raws


class _ReferenceFakeQuant:
    """An activation quantizer as ``_reference_apply`` and in_range."""

    def __init__(self, layer):
        self.name, self.quantizer = layer.name, layer.quantizer

    def forward(self, x, training):
        self._mask = self.quantizer.in_range(x)
        return _reference_apply(self.quantizer, x)

    def backward(self, dy):
        return dy * self._mask

    def params(self):
        return []


class _PerLayerNet(trainer._Net):
    """Each dense layer quantizes its own master with ``_reference_apply`` and
    in_range, each activation quantizer is a ``_ReferenceFakeQuant``, and
    every step enters at the input layer, whose grid applies to each batch:
    the reference for the stacked weight quantizer, the one-pass activation
    fake-quant and the input grid that ``train`` applies once per call."""

    def __init__(self, graph, cfg):
        super().__init__(graph, cfg)
        self.layers = [_ReferenceFakeQuant(layer) if isinstance(layer, trainer._FakeQuant) else layer
                       for layer in self.layers]

    def _quantize_weights(self):
        for layer in self.dense_layers():
            q = layer.quantizer
            w = layer.w if q is None else _reference_apply(q, layer.w)
            layer._w_eff = w if layer.mask is None else w * layer.mask
            layer._ste = None if q is None else q.in_range(layer.w)


class TestFakeQuant:
    """The one-pass fixed-mode fake-quant of activations and of the stacked
    dense weights, and QuantizerSpec.apply, byte for byte against
    ``_reference_apply`` and in_range."""

    @staticmethod
    def edge_inputs(q, seed):
        rng = make_rng(seed)
        lo, hi = q._limits
        raws = rng.integers(q.spec.min_raw, q.spec.max_raw, 32, endpoint=True)
        halves = np.concatenate([(raws + 0.5) * q._step, (raws - 0.5) * q._step])
        return np.concatenate([
            rng.normal(0.0, 2 * hi, 96),
            [lo, hi], np.nextafter([lo, hi], -np.inf), np.nextafter([lo, hi], np.inf),
            halves, np.nextafter(halves, -np.inf), np.nextafter(halves, np.inf),
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308],
        ])

    @staticmethod
    def assert_matches(q, x, values, mask):
        want = _reference_apply(q, x).tobytes()
        assert values.tobytes() == want and q.apply(x).tobytes() == want
        assert mask.dtype == bool and mask.tolist() == q.in_range(x).tolist()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [1.0, 0.75, 2.0])
    @pytest.mark.parametrize("bits, integer_bits", [(4, 1), (6, -2), (3, -5), (8, 3)])
    def test_activation_fake_quant(self, alpha, bits, integer_bits):
        q = QuantizerSpec(bits, integer_bits, alpha)
        x = self.edge_inputs(q, 100 * bits + integer_bits).reshape(-1, 2)
        layer = trainer._FakeQuant("act", q)
        self.assert_matches(q, x, layer.forward(x, True), layer._mask)
        dy = np.arange(1.0, x.size + 1).reshape(x.shape)
        want = dy * q.in_range(x)
        assert layer.backward(dy).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("alphas", [(1.0, 1.0, 1.0), (0.75, 0.75, 0.75), (2.0, 2.0, 2.0), (2.0, 1.0, 0.75)])
    def test_stacked_weight_fake_quant(self, alphas):
        model = build_classifier(20, [24, 20], 20, seed=1)
        quantizers = {f"dense{i}": QuantizerSpec(bits, integer_bits, alpha)
                      for i, (bits, integer_bits, alpha) in enumerate(zip((4, 6, 3), (1, -2, 5), alphas))}
        net = trainer._Net(model, TrainingConfig(quantizers=quantizers))
        for i, layer in enumerate(net.dense_layers()):
            x = self.edge_inputs(quantizers[layer.name], i)
            assert x.size <= layer.w.size
            layer.w[...] = np.resize(x, layer.w.shape)  # the masters, in place
        net._quantize_weights()
        for layer in net.dense_layers():
            self.assert_matches(quantizers[layer.name], layer.w, layer._w_eff, layer._ste)

    @pytest.mark.parametrize("optimizer", ["flat", "parameter_loop"])
    def test_mixed_per_layer_quantizers_equal_per_layer_reference(self, monkeypatch, optimizer):
        data = two_blob_data(n=160)
        model = build_classifier(2, [8, 6, 6, 5], 2, seed=3)
        cfg = TrainingConfig(
            epochs=3, batch_size=32, seed=5, learning_rate=0.05,
            quantizers={"dense0": QuantizerSpec(6, 2), "dense1": QuantizerSpec(1, mode="binary", alpha=0.5),
                        "dense2": QuantizerSpec(5, -1, alpha=0.75), "dense3": QuantizerSpec(4, 0, alpha=2.0)},
            masks={"dense1": make_rng(6).random((6, 8)) < 0.6},  # dense4 has no quantizer
            activation_quantizers={"input": QuantizerSpec(5, 3), "relu0": QuantizerSpec(6, 2),
                                   "dense4": QuantizerSpec(8, 4)})
        if optimizer == "parameter_loop":
            monkeypatch.setattr(trainer, "_Optimizer", _ParameterLoopOptimizer)
        got, got_trace = train(model, data, cfg)
        monkeypatch.setattr(trainer, "_Net", _PerLayerNet)
        want, want_trace = train(model, data, cfg)
        assert got_trace == want_trace
        for a, b in zip(got.nodes, want.nodes):
            for key in a.params:
                assert a.param(key).to_numpy().tobytes() == b.param(key).to_numpy().tobytes(), (a.name, key)


def _unfused_relu(q_in, q_out):
    """The three layers that ``_QuantRelu(q_in, q_out)`` stands for."""
    return [trainer._FakeQuant("dense", q_in), trainer._Relu(SimpleNamespace(name="relu")),
            trainer._FakeQuant("relu", q_out)]


class TestQuantRelu:
    """The fused fake-quant -> ReLU -> fake-quant layer, byte for byte
    against the three layers it replaces, and the grids it fuses."""

    @staticmethod
    def nested_cases():
        """(bits, integer bits) of q_in and of q_out, with q_out's step at most
        q_in's: equal widths with equal or fewer integer bits (the scan's
        case, hi_out <= hi_in) and a mixed width for each width 1..64."""
        rng = make_rng(13)
        cases = []
        for bits in range(1, 65):
            int_in, bits_out = int(rng.integers(-6, 10)), int(rng.integers(1, 65))
            cases += [((bits, int_in), (bits, int_in)),
                      ((bits, int_in), (bits, int_in - int(rng.integers(1, 6)))),
                      ((bits, int_in), (bits_out, int_in - bits + bits_out - int(rng.integers(0, 4))))]
        return cases

    @staticmethod
    def run_both(q_in, q_out, x):
        """Forward and backward through ``_QuantRelu`` and through the
        unfused layers: ``(fused, unfused)``, each ``(value, mask, dx)``."""
        dy = np.arange(1.0, x.size + 1) * np.where(np.arange(x.size) % 2, -1.0, 1.0)
        fused, layers = trainer._QuantRelu("relu", q_in, q_out), _unfused_relu(q_in, q_out)
        value = x
        for layer in layers:
            value = layer.forward(value, True)
        dx = dy.copy()
        for layer in reversed(layers):
            dx = layer.backward(dx)
        mask = layers[0]._mask & layers[1]._mask & layers[2]._mask
        return ((fused.forward(x, True), fused._mask, fused.backward(dy.copy())), (value, mask, dx))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_equals_unfused_layers_on_edge_inputs(self, alpha):
        narrower = 0
        for i, ((bits_in, int_in), (bits_out, int_out)) in enumerate(self.nested_cases()):
            q_in, q_out = QuantizerSpec(bits_in, int_in, alpha), QuantizerSpec(bits_out, int_out, alpha)
            assert trainer._nested(q_in, q_out)
            narrower += q_out._limits[1] < q_in._limits[1]
            x = np.concatenate([TestFakeQuant.edge_inputs(q_in, 2 * i), TestFakeQuant.edge_inputs(q_out, 2 * i + 1)])
            (value, mask, dx), (want_value, want_mask, want_dx) = self.run_both(q_in, q_out, x)
            case = (alpha, bits_in, int_in, bits_out, int_out)
            assert value.tobytes() == want_value.tobytes(), case
            assert mask.dtype == bool and mask.tolist() == want_mask.tolist(), case
            assert dx.tobytes() == want_dx.tobytes(), case
        assert narrower >= 64  # hi_out < hi_in, where the clamp takes hi_out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_three_quarter_alpha_is_not_nested(self):
        # 0.75 * 2**-k is no power of two: at 53 bits a grid value / step
        # rounds, and the fused layer would differ from the unfused ones.
        q = QuantizerSpec(53, 3, 0.75)
        assert not trainer._nested(q, q)
        (value, *_), (want, *_) = self.run_both(q, q, TestFakeQuant.edge_inputs(q, 53))
        assert value.tobytes() != want.tobytes()

    @pytest.mark.parametrize("case, fused", [
        ("nested", True), ("equal_grids", True), ("bn_quantized", True), ("wider_out", False),
        ("alpha_0.75", False), ("alphas_differ", False), ("binary", False), ("ternary", False),
        ("no_quantizer_in", False), ("no_quantizer_out", False), ("bn_between", False)])
    def test_fuses_only_nested_grids(self, case, fused):
        model = build_classifier(2, [4], 2, seed=0, batch_norm=case.startswith("bn"))
        act = {"bn0" if case == "bn_quantized" else "dense0": QuantizerSpec(6, 3),
               "relu0": QuantizerSpec(6, 3 if case == "equal_grids" else 2)}
        act.update({
            "wider_out": {"relu0": QuantizerSpec(6, 4)},
            "alpha_0.75": {"dense0": QuantizerSpec(6, 3, 0.75), "relu0": QuantizerSpec(6, 2, 0.75)},
            "alphas_differ": {"relu0": QuantizerSpec(6, 2, 2.0)},
            "binary": {"dense0": QuantizerSpec(1, mode="binary")},
            "ternary": {"relu0": QuantizerSpec(2, mode="ternary")},
        }.get(case, {}))
        act.pop({"no_quantizer_in": "dense0", "no_quantizer_out": "relu0"}.get(case), None)
        net = trainer._Net(model, TrainingConfig(activation_quantizers=act))
        kinds = [type(layer) for layer in net.layers]
        assert (trainer._QuantRelu in kinds) == fused
        assert (trainer._Relu in kinds) != fused

    @pytest.mark.parametrize("optimizer", ["flat", "parameter_loop"])
    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_scan_training_equals_unfused(self, monkeypatch, optimizer, batch_norm):
        data = synthetic_task(seed=7, n_samples=160, sample_seed=5)
        model = build_classifier(16, [12, 8], 5, seed=2, batch_norm=batch_norm)
        if optimizer == "parameter_loop":
            monkeypatch.setattr(trainer, "_Optimizer", _ParameterLoopOptimizer)
        for bits in range(4, 9):
            ptq = trainer.scan_precisions(model, data.features, bits)
            cfg = TrainingConfig(epochs=2, batch_size=32, seed=bits, quantizers={
                node.name: QuantizerSpec(bits, node.precision.weight.integer_bits)
                for node in ptq.nodes if node.kind == "dense"}, activation_quantizers={
                node.name: QuantizerSpec(bits, node.precision.result.integer_bits)
                for node in ptq.nodes if node.kind != "softmax"})
            assert [type(layer) for layer in trainer._Net(model, cfg).layers].count(trainer._QuantRelu) == 2
            got, got_trace = train_qat(model, data, cfg)
            with monkeypatch.context() as unfused:
                unfused.setattr(trainer, "_nested", lambda q_in, q_out: False)
                want, want_trace = train_qat(model, data, cfg)
            assert got_trace == want_trace, bits
            for a, b in zip(got.nodes, want.nodes):
                for key in a.params:
                    assert a.param(key).to_numpy().tobytes() == b.param(key).to_numpy().tobytes(), (bits, a.name)


class TestScan:
    def test_widths_share_one_float_forward_over_training_rows(self, monkeypatch, tmp_path):
        train_data = synthetic_task(seed=7, n_samples=120, sample_seed=1)
        eval_data = synthetic_task(seed=7, n_samples=60, sample_seed=2)
        model = build_classifier(16, [8], 5, seed=1)
        cfg = TrainingConfig(epochs=2, batch_size=32, seed=3)
        float_model, _ = train(model, train_data, cfg)
        forward, rows_seen = trainer._forward_layers, []

        def counted(graph, x):
            rows_seen.append(len(x))
            return forward(graph, x)

        monkeypatch.setattr(trainer, "_forward_layers", counted)
        _, rows = trainer.ptq_qat_scan(model, train_data, eval_data, range(4, 9), cfg,
                                       fixed_eval_limit=50, float_model=float_model)
        assert rows_seen.count(len(train_data)) == 1
        # A one-width scan finds the extremes for its width alone, as every
        # width of a longer scan once did.
        alone = [row for bits in range(4, 9) for row in trainer.ptq_qat_scan(
            model, train_data, eval_data, [bits], cfg, fixed_eval_limit=50, float_model=float_model)[1]]
        assert rows_seen.count(len(train_data)) == 6
        trainer.write_scan_csv(rows, tmp_path / "together.csv")
        trainer.write_scan_csv(alone, tmp_path / "alone.csv")
        assert (tmp_path / "together.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_binary_tanh_gives_a_scan_no_range(self):
        # Training refuses the kind first, so only a float model given to the scan reaches this rule.
        data = synthetic_task(seed=7, n_samples=40, sample_seed=1)
        model = build_classifier(16, [8], 5, seed=1)
        nodes = list(model.nodes)
        float_model = ModelGraph.chain(nodes[:2] + [LayerNode("bt", "binary_tanh")] + nodes[2:], model.input_shape)
        with pytest.raises(ValueError, match="^layer 'bt': kind 'binary_tanh' not supported in scans$"):
            trainer.ptq_qat_scan(model, data, data, [4], TrainingConfig(epochs=1), float_model=float_model)

    def test_materialized_masters_equal_their_snap(self):
        """The scan deploys the QAT masters under the scan precisions without
        snapping them: materializing them gives the raws of materializing
        their ``quantize_model_weights`` snap, at every width, for random
        weights, half-step ties and the saturation edges."""
        rng = make_rng(21)
        float_model = build_classifier(8, [6], 4, seed=1)
        features = rng.normal(0.0, 1.0, (30, 8))
        for bits in range(1, 65):
            scan = trainer.scan_precisions(float_model, features, bits)
            quantizers, masters = {}, {}
            for node in scan.nodes:
                if node.kind != "dense":
                    continue
                q = quantizers[node.name] = QuantizerSpec(bits, node.precision.weight.integer_bits)
                assert q.spec == node.precision.weight
                lo, hi = float(q.spec.min_raw), float(q.spec.max_raw)
                raws = [lo - 1, lo - 0.5, lo, lo + 0.5, -2.5, -0.5, 0.5, 1.5,
                        hi - 0.5, hi, hi + 0.5, hi + 1, 4 * lo, 4 * hi]
                shape = node.param("weight").shape
                raws += list(rng.uniform(1.5 * lo, 1.5 * hi, shape[0] * shape[1] - len(raws)))
                masters[node.name] = (np.array(raws) * q._step).reshape(shape)
            deployed = scan.replace_nodes([
                node.with_params(weight=Tensor.from_numpy(masters[node.name])) if node.name in masters else node
                for node in scan.nodes])
            want = kernels.materialize_quantized(quantize_model_weights(deployed, quantizers))
            got = kernels.materialize_quantized(deployed)
            for name in masters:
                a, b = got.node(name).param("weight"), want.node(name).param("weight")
                assert a.spec == b.spec and a.array.dtype == b.array.dtype
                assert a.array.tolist() == b.array.tolist(), (bits, name)


class TestQat:
    def test_wide_quantizer_matches_plain_training(self, jet_train_data, jet_eval_data,
                                                   jet_init_model, jet_float_model):
        qcfg = TrainingConfig(epochs=100, seed=3,
                              quantizers=QuantizerSpec(32, 16))
        quantized, _ = train_qat(jet_init_model, jet_train_data, qcfg)
        acc_plain = evaluate(jet_float_model, jet_eval_data).accuracy
        acc_q = evaluate(quantized, jet_eval_data).accuracy
        assert abs(acc_plain - acc_q) <= 0.005

    def test_binary_mode_codomain(self):
        data = two_blob_data()
        model = build_classifier(2, [8], 2, seed=0)
        q = QuantizerSpec(1, mode="binary", alpha=0.5)
        cfg = TrainingConfig(epochs=10, seed=1, quantizers=q)
        trained, _ = train_qat(model, data, cfg)
        snapped = quantize_model_weights(trained, q)
        for w in weights_of(snapped).values():
            assert set(np.unique(w)) <= {-0.5, 0.5}

    def test_master_weights_stay_real(self):
        data = two_blob_data()
        model = build_classifier(2, [8], 2, seed=0)
        q = QuantizerSpec(3, 1)
        cfg = TrainingConfig(epochs=10, seed=1, quantizers=q)
        trained, _ = train_qat(model, data, cfg)
        off_grid = 0
        for w in weights_of(trained).values():
            snapped = q.apply(w)
            off_grid += int((snapped != w).sum())
        assert off_grid > 0  # masters live off the grid; quantization is forward-only

    def test_requires_quantizers_for_every_dense(self):
        data = two_blob_data()
        model = build_classifier(2, [8], 2, seed=0)
        cfg = TrainingConfig(epochs=1, seed=1, quantizers={"dense0": QuantizerSpec(4)})
        with pytest.raises(ValueError):
            train_qat(model, data, cfg)

    def test_ste_gradient_clipped_outside_range(self):
        data = two_blob_data()
        model = build_classifier(2, [4], 2, seed=0)
        q = QuantizerSpec(4, 1)
        net = trainer._Net(model, TrainingConfig(quantizers=q))
        layer = net.dense_layers()[0]
        layer.w[0, 0] = 5.0  # far outside the [-1, 0.875] grid range
        net.loss_and_grads(data.features[:32], data.labels[:32], 0.0)
        assert layer.dw[0, 0] == 0.0
        assert np.any(layer.dw != 0.0)

    def test_ternary_codomain(self):
        q = QuantizerSpec(2, mode="ternary", alpha=1.0)
        w = np.array([-2.0, -0.6, -0.4, 0.0, 0.4, 0.6, 2.0])
        assert list(q.apply(w)) == [-1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0]
        assert q.bits == 2

    def test_alpha_rescales_fixed_grid(self):
        plain = QuantizerSpec(4, 1, alpha=1.0)
        scaled = QuantizerSpec(4, 1, alpha=2.0)
        w = np.array([0.3, -0.55, 1.4, 3.0, 0.5 - 2**-54])
        assert list(scaled.apply(w)) == [v * 2 for v in plain.apply(w / 2)]
        # The limits are spec.min_raw * step and spec.max_raw * step.
        step = scaled.alpha * 2.0**-scaled.spec.fraction_bits
        assert scaled.spec.min_raw * step == -2.0 and scaled.spec.max_raw * step == 1.75
        limits = np.array([-2.0 - step, -2.0, 1.75, 1.75 + step])
        assert scaled.in_range(limits).tolist() == [False, True, True, False]
        # With alpha = 1 the fixed mode is the deployment grid's quantizer.
        # floor(w + 0.5) would give 1.0 for 0.5 - 2**-54.
        deployed = FixedPointSpec(8, 8, rounding=ROUND_HALF_UP, overflow=SATURATE)
        raws = Tensor.from_numpy(w).quantized(deployed).array.tolist()
        assert list(QuantizerSpec(8, 8).apply(w)) == raws
        assert raws[-1] == 0

    def test_activation_fake_quant_applies_grid(self):
        data = two_blob_data()
        model = build_classifier(2, [8], 2, seed=0)
        act_q = {"relu0": QuantizerSpec(4, 2)}
        cfg = TrainingConfig(epochs=2, seed=1, activation_quantizers=act_q)
        net = trainer._Net(model, cfg)
        names = [layer.name for layer in net.layers]
        assert "relu0.quant" in names
        x = data.features[:8]
        h = x
        for layer in net.layers:
            h = layer.forward(h, True)
            if layer.name == "relu0.quant":
                grid = act_q["relu0"].apply(h)
                assert (h == grid).all()


class TestEvaluate:
    def test_perfect_classifier(self):
        data = two_blob_data()
        model = build_classifier(2, [8], 2, seed=0)
        cfg = TrainingConfig(epochs=200, seed=1, learning_rate=0.05)
        trained, _ = train(model, data, cfg)
        report = evaluate(trained, data)
        if report.accuracy == 1.0:
            assert report.mean_auc == 1.0

    def test_random_scores_auc_half(self):
        rng = make_rng(123)
        n = 10_000
        labels = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
        scores = rng.uniform(0, 1, n)
        auc = trainer._rank_auc(scores, labels == 1)
        assert abs(auc - 0.5) <= 0.02

    def test_rank_auc_matches_trapezoid(self):
        rng = make_rng(77)
        for _ in range(30):
            n = int(rng.integers(10, 200))
            scores = np.round(rng.normal(0, 1, n), 1)  # force ties
            labels = rng.integers(0, 2, n).astype(bool)
            if labels.all() or not labels.any():
                continue
            got = trainer._rank_auc(scores, labels)
            want = oracle_auc_trapezoid(list(scores), list(labels))
            assert abs(got - want) < 1e-9

    def test_rank_auc_equals_midrank_loop(self):
        # The vectorized midranks give exactly what a loop over tied runs gives.
        def loop_auc(scores, is_positive):
            order = np.argsort(scores, kind="mergesort")
            ranks = np.empty(len(scores))
            i = 0
            while i < len(scores):
                j = i
                while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
                    j += 1
                ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            p = int(is_positive.sum())
            q = len(scores) - p
            return float((ranks[is_positive].sum() - p * (p + 1) / 2) / (p * q))

        rng = make_rng(78)
        for trial in range(200):
            n = int(rng.integers(2, 80))
            scores = rng.integers(-3, 4, n) * 0.25  # many ties, signed zeros among them
            scores[rng.random(n) < 0.1] = -0.0
            labels = rng.integers(0, 2, n).astype(bool)
            if labels.all() or not labels.any():
                continue
            assert trainer._rank_auc(scores, labels) == loop_auc(scores, labels), trial

    def test_single_class_dataset_error(self):
        data = Dataset(np.zeros((10, 2)), np.zeros(10, dtype=int), 2)
        model = build_classifier(2, [], 2, seed=0)
        with pytest.raises(EvaluationError):
            evaluate(model, data)

    def test_fixed_evaluate_matches_emulator_classwise(self, jet_float_model, jet_eval_data):
        sub = Dataset(jet_eval_data.features[:20], jet_eval_data.labels[:20],
                      jet_eval_data.class_count)
        scores = trainer.emulate_batch(jet_float_model, sub.features)
        report = evaluate(jet_float_model, sub, arithmetic="fixed")
        assert report.accuracy == float((scores.argmax(axis=1) == sub.labels).mean())


class TestDataPlumbing:
    def test_csv_round_trip(self, tmp_path):
        data = synthetic_task(seed=3, n_samples=50)
        path = tmp_path / "data.csv"
        save_csv_dataset(data, path)
        back = load_csv_dataset(path)
        assert (back.features == data.features).all()
        assert (back.labels == data.labels).all()

    def test_csv_requires_label_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_csv_dataset(path)

    @pytest.mark.parametrize("rows, line, message", [
        ("1,2,0\n3,x,1\n", 3, "could not convert string to float: 'x'"),
        ("1,2,0\n\n3,1\n", 4, "2 columns, the header has 3"),
        ("1,2,0,7\n", 2, "4 columns, the header has 3"),
        ("1,nan,0\n", 2, "non-finite feature"),
        ("-inf,1,0\n", 2, "non-finite feature"),
        ("1,2,0\n1e400,1,0\n", 3, "non-finite feature"),
        ("1,2,1.5\n", 2, "invalid literal for int() with base 10: '1.5'"),
        ("1,2,-1\n", 2, "label -1 is negative"),
        ("1,2,\n", 2, "invalid literal for int() with base 10: ''"),
    ])
    def test_csv_bad_row_names_file_and_line(self, tmp_path, rows, line, message):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n" + rows)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line}: ')}") as info:
            load_csv_dataset(path)
        assert message in str(info.value)

    def test_csv_labels_are_what_int_parses(self, tmp_path):
        path = tmp_path / "signs.csv"
        path.write_text("a,label\n1,+1\n2, 2\n3,0\n")
        assert load_csv_dataset(path).labels.tolist() == [1, 2, 0]

    @pytest.mark.parametrize("text, message", [
        ("", "last column must be named 'label'"),
        ("a,b,label\n\n", "no data rows"),
    ])
    def test_csv_without_rows_names_file(self, tmp_path, text, message):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_csv_dataset(path)

    # save_csv_dataset as it was before orjson: the block writer must write the same bytes.
    @staticmethod
    def reference_save(data, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{i}" for i in range(data.features.shape[1])] + ["label"])
            writer.writerows([*map(repr, x), y] for x, y in zip(data.features.tolist(), data.labels.tolist()))

    EDGE_FEATURES = [0.0, -0.0, 1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0), 5e-324,
                     1.7976931348623157e308, np.nan, np.inf, 1e-7, 3e17, 5e-5, 0.1, 123.456]

    @pytest.mark.parametrize("rows, width", [(1, 3), (7, 1), (600, 16), (3, 0), (0, 4)])
    def test_csv_writer_matches_csv_module_on_both_sides_of_the_repr_rule(self, tmp_path, rows, width):
        rng = make_rng(rows + width)
        edges = np.array(self.EDGE_FEATURES)
        features = rng.normal(0, 1, (rows, width)) * 10.0 ** rng.integers(-6, 18, (rows, width))
        some = rng.random((rows, width)) < 0.2
        features[some] = rng.choice(edges, some.sum()) * rng.choice([-1.0, 1.0], some.sum())
        data = Dataset(np.asfortranarray(features), rng.integers(0, 2**40, rows), 2**40)
        save_csv_dataset(data, tmp_path / "fast.csv")
        self.reference_save(data, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_csv_writer_matches_csv_module_on_each_edge_value(self, tmp_path):
        edges = np.array(self.EDGE_FEATURES)
        features = np.concatenate([edges, -edges, np.full(3, 0.5)]).reshape(-1, 1)
        data = Dataset(features * np.ones((1, 2)), np.arange(len(features)), len(features))
        save_csv_dataset(data, tmp_path / "fast.csv")
        self.reference_save(data, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_synthetic_task_split_shares_task(self):
        a = synthetic_task(seed=7, n_samples=100, sample_seed=1)
        b = synthetic_task(seed=7, n_samples=100, sample_seed=2)
        assert not (a.features == b.features).all()
        # same task: a model trained on one transfers to the other
        model = build_classifier(16, [16], 5, seed=0)
        trained, _ = train(model, a, TrainingConfig(epochs=80, seed=1))
        assert evaluate(trained, b).accuracy > 0.5

    def test_labels_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 2)


class TestGradients:
    def test_batch_norm_backward_against_finite_differences(self):
        rng = make_rng(15)
        model = build_classifier(3, [4], 2, seed=2, batch_norm=True)
        x = rng.normal(0, 1, (8, 3))
        y = rng.integers(0, 2, 8)
        cfg = TrainingConfig(seed=0)
        net = trainer._Net(model, cfg)
        net.loss_and_grads(x, y, 0.0)
        eps = 1e-6
        for layer in net.layers:
            for pname, value, grad_fn in layer.params():
                grad = grad_fn().copy()
                flat = value.reshape(-1)
                idx = int(rng.integers(0, flat.size))
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = net.loss_and_grads(x, y, 0.0)
                flat[idx] = orig - eps
                down, _ = net.loss_and_grads(x, y, 0.0)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grad.reshape(-1)[idx]
                assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(numeric)), (
                    layer.name, pname)
