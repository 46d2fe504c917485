import re
from dataclasses import replace

import numpy as np
import pytest

from fixflow import trainer
from fixflow.fixed_point import ROUND_HALF_UP, SATURATE, FixedPointSpec
from fixflow.model_ir import Tensor
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
        "adam", "adam_l1", "sgd", "sgd_l1", "masks", "batch_norm", "qat", "binary", "ternary"])
    def test_flat_update_equals_parameter_loop(self, monkeypatch, case):
        data = two_blob_data(n=160)
        model = build_classifier(2, [8, 6], 2, seed=3, batch_norm=case == "batch_norm")
        cfg = TrainingConfig(epochs=3, batch_size=32, seed=5, learning_rate=0.05,
                             optimizer="sgd" if case.startswith("sgd") else "adam",
                             l1_lambda=0.01 if case.endswith("_l1") else 0.0)
        if case == "masks":
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
                grad = grad_fn()
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
