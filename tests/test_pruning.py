import math
import random

import numpy as np
import pytest

from fixflow import pruning, trainer
from fixflow.pruning import (
    PruneSchedule,
    PruneState,
    apply_masks,
    compute_bops,
    model_bops,
    prune_iterative,
    rank_and_mask,
    rewind_to_initial,
)
from fixflow.model_ir import LayerNode, ModelGraph, Tensor
from fixflow.trainer import Dataset, QuantizerSpec, TrainingConfig, build_classifier, make_rng

from oracles import oracle_bops

JET_DIMS = [(16, 64), (64, 32), (32, 32), (32, 5)]


def one_layer_model(weights):
    w = np.asarray(weights, dtype=np.float64).reshape(1, -1)
    nodes = [
        LayerNode("input", "input"),
        LayerNode("d", "dense", {"weight": Tensor.from_numpy(w),
                                 "bias": Tensor.from_numpy(np.zeros(1))}),
    ]
    return ModelGraph.chain(nodes, (w.shape[1],))


def two_layer_model(w1, w2):
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    nodes = [
        LayerNode("input", "input"),
        LayerNode("d0", "dense", {"weight": Tensor.from_numpy(w1),
                                  "bias": Tensor.from_numpy(np.zeros(w1.shape[0]))}),
        LayerNode("d1", "dense", {"weight": Tensor.from_numpy(w2),
                                  "bias": Tensor.from_numpy(np.zeros(w2.shape[0]))}),
    ]
    return ModelGraph.chain(nodes, (w1.shape[1],))


class TestComputeBops:
    def test_fully_pruned_limit(self):
        assert compute_bops(16, 64, 6, 6, 1.0) == 64 * 16 * (6 + 6 + 4)

    def test_hand_arithmetic_example(self):
        assert compute_bops(16, 64, 6, 6, 0.8) == pytest.approx(23756.8, abs=0)

    def test_matches_oracle_randomized(self):
        rng = random.Random(3)
        for _ in range(300):
            n, m = rng.randint(1, 512), rng.randint(1, 512)
            b_w, b_a = rng.randint(1, 32), rng.randint(1, 32)
            f_p = rng.random()
            assert compute_bops(n, m, b_w, b_a, f_p) == oracle_bops(n, m, b_w, b_a, f_p)

    def test_strictly_monotone(self):
        base = compute_bops(16, 64, 6, 6, 0.5)
        assert compute_bops(16, 64, 6, 6, 0.6) < base
        assert compute_bops(16, 64, 7, 6, 0.5) > base
        assert compute_bops(16, 64, 6, 7, 0.5) > base
        assert compute_bops(17, 64, 6, 6, 0.5) > base
        assert compute_bops(16, 65, 6, 6, 0.5) > base

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            compute_bops(0, 1, 6, 6, 0.0)
        with pytest.raises(ValueError):
            compute_bops(1, 1, 0, 6, 0.0)
        with pytest.raises(ValueError):
            compute_bops(1, 1, 6, 6, 1.5)

    def test_jet_reduction_ratio(self):
        full = sum(compute_bops(n, m, 32, 32, 0.0) for n, m in JET_DIMS)
        compact = sum(compute_bops(n, m, 6, 6, 0.8) for n, m in JET_DIMS)
        assert 40 <= full / compact <= 55


class TestRankAndMask:
    def test_no_change_at_current_fraction(self):
        model = one_layer_model([0.1, 0.2, 0.3, 0.4])
        state = PruneState.fresh(model)
        state = rank_and_mask(model, state, 0.5)
        again = rank_and_mask(model, state, 0.5)
        assert (again.masks["d"] == state.masks["d"]).all()

    def test_sorts_by_magnitude(self):
        model = one_layer_model([0.1, 0.2, 0.3, 0.4])
        state = rank_and_mask(model, PruneState.fresh(model), 0.5)
        assert list(state.masks["d"].reshape(-1)) == [0.0, 0.0, 1.0, 1.0]

    def test_layer_normalized_ranking(self):
        # layer 2's 0.005 has ratio 0.5 and outlives layer 1's 0.3 (ratio 0.3)
        model = two_layer_model([[1.0, 0.3]], [[0.01, 0.005]])
        state = rank_and_mask(model, PruneState.fresh(model), 0.25)
        assert state.masks["d0"].reshape(-1)[1] == 0.0
        assert state.masks["d1"].reshape(-1)[1] == 1.0

    def test_monotone_masks(self):
        rng = make_rng(5)
        model = one_layer_model(rng.normal(0, 1, 40))
        state = PruneState.fresh(model)
        prev = state.masks["d"].copy()
        for fraction in (0.1, 0.3, 0.5, 0.8, 1.0):
            state = rank_and_mask(model, state, fraction)
            assert (state.masks["d"] <= prev).all()
            prev = state.masks["d"].copy()

    def test_achieved_fraction_tolerance(self):
        rng = make_rng(6)
        model = one_layer_model(rng.normal(0, 1, 97))
        for fraction in (0.1, 0.33, 0.66, 0.9):
            state = rank_and_mask(model, PruneState.fresh(model), fraction)
            assert abs(state.pruned_fraction - fraction) <= 1.0 / 97

    def test_all_zero_layer_pruned_first(self):
        model = two_layer_model([[0.0, 0.0]], [[0.5, 0.9]])
        state = rank_and_mask(model, PruneState.fresh(model), 0.5)
        assert list(state.masks["d0"].reshape(-1)) == [0.0, 0.0]
        assert list(state.masks["d1"].reshape(-1)) == [1.0, 1.0]

    def test_backward_fraction_rejected(self):
        model = one_layer_model([0.1, 0.2, 0.3, 0.4])
        state = rank_and_mask(model, PruneState.fresh(model), 0.5)
        with pytest.raises(ValueError):
            rank_and_mask(model, state, 0.25)

    def test_deterministic_tie_break(self):
        model = one_layer_model([0.5] * 6)
        state = rank_and_mask(model, PruneState.fresh(model), 0.5)
        assert list(state.masks["d"].reshape(-1)) == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


    def test_cross_layer_tie_prunes_earlier_layer_first(self):
        # Both layers hold ratio 0.5; d0's sits at a higher flat index than d1's.
        model = two_layer_model([[1.0, 0.5]], [[0.5, 1.0]])
        state = rank_and_mask(model, PruneState.fresh(model), 0.25)
        assert list(state.masks["d0"].reshape(-1)) == [1.0, 0.0]
        assert list(state.masks["d1"].reshape(-1)) == [1.0, 1.0]
        state = rank_and_mask(model, state, 0.5)
        assert list(state.masks["d1"].reshape(-1)) == [0.0, 1.0]

    def test_matches_tuple_sort_reference(self):
        rng = np.random.Generator(np.random.Philox(key=101))
        shapes = [(6, 5), (4, 6), (3, 4), (2, 3)]
        for trial in range(20):
            # Coarse weights tie often; d2 is all zero (peak 0).
            weights = [np.round(rng.normal(0, 1, s) * 4) / 4 for s in shapes]
            weights[2][:] = 0.0
            nodes = [LayerNode("input", "input")] + [
                LayerNode(f"d{k}", "dense", {"weight": Tensor.from_numpy(w),
                                             "bias": Tensor.from_numpy(np.zeros(w.shape[0]))})
                for k, w in enumerate(weights)]
            model = ModelGraph.chain(nodes, (5,))
            state = PruneState.fresh(model)
            for name, mask in state.masks.items():  # prior masks
                mask[rng.random(mask.shape) < 0.2] = 0.0
            if trial % 2:
                state.masks["d3"][:] = 0.0  # a layer without survivors
            fractions = sorted(rng.uniform(state.pruned_fraction, 1.0, 4)) + [1.0]
            for fraction in fractions:
                fraction = max(fraction, state.pruned_fraction)  # rounding may overshoot
                want = tuple_sort_reference(model, state, fraction)
                state = rank_and_mask(model, state, fraction)
                for name in want:
                    assert (state.masks[name] == want[name]).all(), (trial, fraction, name)

    def test_more_needed_than_survivors_rejected(self):
        # A mask of a layer the model lacks counts toward the total, but
        # none of its entries can be ranked.
        model = one_layer_model([0.1, 0.2])
        state = PruneState({"d": np.ones((1, 2)), "gone": np.ones((1, 6))}, {})
        with pytest.raises(ValueError, match="cannot prune 6 more weights: only 2 survivors remain"):
            rank_and_mask(model, state, 0.75)


class TestPartitionCut:
    """The O(n) cut of rank_and_mask prunes the set a stable argsort prunes."""

    @staticmethod
    def tied_model(rng, zero_layer=None):
        # Weights on a quarter grid, each layer peaking at 1.0, so ratios
        # tie within and across layers.
        weights = [rng.integers(-4, 5, shape) * 0.25 for shape in ((12, 10), (8, 12), (5, 8))]
        for w in weights:
            w.flat[rng.integers(w.size)] = -1.0
        if zero_layer is not None:
            weights[zero_layer][:] = 0.0
        nodes = [LayerNode("input", "input")] + [
            LayerNode(f"d{k}", "dense", {"weight": Tensor.from_numpy(w),
                                         "bias": Tensor.from_numpy(np.zeros(w.shape[0]))})
            for k, w in enumerate(weights)]
        return ModelGraph.chain(nodes, (10,))

    @staticmethod
    def assert_cut_matches(model, state, fraction):
        want = stable_argsort_reference(model, state, fraction)
        got = rank_and_mask(model, state, fraction)
        for name in want:
            assert (got.masks[name] == want[name]).all(), (fraction, name)
        return got

    @pytest.mark.parametrize("zero_layer", [None, 0, 1])
    def test_coarse_grid_ties_across_layers(self, zero_layer):
        rng = np.random.Generator(np.random.Philox(key=181))
        for _ in range(5):
            model = self.tied_model(rng, zero_layer)
            for fraction in np.linspace(0.0, 1.0, 23):
                self.assert_cut_matches(model, PruneState.fresh(model), fraction)

    def test_cut_inside_a_block_of_ties(self):
        rng = np.random.Generator(np.random.Philox(key=182))
        model = self.tied_model(rng)
        ratio = np.concatenate([np.abs(n.param("weight").to_numpy().reshape(-1))
                                for n in model.nodes if n.kind == "dense"])
        total = ratio.size
        for level in (0.0, 0.25, 0.5, 0.75, 1.0):
            below, block = np.count_nonzero(ratio < level), np.count_nonzero(ratio == level)
            assert block >= 4
            for into in (1, block // 2, block - 1):  # the cut falls strictly inside the block
                self.assert_cut_matches(model, PruneState.fresh(model), (below + into) / total)

    def test_repeated_calls_on_one_state(self):
        rng = np.random.Generator(np.random.Philox(key=183))
        model = self.tied_model(rng)
        state = PruneState.fresh(model)
        first = self.assert_cut_matches(model, state, 0.3)
        again = self.assert_cut_matches(model, state, 0.3)
        assert all((first.masks[k] == again.masks[k]).all() for k in first.masks)
        assert all((m == 1.0).all() for m in state.masks.values())
        for fraction in (0.45, 0.45, 0.6, 0.8, 0.95, 1.0):
            model = apply_masks(self.tied_model(rng), first)  # retrained weights, same masks
            first = self.assert_cut_matches(model, first, fraction)


def stable_argsort_reference(model, state, fraction):
    """Masks after a stable argsort of the survivors' ratios in (layer, flat index) order."""
    needed = int(round(fraction * state.total_weights)) - sum(
        m.size - int(m.sum()) for m in state.masks.values())
    ratios, owners = [], []
    for node in model.nodes:
        if node.kind == "dense":
            kept = np.flatnonzero(state.masks[node.name].reshape(-1))
            w = np.abs(node.param("weight").to_numpy().reshape(-1))[kept]
            peak = w.max(initial=0.0)
            ratios.append(w / peak if peak > 0 else np.zeros(w.size))
            owners += [(node.name, i) for i in kept]
    masks = {name: m.copy() for name, m in state.masks.items()}
    for j in np.argsort(np.concatenate(ratios), kind="stable")[:max(needed, 0)]:
        name, i = owners[j]
        masks[name].reshape(-1)[i] = 0.0
    return masks


def tuple_sort_reference(model, state, fraction):
    """Masks after ranking one (ratio, layer index, flat index) tuple per survivor."""
    needed = int(round(fraction * state.total_weights)) - sum(
        m.size - int(m.sum()) for m in state.masks.values())
    candidates = []
    for layer_idx, node in enumerate(n for n in model.nodes if n.kind == "dense"):
        w = np.abs(node.param("weight").to_numpy().reshape(-1))
        survivors = [i for i, keep in enumerate(state.masks[node.name].reshape(-1)) if keep]
        peak = max((float(w[i]) for i in survivors), default=0.0)
        candidates += [(float(w[i]) / peak if peak > 0 else 0.0, layer_idx, i, node.name)
                       for i in survivors]
    masks = {name: m.copy() for name, m in state.masks.items()}
    for _, _, i, name in sorted(candidates)[:max(needed, 0)]:
        masks[name].reshape(-1)[i] = 0.0
    return masks


class TestMaskSemantics:
    def test_mask_transparency(self):
        rng = make_rng(8)
        model = two_layer_model(rng.normal(0, 1, (6, 4)), rng.normal(0, 1, (2, 6)))
        state = rank_and_mask(model, PruneState.fresh(model), 0.5)
        masked = apply_masks(model, state)
        x = rng.normal(0, 1, (10, 4))
        got = trainer.forward_real(masked, x)
        zeroed = apply_masks(model, state)  # literal zeros in the weights
        assert (trainer.forward_real(zeroed, x) == got).all()
        kept = state.masks["d0"] == 1.0
        w = masked.node("d0").param("weight").to_numpy()
        assert (w[~kept] == 0.0).all()

    def test_rewind_restores_initial_values(self):
        rng = make_rng(9)
        model = two_layer_model(rng.normal(0, 1, (6, 4)), rng.normal(0, 1, (2, 6)))
        state = PruneState.fresh(model)
        shuffled = two_layer_model(rng.normal(0, 1, (6, 4)), rng.normal(0, 1, (2, 6)))
        state = rank_and_mask(shuffled, state, 0.4)
        rewound = rewind_to_initial(shuffled, state)
        for name in ("d0", "d1"):
            w = rewound.node(name).param("weight").to_numpy()
            keep = state.masks[name] == 1.0
            assert (w[keep] == state.initial_weights[name][keep]).all()
            assert (w[~keep] == 0.0).all()


class TestPruneIterative:
    def small_setup(self):
        data = trainer.synthetic_task(seed=4, n_samples=300, n_features=4, n_classes=2,
                                      sample_seed=41)
        model = build_classifier(4, [8], 2, seed=2)
        return model, data

    def test_target_zero_trains_the_baseline(self):
        # An increment below one weight is no error here: no step takes it.
        model, data = self.small_setup()
        cfg = TrainingConfig(epochs=5, seed=1)
        out, state, history = prune_iterative(
            model, data, PruneSchedule(target_fraction=0.0, increment=1e-3), cfg)
        baseline, _ = trainer.train(model, data, cfg)
        for node in baseline.nodes:
            for key, t in node.params.items():
                assert (out.node(node.name).param(key).to_numpy() == t.to_numpy()).all()
        assert [(rec.iteration, rec.fraction) for rec in history] == [(0, 0.0)]
        assert state.pruned_fraction == 0.0

    def test_lt_rewind_exactness_every_iteration(self):
        model, data = self.small_setup()
        cfg = TrainingConfig(epochs=10, seed=1)
        initial = {n.name: n.param("weight").to_numpy()
                   for n in model.nodes if n.kind == "dense"}
        events = []

        def observer(event, iteration, graph, state):
            if event != "rewound":
                return
            for name, init_w in initial.items():
                w = graph.node(name).param("weight").to_numpy()
                keep = state.masks[name] == 1.0
                assert (w[keep] == init_w[keep]).all()
            events.append(iteration)

        sched = PruneSchedule(target_fraction=0.5, increment=0.25, retrain_epochs=5,
                              method="lt_rewind")
        prune_iterative(model, data, sched, cfg, observer=observer)
        assert events == [1, 2]

    def test_mask_monotone_across_iterations(self):
        model, data = self.small_setup()
        cfg = TrainingConfig(epochs=8, seed=1)
        snapshots = []

        def observer(event, iteration, graph, state):
            if event == "retrained":
                snapshots.append({k: v.copy() for k, v in state.masks.items()})

        sched = PruneSchedule(target_fraction=0.6, increment=0.2, retrain_epochs=4,
                              method="l1_retrain")
        prune_iterative(model, data, sched, cfg, observer=observer)
        for earlier, later in zip(snapshots, snapshots[1:]):
            for name in earlier:
                assert (later[name] <= earlier[name]).all()

    def test_history_columns_and_fractions(self):
        model, data = self.small_setup()
        cfg = TrainingConfig(epochs=8, seed=1)
        sched = PruneSchedule(target_fraction=0.4, increment=0.2, retrain_epochs=4,
                              method="l1_retrain")
        _, state, history = prune_iterative(model, data, sched, cfg)
        total = state.total_weights
        for record, want in zip(history, [0.0, 0.2, 0.4]):
            assert abs(record.fraction - want) <= 1.0 / total
        assert all(r.bops > 0 and 0 <= r.accuracy <= 1 for r in history)
        assert history[-1].bops < history[0].bops

    def test_qap_requires_quantizers(self):
        model, data = self.small_setup()
        cfg = TrainingConfig(epochs=5, seed=1)
        with pytest.raises(ValueError):
            prune_iterative(model, data,
                            PruneSchedule(target_fraction=0.2, method="qap"), cfg)

    def test_history_csv(self, tmp_path):
        model, data = self.small_setup()
        cfg = TrainingConfig(epochs=5, seed=1)
        sched = PruneSchedule(target_fraction=0.2, increment=0.2, retrain_epochs=3)
        _, _, history = prune_iterative(model, data, sched, cfg)
        path = tmp_path / "history.csv"
        pruning.write_prune_history(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,pruned_fraction,accuracy,auc,bops"
        assert len(lines) == len(history) + 1


class TestScheduleValidation:
    def test_rejects_bad_increment(self):
        with pytest.raises(ValueError):
            PruneSchedule(target_fraction=0.5, increment=0.0)
        with pytest.raises(ValueError):
            PruneSchedule(target_fraction=0.2, increment=0.5)
        with pytest.raises(ValueError):
            PruneSchedule(target_fraction=1.5)
        with pytest.raises(ValueError):
            PruneSchedule(target_fraction=0.5, method="magic")


class TestModelBops:
    def test_uses_mask_fractions(self):
        rng = make_rng(31)
        model = two_layer_model(rng.normal(0, 1, (4, 4)), rng.normal(0, 1, (2, 4)))
        state = rank_and_mask(model, PruneState.fresh(model), 0.5)
        got = model_bops(model, state, bits=6)
        want = 0.0
        for name, n, m in pruning.dense_layer_dims(model):
            mask = state.masks[name]
            f_p = 1.0 - mask.sum() / mask.size
            want += oracle_bops(n, m, 6, 6, f_p)
        assert got == want
