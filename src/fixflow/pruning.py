"""Iterative magnitude pruning, lottery-ticket rewinding, QAP, and BOPs.

Ranking is magnitude relative to the per-layer maximum: surviving weights
across all dense layers are sorted globally by ``|w| / max_layer|w|`` and
the smallest are zeroed until the requested global pruned fraction is
reached. Ties break on (layer index, flat weight index) so runs are
deterministic. Masks only ever grow; a pruned weight never revives.
Biases are never pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model_ir import ModelGraph, _with_dense_weights
from . import trainer as _trainer


def compute_bops(n: int, m: int, b_w: int, b_a: int, f_p: float) -> float:
    """Bit operations of one dense layer: m*n*((1-f_p)*b_a*b_w + b_a + b_w + log2(n)).

    log2 is the real-valued logarithm, as the formula is written.
    """
    if n < 1 or m < 1:
        raise ValueError("layer dimensions must be >= 1")
    if b_w < 1 or b_a < 1:
        raise ValueError("bit widths must be >= 1")
    if not 0.0 <= f_p <= 1.0:
        raise ValueError(f"pruned fraction must be in [0, 1], got {f_p}")
    return m * n * ((1.0 - f_p) * b_a * b_w + b_a + b_w + math.log2(n))


def dense_layer_dims(graph: ModelGraph):
    """(name, n_in, n_out) for every dense layer in chain order."""
    return [
        (node.name, node.param("weight").shape[1], node.param("weight").shape[0])
        for node in graph.nodes
        if node.kind == "dense"
    ]


def model_bops(graph: ModelGraph, state=None, bits=None) -> float:
    """Sum of per-dense-layer BOPs, with both operands ``bits`` wide.

    ``bits`` defaults to each layer's weight-spec width; pruned fractions
    come from the state's masks when given.
    """
    total = 0.0
    for name, n, m in dense_layer_dims(graph):
        b = graph.node(name).precision.weight.width_bits if bits is None else bits
        mask = None if state is None else state.masks.get(name)
        f_p = 0.0 if mask is None else 1.0 - _kept([mask]) / mask.size
        total += compute_bops(n, m, b, b, f_p)
    return total


def _kept(masks) -> int:
    """Entries the 0/1 masks keep. BOPs take a mask's pruned fraction as
    1 - kept / size and the history as (size - kept) / size: their last bits
    differ, and the artifacts pin both."""
    return sum(int(m.sum()) for m in masks)


@dataclass(frozen=True)
class PruneRecord:
    iteration: int
    fraction: float
    accuracy: float
    auc: float
    bops: float


@dataclass
class PruneState:
    masks: dict  # layer name -> 0/1 float array shaped like the weight
    initial_weights: dict  # layer name -> snapshot at initialization
    history: list = field(default_factory=list)

    @classmethod
    def fresh(cls, graph: ModelGraph) -> "PruneState":
        masks, initial = {}, {}
        for node in graph.nodes:
            if node.kind == "dense":
                w = node.param("weight").to_numpy()
                masks[node.name] = np.ones_like(w)
                initial[node.name] = w.copy()
        return cls(masks, initial)

    @property
    def total_weights(self) -> int:
        return sum(m.size for m in self.masks.values())

    @property
    def pruned_fraction(self) -> float:
        total = self.total_weights
        return (total - _kept(self.masks.values())) / total if total else 0.0


def rank_and_mask(model: ModelGraph, state: PruneState, fraction: float) -> PruneState:
    """Extend the masks until the global pruned fraction reaches ``fraction``.

    A layer whose surviving maximum is zero ranks all its weights first.
    Previously pruned entries stay pruned.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    current = state.pruned_fraction
    if fraction < current - 1e-12:
        raise ValueError(f"fraction {fraction} is below the already-pruned {current}")

    target_zeros = int(round(fraction * state.total_weights))
    needed = target_zeros - (state.total_weights - _kept(state.masks.values()))
    new_masks = {name: m.copy() for name, m in state.masks.items()}
    if needed <= 0:
        return PruneState(new_masks, state.initial_weights, list(state.history))

    # Survivors' normalized magnitudes in (layer, flat index) order.
    survivors, ratios = {}, []
    for node in model.nodes:
        if node.kind == "dense":
            kept = np.flatnonzero(state.masks[node.name].reshape(-1))
            w = np.abs(node.param("weight").to_numpy().reshape(-1))[kept]
            peak = w.max(initial=0.0)
            ratios.append(w / peak if peak > 0 else np.zeros(w.size))
            survivors[node.name] = kept
    ratio = np.concatenate(ratios)
    if needed > ratio.size:
        raise ValueError(f"cannot prune {needed} more weights: only {ratio.size} survivors remain")
    # The `needed` smallest by (ratio, layer, flat index), the set a stable
    # argsort would take, in O(n): every ratio below the needed-th smallest,
    # then the first entries equal to it in index order.
    kth = np.partition(ratio, needed - 1)[needed - 1]
    pruned = ratio < kth
    pruned[np.flatnonzero(ratio == kth)[:needed - np.count_nonzero(pruned)]] = True
    start = 0
    for name, kept in survivors.items():
        new_masks[name].reshape(-1)[kept[pruned[start:start + kept.size]]] = 0.0
        start += kept.size
    return PruneState(new_masks, state.initial_weights, list(state.history))


def apply_masks(model: ModelGraph, state: PruneState) -> ModelGraph:
    """Zero the masked weights in the graph itself (mask transparency)."""
    return _with_dense_weights(model, lambda node: node.param("weight").to_numpy() * state.masks[node.name]
                               if node.name in state.masks else None)


def rewind_to_initial(model: ModelGraph, state: PruneState) -> ModelGraph:
    """Reset surviving weights to their initialization snapshot."""
    return _with_dense_weights(model, lambda node: state.initial_weights[node.name] * state.masks[node.name]
                               if node.name in state.masks else None)


@dataclass(frozen=True)
class PruneSchedule:
    target_fraction: float
    increment: float = 0.10
    retrain_epochs: int = 20
    method: str = "l1_retrain"

    def __post_init__(self):
        if not 0.0 <= self.target_fraction <= 1.0:
            raise ValueError(f"target fraction (--target-fraction) is {self.target_fraction!r}, it must be in [0, 1]")
        if not self.increment > 0:
            raise ValueError(f"increment (--increment) is {self.increment!r}, it must be > 0")
        if self.target_fraction > 0 and self.increment > self.target_fraction:
            raise ValueError(f"increment (--increment) is {self.increment!r}, it must not exceed the target "
                             f"fraction (--target-fraction) {self.target_fraction!r}")
        if not 1 <= self.retrain_epochs <= _trainer.MAX_EPOCHS:
            raise ValueError(f"retrain epochs (--retrain-epochs) is {self.retrain_epochs}, "
                             f"it must be in 1..{_trainer.MAX_EPOCHS}")
        if self.method not in ("l1_retrain", "lt_rewind", "qap"):
            raise ValueError(f"unknown pruning method {self.method!r}")


def prune_iterative(model: ModelGraph, data, schedule: PruneSchedule,
                    cfg, eval_data=None, observer=None):
    """Drive mask growth and retraining until the target fraction.

    The model comes in at initialization; iteration 0 trains the dense
    baseline. ``l1_retrain`` continues from the trained weights with masks
    fixed; ``lt_rewind`` resets survivors to the initial snapshot before
    each retrain; ``qap`` is rewinding with quantization-aware retraining.
    At target fraction 0 the history is the baseline alone. Returns
    (model, state, history).
    """
    if schedule.method == "qap" and cfg.quantizers is None:
        raise ValueError("qap needs cfg.quantizers for the retrain step")
    eval_data = data if eval_data is None else eval_data
    state = PruneState.fresh(model)
    # Below one weight the loop would creep on, pruning nothing; at fraction 0 it takes no step.
    if schedule.target_fraction > 0 and schedule.increment * state.total_weights < 1:
        raise ValueError(f"increment (--increment) is {schedule.increment!r}, less than one of "
                         f"the model's {state.total_weights} prunable weights")
    train_fn = _trainer.train_qat if schedule.method == "qap" else _trainer.train

    def retrain(graph, state, epochs, step_seed):
        run_cfg = replace(cfg, epochs=epochs, masks=state.masks, seed=step_seed)
        return train_fn(graph, data, run_cfg)

    def record(iteration, graph, state):
        deployed = graph
        bits = None
        if schedule.method == "qap":
            # History reflects the deployed model: weights on the quantizer grid.
            deployed = _trainer.quantize_model_weights(graph, cfg.quantizers)
            if isinstance(cfg.quantizers, _trainer.QuantizerSpec):
                bits = cfg.quantizers.bits
        report = _trainer.evaluate(deployed, eval_data, arithmetic="real")
        entry = PruneRecord(iteration, state.pruned_fraction, report.accuracy,
                            report.mean_auc, model_bops(graph, state, bits))
        state.history.append(entry)
        if observer:
            observer("retrained", iteration, graph, state)

    graph, _ = retrain(model, state, cfg.epochs, cfg.seed)
    record(0, graph, state)

    iteration = 0
    fraction = 0.0
    while fraction < schedule.target_fraction - 1e-12:
        iteration += 1
        fraction = min(fraction + schedule.increment, schedule.target_fraction)
        state = rank_and_mask(graph, state, fraction)
        if schedule.method in ("lt_rewind", "qap"):
            graph = rewind_to_initial(graph, state)
            if observer:
                observer("rewound", iteration, graph, state)
        else:
            graph = apply_masks(graph, state)
        graph, _ = retrain(graph, state, schedule.retrain_epochs, cfg.seed + iteration)
        record(iteration, graph, state)
    return graph, state, state.history


def write_prune_history(history, path):
    """History CSV: the data behind a pruning-curve plot."""
    _trainer._write_csv(path, ["iteration", "pruned_fraction", "accuracy", "auc", "bops"], (
        [rec.iteration, repr(rec.fraction), repr(rec.accuracy), repr(rec.auc), repr(rec.bops)]
        for rec in history))
