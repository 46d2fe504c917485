"""Deterministic small-scale training engine for chain MLPs.

Supports dense / ReLU / batch-norm / softmax chains with backprop,
SGD or Adam, L1 regularization, pruning masks, and quantization-aware
training via the straight-through estimator: the forward pass applies
the weight quantizers and the activation quantizers, the backward pass
treats each as identity, and the gradient is clipped to zero where the
master weight or the activation falls outside its quantizer's
representable range. The input's activation grid is applied once per
``train`` call, to the whole dataset; every step starts after it. A ReLU
between two fixed-mode activation quantizers with nested grids (one
power-of-two alpha, the incoming step a multiple of the outgoing one)
trains as one layer, ``_QuantRelu``: a ReLU output on the incoming grid
lies on the outgoing one, which only clamps it, so the fusion is exact.

Training arithmetic is binary64 throughout; the forward weights and the
chosen layer outputs are quantized, the master weights stay real-valued.
All randomness flows from a Philox counter-based generator keyed by the
config seed, and summation order is fixed, so identical seeds give
bit-identical trajectories.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import orjson

from .fixed_point import MAX_SPEC_WIDTH, ROUND_HALF_UP, SATURATE, FixedPointSpec, round_scaled
from .model_ir import (LayerNode, ModelGraph, PrecisionSet, Tensor, _with_dense_weights, format_rows,
                       open_output, walk)
from . import kernels

BN_MOMENTUM = 0.9
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
FIXED_EVAL_LIMIT = 1000  # evaluation rows of ptq_qat_scan's bit-accurate runs
MAX_EPOCHS = 2**63 - 1  # an int64 count; a larger one would run for ever


class TrainingDivergedError(RuntimeError):
    pass


class EvaluationError(ValueError):
    pass


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator; streams are stable across platforms."""
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))


@dataclass(frozen=True)
class QuantizerSpec:
    """Weight quantizer: values live on alpha * fixed<bits,integer_bits> grid.

    The fixed mode rounds half up and saturates onto ``spec``,
    fixed<bits,integer_bits,rnd,sat>, through ``round_scaled`` as
    ``Tensor.quantized`` does: with alpha = 1 it equals ``Tensor.quantized(spec)``.
    binary maps to {-alpha, +alpha} (sign(0) = +1) and ternary to
    {-alpha, 0, +alpha} with a dead band of alpha/2 around zero; their bit
    counts are fixed at 1 and 2.
    """

    bits: int
    integer_bits: int = 1
    alpha: float = 1.0
    mode: str = "fixed"

    def __post_init__(self):
        if self.mode not in ("fixed", "binary", "ternary"):
            raise ValueError(f"unknown quantizer mode {self.mode!r}")
        if self.mode == "binary":
            object.__setattr__(self, "bits", 1)
        elif self.mode == "ternary":
            object.__setattr__(self, "bits", 2)
        if not 1 <= self.bits <= MAX_SPEC_WIDTH:
            raise ValueError(f"quantizer bits (--bits) is {self.bits}, it must be in 1..{MAX_SPEC_WIDTH}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"quantizer alpha (--alpha) is {self.alpha!r}, it must be finite and > 0")
        # The fixed mode's grid, the real value of one raw step on it (alpha
        # scaled) and the real limits, built once for every apply.
        spec, step, limits = None, None, (-self.alpha, self.alpha)
        if self.mode == "fixed":
            spec = FixedPointSpec(self.bits, self.integer_bits, rounding=ROUND_HALF_UP, overflow=SATURATE)
            try:
                step = math.ldexp(self.alpha, -spec.fraction_bits)
            except OverflowError:
                step = math.inf
            limits = (spec.min_raw * step, spec.max_raw * step)
            if not (sys.float_info.min <= step and math.isfinite(limits[0])):  # |min_raw| > max_raw
                raise ValueError(f"quantizer integer bits (--integer-bits) is {self.integer_bits}: at {self.bits} "
                                 f"bits and alpha (--alpha) {self.alpha!r}, the grid leaves the normal floats")
        for name, value in (("spec", spec), ("_step", step), ("_limits", limits)):
            object.__setattr__(self, name, value)

    def apply(self, w: np.ndarray) -> np.ndarray:
        if self.mode == "binary":
            return np.where(w >= 0, self.alpha, -self.alpha)
        if self.mode == "ternary":
            band = self.alpha / 2
            return np.where(w >= band, self.alpha, np.where(w <= -band, -self.alpha, 0.0))
        return _fixed_fake_quant(w, self._step, *self._limits)[0]

    def in_range(self, w: np.ndarray) -> np.ndarray:
        lo, hi = self._limits
        return (w >= lo) & (w <= hi)

    def fake_quant(self, x: np.ndarray):
        """``(apply(x), in_range(x))``, bit for bit: the forward value and the STE mask."""
        if self.mode != "fixed":
            return self.apply(x), self.in_range(x)
        return _fixed_fake_quant(x, self._step, *self._limits)


def _nested(q_in, q_out):
    """Whether every value on ``q_in``'s grid, past a ReLU, is on ``q_out``'s:
    both fixed mode with one power-of-two alpha, so both steps are powers
    of two, and ``q_in``'s step a multiple of ``q_out``'s."""
    return (q_in.mode == q_out.mode == "fixed" and q_in.alpha == q_out.alpha
            and math.frexp(q_in.alpha)[0] == 0.5 and q_in._step >= q_out._step)


def _fixed_fake_quant(x, step, lo, hi):
    """The fixed mode's forward value and STE mask (``in_range``) of ``x``.

    The value is ``Tensor.quantized`` on the quantizer's spec, in floats:
    x / step rounded half up by ``round_scaled``'s rule, times the step,
    clamped to the real limits. ``step`` and the real limits ``lo`` and
    ``hi`` are scalars, or vectors with one entry per element of ``x`` (the
    stacked weights of several layers). Clamping the scaled raws equals
    clamping the raws: the limits are the raw limits times the step, and a
    rounded product keeps the order of its factors. Clamping x before
    rounding would not: where x / step overflows, the value is NaN, and
    that clamp would give the limit.
    """
    values = round_scaled(x / step, ROUND_HALF_UP)
    values *= step
    np.maximum(values, lo, out=values)
    np.minimum(values, hi, out=values)
    mask = x >= lo
    mask &= x <= hi
    return values, mask


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.01
    optimizer: str = "adam"
    epochs: int = 50
    batch_size: int = 64
    l1_lambda: float = 0.0
    seed: int = 0
    quantizers: object = None  # QuantizerSpec or {layer name: QuantizerSpec}
    activation_quantizers: dict = None  # {layer name: QuantizerSpec} on outputs
    masks: dict = None  # {layer name: 0/1 array shaped like the weight}

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate (--learning-rate) is {self.learning_rate!r}, it must be finite and > 0")
        if not 1 <= self.epochs <= MAX_EPOCHS:
            raise ValueError(f"epochs (--epochs) is {self.epochs}, it must be in 1..{MAX_EPOCHS}")
        if self.batch_size < 1:
            raise ValueError(f"batch size (--batch-size) is {self.batch_size}, it must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (math.isfinite(self.l1_lambda) and self.l1_lambda >= 0):
            raise ValueError(f"L1 lambda (--l1-lambda) is {self.l1_lambda!r}, it must be finite and >= 0")

    def quantizer_for(self, layer_name: str):
        if self.quantizers is None:
            return None
        if isinstance(self.quantizers, QuantizerSpec):
            return self.quantizers
        return self.quantizers.get(layer_name)


@dataclass
class Dataset:
    features: np.ndarray  # [N, d] float64
    labels: np.ndarray  # [N] int
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.labels) != len(self.features):
            raise ValueError("features must be [N, d] with matching labels")
        if self.labels.size and not (0 <= self.labels.min() and self.labels.max() < self.class_count):
            raise ValueError("labels must lie in [0, class_count)")

    def __len__(self) -> int:
        return len(self.labels)


def load_csv_dataset(path) -> Dataset:
    """CSV with a header row, feature columns, then an integer label column.

    A bad row raises ValueError naming ``<path>:<line>``: another width than
    the header, a feature that is not a finite number, or a label that
    ``int()`` does not parse or that is negative or past int64. A file without
    data rows raises too.

    The file is read once. Text without ``"`` goes through ``_read_number_rows``;
    any text that it does not take bit for bit goes through ``csv`` in
    ``_read_csv_rows``, which words every error.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    line = text.partition("\n")[0].partition("\r")[0]
    header = line.split(",")  # csv's split of a line without quotes
    fast = None
    if '"' not in text and header[-1].strip() == "label" and len(line) <= csv.field_size_limit():
        fast = _read_number_rows(text, len(line), len(header), labelled=True)
    features, labels = fast or _read_csv_rows(io.StringIO(text, newline=""), path)
    return Dataset(features, labels, int(labels.max()) + 1)


def _read_csv_rows(fh, path):
    """``(features, labels)`` of the CSV text in ``fh``, read by ``csv`` one row at a time."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if not header or header[-1].strip() != "label":
        raise ValueError(f"{path}: last column must be named 'label'")
    feats, labels, lines = [], [], []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} columns, the header has {len(header)}")
            x, label = list(map(float, row[:-1])), int(row[-1])
            if label < 0:
                raise ValueError(f"label {label} is negative")
            if label >= 2**63:
                raise ValueError(f"label {label} is past the int64 range")
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        feats.append(x)
        labels.append(label)
        lines.append(reader.line_num)
    if not feats:
        raise ValueError(f"{path}: no data rows")
    features = np.array(feats, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{lines[bad[0]]}: non-finite feature in {feats[bad[0]]}")
    return features, np.array(labels, dtype=np.int64)


_READ_BLOCK_CHARS = 1 << 16  # of text per orjson call in _read_number_rows


def _line_blocks(text, start):
    """The non-blank lines of ``text[start:]``, in blocks cut after a ``\\n`` some
    ``_READ_BLOCK_CHARS`` on. Lines end at ``\\r\\n``, ``\\r`` and ``\\n``, as ``csv``
    ends them: each ``\\r`` reads as ``\\n``, which adds only blank lines. ``str.splitlines``
    would also end them at ``\\x0c``, ``\\x85`` and other characters that ``csv`` keeps
    in a field."""
    while start < len(text):
        end = text.find("\n", start + _READ_BLOCK_CHARS) + 1 or len(text)
        yield list(filter(None, text[start:end].replace("\r", "\n").split("\n")))
        start = end


def _read_number_rows(text, start=0, width=None, labelled=False):
    """``(features, labels)`` of the non-blank lines of ``text[start:]``, when orjson reads
    each line as ``width`` comma-separated numbers (``None``: the first line's count) that
    ``float()`` reads the same bit for bit: JSON floats, all finite, and with ``labelled``
    a last JSON int >= 0, the label (``labels`` is None without). A JSON int feature does
    not qualify: orjson reads ``-0`` as 0, ``float`` as -0.0.

    Returns None for any other text, for text without rows and for a line longer than
    ``csv.field_size_limit()`` (``csv`` refuses a longer field): the caller's loop then
    reads the same text and words the error. Each block of lines is float64 before the
    next decodes, so few Python floats are alive at once.
    """
    feats, labels = [], []
    for lines in _line_blocks(text, start):
        if not lines:
            continue
        if max(map(len, lines)) > csv.field_size_limit():
            return None
        try:
            rows = orjson.loads("[[" + "],[".join(lines) + "]]")
        except orjson.JSONDecodeError:
            return None
        width = width or len(rows[0])
        # One row of scalars per line: so no bracket of the JSON came from the text.
        kinds = list(map(type, itertools.chain.from_iterable(rows)))
        if (not width or len(rows) != len(lines) or set(map(len, rows)) != {width}
                or kinds.count(float) != len(rows) * (width - labelled)):
            return None
        if labelled:
            if kinds[width - 1::width].count(int) != len(rows):
                return None
            try:
                labels.append(np.array(list(map(list.pop, rows)), dtype=np.int64))
            except OverflowError:  # past int64: the loop names the line
                return None
            if labels[-1].min() < 0:
                return None
        feats.append(np.array(rows, dtype=np.float64))
        if not np.isfinite(feats[-1]).all():
            return None
    if not feats:
        return None
    return np.concatenate(feats), np.concatenate(labels) if labelled else None


_CSV_BLOCK_VALUES = 1 << 12  # of features per orjson call in save_csv_dataset


def _write_csv(path, header, rows):
    """Write a CSV artifact: the header row, then each row of cells."""
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv_dataset(dataset: Dataset, path):
    """Write ``dataset`` as ``_write_csv`` writes ``[*map(repr, x), y]`` rows under an
    ``f0,...,label`` header. orjson formats a block of rows per call, and ``repr`` each row
    holding a feature that orjson writes otherwise (``format_rows``)."""
    width = dataset.features.shape[1]
    step = max(1, _CSV_BLOCK_VALUES // max(1, width))
    sep = b"," if width else b""
    with open_output(path, newline="") as fh:
        fh.write(",".join([f"f{i}" for i in range(width)] + ["label"]) + "\r\n")
        for start in range(0, len(dataset), step):
            rows = format_rows(dataset.features[start:start + step], b",")
            labels = orjson.dumps(dataset.labels[start:start + step].tolist())[1:-1].split(b",")
            fh.write((b"\r\n".join(map(sep.join, zip(rows, labels))) + b"\r\n").decode())


def synthetic_task(seed: int = 7, n_samples: int = 2000, n_features: int = 16,
                   n_classes: int = 5, sample_seed: int = None) -> Dataset:
    """Gaussian-blob classification shaped like the bundled 16-feature task.

    ``seed`` fixes the task itself (class means, per-feature scales);
    ``sample_seed`` fixes the draw, so train/test splits share one task.
    Per-feature scales span several octaves so useful weights cover a wide
    dynamic range, which is what makes narrow post-training quantization
    visibly lossy on this task.
    """
    task_rng = make_rng(seed)
    means = task_rng.normal(0.0, 1.0, (n_classes, n_features))
    feature_scale = 2.0 ** task_rng.uniform(-2.0, 2.0, n_features)
    draw_rng = make_rng(seed if sample_seed is None else sample_seed)
    labels = draw_rng.integers(0, n_classes, n_samples)
    noise = draw_rng.normal(0.0, 1.0, (n_samples, n_features))
    features = (means[labels] + noise) * feature_scale
    return Dataset(features, labels, n_classes)


def init_dense_params(rng: np.random.Generator, n_out: int, n_in: int):
    """Glorot-uniform weights in +/- sqrt(6/(fan_in+fan_out)), zero bias."""
    limit = math.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, (n_out, n_in)), np.zeros(n_out)


def build_classifier(n_features: int, hidden, n_classes: int, seed: int = 0,
                     batch_norm: bool = False) -> ModelGraph:
    """Initialized dense/ReLU classifier chain ending in softmax, at the default precision."""
    rng = make_rng(seed)
    nodes = [LayerNode("input", "input")]
    widths = list(hidden) + [n_classes]
    in_width = n_features
    for i, width in enumerate(widths):
        w, b = init_dense_params(rng, width, in_width)
        nodes.append(LayerNode(f"dense{i}", "dense", {"weight": Tensor.from_numpy(w),
                                                      "bias": Tensor.from_numpy(b)}))
        if batch_norm and i < len(widths) - 1:
            c = width
            nodes.append(LayerNode(f"bn{i}", "batch_norm", {
                "gamma": Tensor.from_numpy(np.ones(c)),
                "beta": Tensor.from_numpy(np.zeros(c)),
                "moving_mean": Tensor.from_numpy(np.zeros(c)),
                "moving_variance": Tensor.from_numpy(np.ones(c)),
                "epsilon": Tensor.scalar(1e-3),
            }))
        if i < len(widths) - 1:
            nodes.append(LayerNode(f"relu{i}", "relu"))
        in_width = width
    nodes.append(LayerNode("softmax", "softmax"))
    return ModelGraph.chain(nodes, (n_features,))


class _Dense:
    """A dense layer. ``_Net._quantize_weights`` sets its forward weight
    ``_w_eff`` and its STE mask ``_ste`` (None without a quantizer), and
    ``_Net`` sets ``_head`` on its first layer with parameters."""

    _head = False

    def __init__(self, node: LayerNode, quantizer, mask):
        self.name = node.name
        self.w = node.param("weight").to_numpy()
        self.b = node.param("bias").to_numpy()
        self.quantizer = quantizer
        self.mask = None if mask is None else np.asarray(mask, dtype=np.float64)
        if self.mask is not None:
            if self.mask.shape != self.w.shape:
                raise ValueError(f"{self.name}: mask shape {self.mask.shape} != weight shape {self.w.shape}")
            self.w *= self.mask  # pruned masters are pinned at zero

    def forward(self, x, owned):
        self._x = x
        out = np.dot(x, self._w_eff.T)
        out += self.b
        return out

    def backward(self, dy):
        np.dot(dy.T, self._x, out=self.dw)
        if self._ste is not None:
            self.dw *= self._ste  # STE with range clipping
        if self.mask is not None:
            self.dw *= self.mask
        np.add.reduce(dy, axis=0, out=self.db)
        return None if self._head else np.dot(dy, self._w_eff)

    def params(self):
        return [("w", self.w, lambda: self.dw), ("b", self.b, lambda: self.db)]


class _BatchNorm:
    def __init__(self, node: LayerNode):
        self.name = node.name
        if "scale" in node.params:
            raise ValueError(f"{self.name}: cannot train a constant-folded batch_norm")
        self.gamma = node.param("gamma").to_numpy().reshape(-1)
        self.beta = node.param("beta").to_numpy().reshape(-1)
        self.moving_mean = node.param("moving_mean").to_numpy().reshape(-1)
        self.moving_var = node.param("moving_variance").to_numpy().reshape(-1)
        self.eps = node.param("epsilon").to_numpy().item()

    def forward(self, x, owned):
        """Normalize by the batch statistics and fold them into the moving ones:
        every forward trains, inference runs ``_forward_layers``."""
        mean = x.mean(axis=0)
        var = x.var(axis=0)  # biased, matching the inference-time estimate
        self.moving_mean = BN_MOMENTUM * self.moving_mean + (1 - BN_MOMENTUM) * mean
        self.moving_var = BN_MOMENTUM * self.moving_var + (1 - BN_MOMENTUM) * var
        self._istd = 1.0 / np.sqrt(var + self.eps)
        self._xhat = (x - mean) * self._istd
        return self.gamma * self._xhat + self.beta

    def backward(self, dy):
        n = dy.shape[0]
        np.add.reduce(dy * self._xhat, axis=0, out=self.dgamma)
        np.add.reduce(dy, axis=0, out=self.dbeta)
        dxhat = dy * self.gamma
        return self._istd * (
            dxhat - dxhat.mean(axis=0) - self._xhat * (dxhat * self._xhat).mean(axis=0)
        ) if n > 0 else dy

    def params(self):
        return [("gamma", self.gamma, lambda: self.dgamma), ("beta", self.beta, lambda: self.dbeta)]


class _Masked:
    """A layer without parameters whose backward keeps dy where its forward's ``_mask`` holds."""

    def backward(self, dy):
        dy *= self._mask  # no other layer holds dy
        return dy

    def params(self):
        return []


class _Relu(_Masked):
    def __init__(self, node):
        self.name = node.name

    def forward(self, x, owned):
        self._mask = x > 0
        return np.multiply(x, self._mask, out=x if owned else None)


class _FakeQuant(_Masked):
    """STE fake-quantization of a layer output (activation grid)."""

    def __init__(self, name, quantizer):
        self.name = f"{name}.quant"
        self.quantizer = quantizer

    def forward(self, x, owned):
        out, self._mask = self.quantizer.fake_quant(x)
        return out


class _QuantRelu(_Masked):
    """``_FakeQuant(q_in)``, ``_Relu``, ``_FakeQuant(q_out)`` bit for bit, where
    ``_nested(q_in, q_out)``: x on q_in's grid, clamped to [0, min(hi_in,
    hi_out)]. The STE mask is the three masks' product: x <= hi_in, a
    positive value (so x >= lo_in) and x's grid value <= hi_out."""

    def __init__(self, name, q_in, q_out):
        self.name = name
        self._step, self._hi_in, self._hi_out = q_in._step, q_in._limits[1], q_out._limits[1]
        self._hi = min(self._hi_in, self._hi_out)

    def forward(self, x, owned):
        values = round_scaled(x / self._step, ROUND_HALF_UP)
        values *= self._step
        self._mask = values <= self._hi_out
        self._mask &= x <= self._hi_in
        np.maximum(values, 0.0, out=values)
        np.minimum(values, self._hi, out=values)
        self._mask &= values > 0
        return values


class _Net:
    """Numpy mirror of a chain graph; softmax+cross-entropy handled jointly."""

    def __init__(self, graph: ModelGraph, cfg: TrainingConfig):
        self.layers = []
        act_quant = cfg.activation_quantizers or {}
        for node, *_ in walk(graph):
            if node.kind == "dense":
                self.layers.append(_Dense(node, cfg.quantizer_for(node.name),
                                          None if cfg.masks is None else cfg.masks.get(node.name)))
            elif node.kind == "batch_norm":
                self.layers.append(_BatchNorm(node))
            elif node.kind == "relu":
                self.layers.append(_Relu(node))
            elif node.kind == "softmax":
                continue
            elif node.kind != "input":
                raise ValueError(f"layer {node.name!r}: kind {node.kind!r} is not trainable")
            if node.name in act_quant:
                q = act_quant[node.name]
                before = self.layers[-2] if node.kind == "relu" and len(self.layers) > 1 else None
                if isinstance(before, _FakeQuant) and _nested(before.quantizer, q):
                    self.layers[-2:] = [_QuantRelu(node.name, before.quantizer, q)]
                else:
                    self.layers.append(_FakeQuant(node.name, q))
        # Every trainable array becomes a view of one flat buffer, and its
        # gradient ("d" + name) a view of one laid out alike, which backward
        # writes in place: the optimizer updates them all with one set of
        # elementwise calls.
        params = [(layer, *param) for layer in self.layers for param in layer.params()]
        self.theta = np.concatenate([value for _, _, value, _ in params] or [np.empty(0)], axis=None)
        self.grad = np.zeros_like(self.theta)
        start = 0
        for layer, name, value, _ in params:
            for prefix, flat in (("", self.theta), ("d", self.grad)):
                setattr(layer, prefix + name, flat[start:start + value.size].reshape(value.shape))
            start += value.size
        # Backward stops at the first layer with parameters, and that layer
        # returns no dx: the layers before it have nothing to train.
        self._first = self.layers.index(params[0][0]) if params else len(self.layers)
        if params:
            params[0][0]._head = True
        # The fixed-mode weight quantizers run as one call on the stacked
        # masters, with each layer's step and real limits repeated over its
        # weights; binary and ternary layers quantize their own.
        self._dense = self.dense_layers()
        self._stacked = [l for l in self._dense if l.quantizer is not None and l.quantizer.mode == "fixed"]
        self._per_layer = [l for l in self._dense if l not in self._stacked]
        self._masked = [l for l in self._dense if l.mask is not None]
        sizes = [l.w.size for l in self._stacked]
        self._parts = [(slice(end - size, end), l.w.shape)
                       for l, size, end in zip(self._stacked, sizes, itertools.accumulate(sizes))]
        self._grid = [np.repeat(np.array(values, dtype=np.float64), sizes)
                      for values in zip(*[(l.quantizer._step, *l.quantizer._limits) for l in self._stacked])]
        self._quantize_weights()  # so a layer's forward also runs outside loss_and_grads

    def _quantize_weights(self):
        """Set each dense layer's forward weight and STE mask from its master."""
        if self._stacked:
            w, ste = _fixed_fake_quant(np.concatenate([l.w for l in self._stacked], axis=None), *self._grid)
            for layer, (part, shape) in zip(self._stacked, self._parts):
                layer._w_eff, layer._ste = w[part].reshape(shape), ste[part].reshape(shape)
        for layer in self._per_layer:
            q = layer.quantizer
            layer._w_eff, layer._ste = (layer.w, None) if q is None else q.fake_quant(layer.w)
        for layer in self._masked:
            layer._w_eff = layer._w_eff * layer.mask

    def loss_and_grads(self, x, y, l1_lambda, start=0):
        """Mean softmax cross-entropy plus l1_lambda * sum |w|; fills ``grad``.

        The rows ``x`` enter at layer ``start``; the weights are quantized first.
        A layer may overwrite its input unless that is ``x`` itself.
        """
        self._quantize_weights()
        for i, layer in enumerate(self.layers[start:]):
            x = layer.forward(x, i > 0)
        shifted = x - x.max(axis=1, keepdims=True)
        log_z = np.exp(shifted).sum(axis=1)
        np.log(log_z, out=log_z)
        probs = shifted - log_z[:, None]
        np.exp(probs, out=probs)
        n, rows = len(y), np.arange(len(y))
        data_loss = float((log_z - shifted[rows, y]).mean())
        penalty = 0.0
        grad = probs.copy()
        grad[rows, y] -= 1.0  # probs minus the one-hot rows: p - 0.0 is p
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

    def dense_layers(self):
        return [l for l in self.layers if isinstance(l, _Dense)]

    def write_back(self, graph: ModelGraph) -> ModelGraph:
        by_name = {l.name: l for l in self.layers}
        nodes = []
        for node in graph.nodes:
            layer = by_name.get(node.name)
            if isinstance(layer, _Dense):
                nodes.append(node.with_params(
                    weight=Tensor.from_numpy(layer.w), bias=Tensor.from_numpy(layer.b)
                ))
            elif isinstance(layer, _BatchNorm):
                nodes.append(node.with_params(
                    gamma=Tensor.from_numpy(layer.gamma),
                    beta=Tensor.from_numpy(layer.beta),
                    moving_mean=Tensor.from_numpy(layer.moving_mean),
                    moving_variance=Tensor.from_numpy(layer.moving_var),
                    epsilon=Tensor.scalar(layer.eps),
                ))
            else:
                nodes.append(node)
        return graph.replace_nodes(nodes)


class _Optimizer:
    """SGD or Adam on the net's flat parameter and gradient buffers, one
    update per step. Adam's moments m and v are the rows of one array, so
    each elementwise call updates both."""

    def __init__(self, cfg: TrainingConfig, net: _Net):
        self.cfg = cfg
        self.step_count = 0
        self.moments = np.zeros((2, net.theta.size))
        self._scratch = np.empty_like(self.moments)
        self._betas = np.array([[ADAM_BETA1], [ADAM_BETA2]])
        self._gains = 1 - self._betas

    def step(self, net: _Net):
        """One update of every parameter. A pruned master stays at zero: its
        gradient entries are masked to zero, so the update subtracts zero.
        Adam rounds each element as m*b1 + (1-b1)*g, v*b2 + ((1-b2)*g)*g,
        then theta -= (lr*(m/c1)) / (sqrt(v/c2) + eps), with c = 1 - b**t."""
        cfg, g = self.cfg, net.grad
        self.step_count += 1
        if cfg.optimizer == "sgd":
            net.theta -= cfg.learning_rate * g
            return
        mv, s = self.moments, self._scratch
        mv *= self._betas
        np.multiply(self._gains, g, out=s)
        s[1] *= g
        mv += s
        np.divide(mv, [[1 - ADAM_BETA1 ** self.step_count], [1 - ADAM_BETA2 ** self.step_count]], out=s)
        s[0] *= cfg.learning_rate
        np.sqrt(s[1], out=s[1])
        s[1] += ADAM_EPS
        s[0] /= s[1]
        net.theta -= s[0]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def write_loss_trace(trace, path):
    _write_csv(path, ["epoch", "loss", "accuracy"],
               ([row.epoch, repr(row.loss), repr(row.accuracy)] for row in trace))


def train(model: ModelGraph, data: Dataset, cfg: TrainingConfig):
    """Train the chain; returns (graph with learned params, loss trace)."""
    if data.features.shape[1] != model.input_width:
        raise ValueError(
            f"dataset has {data.features.shape[1]} features, model expects {model.input_width}"
        )
    outputs = walk(model)[-1][3]
    if data.class_count > outputs:
        raise ValueError(f"dataset has {data.class_count} classes, model has {outputs} outputs")
    net = _Net(model, cfg)
    opt = _Optimizer(cfg, net)
    rng = make_rng(cfg.seed)
    n = len(data)
    batch = max(1, min(cfg.batch_size, n))
    # The input's grid applies once, to every row; each step starts after it.
    features, first = data.features, 0
    if net.layers and isinstance(net.layers[0], _FakeQuant):
        features, first = net.layers[0].quantizer.fake_quant(features)[0], 1
    trace = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses, preds = [], []
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            loss, probs = net.loss_and_grads(features[idx], data.labels[idx], cfg.l1_lambda, first)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"loss became {loss} at epoch {epoch}")
            opt.step(net)
            losses.append(loss * len(idx))
            preds.append(probs.argmax(axis=1))
        hits = int((np.concatenate(preds) == data.labels[order]).sum())
        trace.append(EpochStats(epoch, sum(losses) / n, hits / n))
    return net.write_back(model), trace


def train_qat(model: ModelGraph, data: Dataset, cfg: TrainingConfig):
    """Quantization-aware training; every dense layer must have a quantizer."""
    if cfg.quantizers is None:
        raise ValueError("train_qat requires cfg.quantizers")
    if not isinstance(cfg.quantizers, QuantizerSpec):
        dense_names = [n.name for n in model.nodes if n.kind == "dense"]
        missing = [name for name in dense_names if name not in cfg.quantizers]
        if missing:
            raise ValueError(f"train_qat: no quantizer for dense layers {missing}")
    return train(model, data, cfg)


def quantize_model_weights(model: ModelGraph, quantizer) -> ModelGraph:
    """Snap dense weights onto the quantizer grid (the PTQ step and the
    deployment step after QAT). Accepts one spec or a per-layer map."""
    def weight_for(node):
        q = quantizer if isinstance(quantizer, QuantizerSpec) else quantizer.get(node.name)
        return None if q is None else q.apply(node.param("weight").to_numpy())
    return _with_dense_weights(model, weight_for)


def forward_real(model: ModelGraph, features: np.ndarray) -> np.ndarray:
    """Inference-mode real-arithmetic forward over a batch (or one row)."""
    x = np.asarray(features, dtype=np.float64)
    squeeze = x.ndim == 1
    for _, out in _forward_layers(model, x[None, :] if squeeze else x):
        pass
    return out[0] if squeeze else out


def _forward_layers(model: ModelGraph, x: np.ndarray):
    """Yield (node, output batch) for each layer of the real forward."""
    for node, *_ in walk(model):
        if node.kind == "dense":
            x = x @ node.param("weight").to_numpy().T + node.param("bias").to_numpy()
        elif node.kind == "relu":
            x = np.maximum(x, 0.0)
        elif node.kind == "batch_norm":
            scale, shift = kernels.batch_norm_scale_shift(node.params)
            x = x * scale + shift
        elif node.kind in ("binary_tanh", "ternary_tanh"):
            thresholds, modes = kernels.sign_params(node, x.shape[1])
            x = kernels.sign_activation(x, thresholds, modes,
                                        0.5 if node.kind == "ternary_tanh" else 0.0)
        elif node.kind == "softmax":
            shifted = x - x.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            x = e / e.sum(axis=1, keepdims=True)
        yield node, x


def _rank_auc(scores: np.ndarray, is_positive: np.ndarray) -> float:
    """One-vs-rest AUC by the Mann-Whitney rank statistic with midranks."""
    n = len(scores)
    order = np.argsort(scores, kind="mergesort")
    # A run of tied scores at sorted positions i..j shares the rank (i + j) / 2 + 1.
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (2 * first + counts - 1) + 1.0, counts)
    p = int(is_positive.sum())
    q = n - p
    if p == 0 or q == 0:
        raise EvaluationError("AUC undefined: class has no positives or no negatives")
    return float((ranks[is_positive].sum() - p * (p + 1) / 2) / (p * q))


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    auc: tuple  # one-vs-rest, per class
    mean_auc: float


def check_labels(data: Dataset, where: str):
    """Raise EvaluationError, naming ``where``, unless ``data`` holds rows of
    two labels or more and of every label below its class count."""
    present = np.unique(data.labels).tolist()
    if len(present) < 2 or len(present) != data.class_count:
        raise EvaluationError(f"{where}: evaluation needs rows of two labels or more and of each "
                              f"label from 0 to {data.class_count - 1}, found labels {present[:10]}")


def evaluate(model: ModelGraph, data: Dataset, arithmetic: str = "real") -> EvalReport:
    """Accuracy and per-class one-vs-rest AUC under real or fixed arithmetic."""
    check_labels(data, "evaluation data")
    if arithmetic == "real":
        scores = forward_real(model, data.features)
    elif arithmetic == "fixed":
        scores = emulate_batch(model, data.features)
    else:
        raise ValueError(f"unknown arithmetic {arithmetic!r}")
    preds = scores.argmax(axis=1)
    accuracy = float((preds == data.labels).mean())
    aucs = tuple(
        _rank_auc(scores[:, c], data.labels == c) for c in range(data.class_count)
    )
    return EvalReport(accuracy, aucs, float(np.mean(aucs)))


def emulate_batch(model: ModelGraph, features: np.ndarray) -> np.ndarray:
    """Bit-accurate emulation of a ``[N, d]`` block of samples in one batch.

    Returns the ``[N, outputs]`` real-valued outputs; row i equals a
    single-row ``run_inference`` call on sample i, bit for bit.
    """
    features = np.asarray(features, dtype=np.float64)
    out, _ = kernels.run_inference(model, Tensor.from_numpy(features))
    return out.to_numpy().reshape(len(features), -1)


@dataclass(frozen=True)
class ScanRow:
    bits: int
    ptq_rel_acc: float
    qat_rel_acc: float


def _int_bits_for(max_abs: float) -> int:
    return max(1, math.ceil(math.log2(max_abs + 1e-12)) + 1)


def scan_precisions(model: ModelGraph, features: np.ndarray, bits: int) -> ModelGraph:
    """Assign a uniform-width fixed-point configuration to every layer.

    This is the scan's range convention: integer bits cover the observed
    weight and activation extremes of this model on the given data;
    accumulators are wide enough that the dot product itself never rounds
    (all precision loss happens at weights and stored layer outputs);
    everything rounds to nearest and saturates. Softmax runs host-side
    on the logits, so its slots keep the logits' range.
    """
    return _scan_model(model, _output_int_bits(model, features), bits)


def _output_int_bits(model: ModelGraph, features: np.ndarray):
    """Each layer's output integer bits on ``features``, in walk order, from
    one real forward; softmax keeps the logits'. A scan finds them once."""
    ints, act_int = [], None
    for node, out in _forward_layers(model, np.asarray(features, dtype=np.float64)):
        if node.kind in ("binary_tanh", "ternary_tanh"):
            raise ValueError(f"layer {node.name!r}: kind {node.kind!r} not supported in scans")
        if node.kind != "softmax":
            peak = float(np.abs(out).max()) if out.size else 1.0
            if not math.isfinite(peak):
                raise ValueError(f"layer {node.name!r}: the float model's outputs on the training rows "
                                 f"reach {peak}, so they give the scan no range")
            act_int = _int_bits_for(peak)
        ints.append(act_int)
    return ints


def _scan_model(model: ModelGraph, output_int_bits, bits: int) -> ModelGraph:
    """``scan_precisions`` at ``bits``, from the ``_output_int_bits`` of its features."""
    nodes = []
    in_int = None
    for (node, *_), act_int in zip(walk(model), output_int_bits):
        act_spec = FixedPointSpec(bits, act_int, rounding="round_half_up", overflow="saturate")
        if node.kind == "dense":
            w = node.param("weight").to_numpy()
            b = node.param("bias").to_numpy()
            w_int = _int_bits_for(max(np.abs(w).max(), np.abs(b).max(), 2.0 ** -bits))
            w_spec = FixedPointSpec(bits, w_int, rounding="round_half_up", overflow="saturate")
            guard = math.ceil(math.log2(w.shape[1])) + 1
            acc_width = min(2 * bits + guard + 2, 60)
            acc_int = min(w_int + in_int + guard, acc_width)
            acc_spec = FixedPointSpec(acc_width, acc_int, overflow="saturate")
            prec = PrecisionSet(w_spec, w_spec, acc_spec, act_spec)
        else:
            prec = PrecisionSet(act_spec, act_spec, act_spec, act_spec)
        nodes.append(replace(node, precision=prec))
        in_int = act_int
    return model.replace_nodes(nodes)


def ptq_qat_scan(model: ModelGraph, train_data: Dataset, eval_data: Dataset,
                 bit_widths, cfg: TrainingConfig, fixed_eval_limit: int = FIXED_EVAL_LIMIT,
                 float_model: ModelGraph = None):
    """Post-training vs quantization-aware accuracy across bit widths.

    The float baseline trains once from the given initialized model
    (pass ``float_model`` to reuse an existing one). At each width, PTQ
    assigns the scan precision configuration to the baseline and
    evaluates it under bit-accurate fixed arithmetic; QAT fine-tunes the
    baseline with the weight and activation quantizers of that
    configuration (half the epochs, half the learning rate), and is
    evaluated the same way. Accuracies are relative to the
    real-arithmetic float baseline on the same samples. Returns
    (baseline EvalReport, [ScanRow ...]). An empty ``bit_widths``, a width
    outside 1..MAX_SPEC_WIDTH or a ``fixed_eval_limit`` below 1 raises
    ValueError, and evaluation rows that ``check_labels`` rejects raise
    EvaluationError, before any training; so does a baseline of accuracy
    0, before any width runs.
    """
    bit_widths = [int(bits) for bits in bit_widths]
    if not bit_widths:
        raise ValueError("bit_widths (--bits) holds no width")
    for bits in bit_widths:
        if not 1 <= bits <= MAX_SPEC_WIDTH:
            raise ValueError(f"bit_widths (--bits) holds {bits}, a width must be in 1..{MAX_SPEC_WIDTH}")
    if fixed_eval_limit < 1:
        raise ValueError(f"fixed_eval_limit (--fixed-eval-limit) is {fixed_eval_limit}, it must be at least 1")
    subset = Dataset(eval_data.features[:fixed_eval_limit],
                     eval_data.labels[:fixed_eval_limit], eval_data.class_count)
    check_labels(subset, f"the first {fixed_eval_limit} evaluation rows (fixed_eval_limit)")
    if float_model is None:
        float_model, _ = train(model, train_data, cfg)
    baseline = evaluate(float_model, subset)
    if baseline.accuracy == 0:
        raise EvaluationError(f"the float baseline's accuracy on {subset.labels.size} evaluation rows is 0, "
                              "and a scan's accuracies are relative to it")
    qat_cfg_base = replace(cfg, learning_rate=cfg.learning_rate / 2, epochs=max(1, cfg.epochs // 2))
    output_int_bits = _output_int_bits(float_model, train_data.features)
    rows = []
    for bits in bit_widths:
        ptq_model = _scan_model(float_model, output_int_bits, bits)
        ptq = evaluate(ptq_model, subset, arithmetic="fixed")
        quantizers = {
            node.name: QuantizerSpec(bits, node.precision.weight.integer_bits)
            for node in ptq_model.nodes if node.kind == "dense"
        }
        # Training sees the same activation grids the deployment applies.
        act_quantizers = {
            node.name: QuantizerSpec(bits, node.precision.result.integer_bits)
            for node in ptq_model.nodes if node.kind != "softmax"
        }
        qat_cfg = replace(qat_cfg_base, quantizers=quantizers,
                          activation_quantizers=act_quantizers)
        # Fine-tune the PTQ model: training keeps each node's precision, so the
        # result deploys under the assignment the quantizers came from.
        qat_model, _ = train_qat(ptq_model, train_data, qat_cfg)
        qat = evaluate(qat_model, subset, arithmetic="fixed")
        rows.append(ScanRow(bits, ptq.accuracy / baseline.accuracy,
                            qat.accuracy / baseline.accuracy))
    return baseline, rows


def write_scan_csv(rows, path):
    _write_csv(path, ["bits", "ptq_rel_acc", "qat_rel_acc"],
               ([row.bits, repr(row.ptq_rel_acc), repr(row.qat_rel_acc)] for row in rows))
