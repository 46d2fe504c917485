"""Dataflow graph IR for fully-connected networks.

The model document is UTF-8 JSON with top-level fields ``format_version``
(currently "1"), ``input_shape``, and ``layers``, an ordered array of::

    {"name": ..., "kind": ..., "params": {...},
     "precision"?: ..., "reuse_factor"?: int, "compression"?: bool}

Layer params are either a bare number (scalar tensor) or
``{"shape": [...], "data": [flat row-major numbers]}``. ``precision`` is
a single ``fixed<W,I[,u][,rnd][,sat]>`` string applied to all four slots,
or an object with per-slot strings (weight, bias, accumulator, result).
Layers form a chain in declaration order; graphs are immutable after
construction.

Every parameter, emulator row and tap is a :class:`Tensor`, one read-only
numpy array of float64 reals or of integer raws on one FixedPointSpec.
Only ``Tensor`` knows how raws are stored; other modules read its
``array`` and ``spec``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np
import orjson

from .fixed_point import (TRUNCATE, FixedPointSpec, FixedPointValue,
                          apply_overflow_array, quantize, round_scaled)

FORMAT_VERSION = "1"
DEFAULT_PRECISION = "fixed<16,6>"

LAYER_KINDS = ("input", "dense", "relu", "batch_norm", "binary_tanh", "ternary_tanh", "softmax")

# Per-channel ``mode`` codes of binary_tanh / ternary_tanh.
MODE_GE = 0  # +1 iff x >= threshold
MODE_LE = 1  # +1 iff x <= threshold (negative batch-norm gain)
MODE_CONST_PLUS = 2
MODE_CONST_MINUS = 3

BATCH_NORM_PARAMS = ("gamma", "beta", "moving_mean", "moving_variance", "epsilon")
# Constant-folded batch_norm form (see passes.constant_fold).
BATCH_NORM_FOLDED_PARAMS = ("scale", "shift")

# Specs are immutable, so layers with one precision string share one parse
# and its cached properties; a string that fails to parse is not cached.
_spec = lru_cache(maxsize=256)(FixedPointSpec.from_string)


class ParseError(ValueError):
    """Model document violates the schema; message names the offending path."""


class ValidationError(ValueError):
    """Graph invariant broken; message names the offending layer."""

    def __init__(self, *diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class Tensor:
    """Flat row-major tensor backed by one read-only numpy array.

    A real tensor (``spec`` is None) holds float64 values. A quantized
    tensor holds the integer raws of its elements, all on ``spec``: int64
    when the spec's raw range fits, Python ints in an object array
    otherwise (an unsigned 64-bit spec). ``data`` may be numbers or an
    ndarray (real), raws together with ``spec`` (an int64 or object ndarray
    is read as it is), or FixedPointValues that share one spec. The input
    is always copied, so later writes to it never reach the tensor.
    """

    def __init__(self, shape, data, spec: FixedPointSpec = None):
        shape = tuple(shape)
        if len(shape) == 0:
            raise ValueError("tensor shape must be non-empty")
        if any(int(d) != d or d <= 0 for d in shape):
            raise ValueError(f"tensor shape must be positive integers, got {shape}")
        is_array = isinstance(data, np.ndarray) and (data.dtype != object or spec is not None)
        if is_array:
            values = data.reshape(-1)
        else:
            values = data.reshape(-1).tolist() if isinstance(data, np.ndarray) else list(data)
        if math.prod(shape) != len(values):
            raise ValueError(f"tensor data length {len(values)} does not match shape {shape}")
        if spec is None and isinstance(values[0], FixedPointValue):
            spec = values[0].spec
            if not all(isinstance(v, FixedPointValue) and v.spec == spec for v in values):
                raise ValueError("quantized tensor elements must share one spec")
            values = [v.raw for v in values]
        if spec is None:
            array = np.array(values, dtype=np.float64)
        else:
            lo, hi = (values.min(), values.max()) if is_array else (min(values), max(values))
            if lo < spec.min_raw or hi > spec.max_raw:
                raise ValueError(f"raws outside the range of {spec}")
            array = np.array(values, dtype=spec.raw_dtype)
        array.setflags(write=False)
        self.shape = tuple(int(d) for d in shape)
        self.array = array
        self.spec = spec

    @classmethod
    def _from_cast(cls, shape: tuple, array: np.ndarray, spec: FixedPointSpec) -> "Tensor":
        """A tensor of ``array``, not copied or range-checked: raws that a final
        cast has just put on ``spec``, or float64 reals when ``spec`` is None."""
        tensor = cls.__new__(cls)
        tensor.shape, tensor.array, tensor.spec = shape, array.astype(
            np.float64 if spec is None else spec.raw_dtype, copy=False).reshape(-1), spec
        tensor.array.setflags(write=False)
        return tensor

    @cached_property
    def data(self) -> tuple:
        """The elements as floats or FixedPointValues, built on first use."""
        values = self.array.tolist()
        return tuple(values if self.spec is None else (FixedPointValue(r, self.spec) for r in values))

    @property
    def size(self) -> int:
        return self.array.size

    def at(self, i: int, j: int):
        """Element (i, j) of a 2-D tensor."""
        return self.data[i * self.shape[1] + j]

    def is_quantized(self) -> bool:
        return self.spec is not None

    def to_numpy(self) -> np.ndarray:
        """A new writable float64 array of ``shape``.

        Quantized elements equal ``FixedPointValue.to_float()``: the raw is
        rounded once, and scaling a 64-bit raw by 2**-frac is exact while
        |frac| <= 900 keeps the result a normal float.
        """
        if self.spec is None:
            return self.array.reshape(self.shape).copy()
        frac = self.spec.fraction_bits
        if abs(frac) <= 900:
            reals = np.ldexp(self.array.astype(np.float64), -frac)
        else:
            reals = np.array([v.to_float() for v in self.data])
        return reals.reshape(self.shape)

    def quantized(self, spec: FixedPointSpec) -> "Tensor":
        """This real tensor on ``spec``'s grid, equal to ``quantize`` on every element.

        y = x * 2**frac is exact while |frac| <= 900 and |y| < 2**62, and
        then ``round_scaled`` gives the raws exactly. Other tensors, and
        non-finite values, which raise ValueError, go through ``quantize``
        element by element.
        """
        if self.spec is not None:
            raise ValueError("tensor is already quantized")
        x, frac = self.array, spec.fraction_bits
        y = np.ldexp(x, frac) if abs(frac) <= 900 else None
        if y is None or not (np.abs(y) < 2.0 ** 62).all():
            return Tensor(self.shape, [quantize(v, spec).raw for v in x.tolist()], spec)
        raws = round_scaled(y, spec.rounding)
        if spec.rounding == TRUNCATE:
            raws[(y == 0) & (x < 0)] = -1.0  # a negative x that ldexp underflowed to zero
        return Tensor._from_cast(self.shape, apply_overflow_array(raws.astype(np.int64), spec), spec)

    @classmethod
    def from_numpy(cls, arr) -> "Tensor":
        a = np.asarray(arr, dtype=np.float64)
        return cls(a.shape if a.ndim else (1,), a)

    @classmethod
    def scalar(cls, value: float) -> "Tensor":
        return cls((1,), (float(value),))


@dataclass(frozen=True)
class PrecisionSet:
    """Fixed-point specs for the four per-layer slots."""

    weight: FixedPointSpec
    bias: FixedPointSpec
    accumulator: FixedPointSpec
    result: FixedPointSpec

    SLOTS = ("weight", "bias", "accumulator", "result")

    @classmethod
    def uniform(cls, spec_text: str = DEFAULT_PRECISION) -> "PrecisionSet":
        spec = _spec(spec_text)
        return cls(spec, spec, spec, spec)

    @classmethod
    def from_doc(cls, doc, path: str) -> "PrecisionSet":
        if isinstance(doc, str):
            try:
                return cls.uniform(doc)
            except ValueError as e:
                raise ParseError(f"{path}: {e}") from None
        if isinstance(doc, dict):
            specs = {}
            for slot in cls.SLOTS:
                text = doc.get(slot, DEFAULT_PRECISION)
                if not isinstance(text, str):
                    raise ParseError(f"{path}.{slot}: precision must be a string")
                try:
                    specs[slot] = _spec(text)
                except ValueError as e:
                    raise ParseError(f"{path}.{slot}: {e}") from None
            for key in doc:
                if key not in cls.SLOTS:
                    raise ParseError(f"{path}.{key}: unknown precision slot")
            return cls(**specs)
        raise ParseError(f"{path}: precision must be a string or object")

    def to_doc(self) -> dict:
        return {slot: getattr(self, slot).to_string() for slot in self.SLOTS}


@dataclass(frozen=True)
class LayerNode:
    name: str
    kind: str
    params: dict = field(default_factory=dict)
    precision: PrecisionSet = field(default_factory=PrecisionSet.uniform)
    reuse_factor: int = 1
    compression: bool = False

    def param(self, key: str) -> Tensor:
        return self.params[key]

    def with_params(self, **updates) -> "LayerNode":
        merged = dict(self.params)
        merged.update(updates)
        return replace(self, params=merged)


@dataclass(frozen=True)
class Diagnostic:
    layer: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.layer}] {self.rule}: {self.message}"


@dataclass(frozen=True)
class ModelGraph:
    """Chain of layers in execution order; first node has kind ``input``."""

    nodes: tuple
    input_shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))

    @classmethod
    def chain(cls, nodes, input_shape) -> "ModelGraph":
        """Wire nodes linearly in the given order."""
        return cls(nodes, input_shape)

    def node(self, name: str) -> LayerNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    @property
    def input_width(self) -> int:
        return math.prod(self.input_shape)

    def replace_nodes(self, nodes) -> "ModelGraph":
        """New chain graph with the given node sequence (used by passes)."""
        return ModelGraph.chain(nodes, self.input_shape)


def _with_dense_weights(graph: ModelGraph, weight_for) -> ModelGraph:
    """``graph`` with each dense weight replaced by the array ``weight_for(node)``
    returns; a dense layer it returns None for, and every other layer, stays."""
    nodes = []
    for node in graph.nodes:
        w = weight_for(node) if node.kind == "dense" else None
        nodes.append(node if w is None else node.with_params(weight=Tensor.from_numpy(w)))
    return graph.replace_nodes(nodes)


def topo_order(graph: ModelGraph):
    """The chain's layers in execution order."""
    return list(graph.nodes)


def walk(graph: ModelGraph) -> list:
    """``(node, incoming spec, input width, output width)`` for every layer.

    The incoming spec is the previous layer's result spec (None for the
    input layer); a dense layer's output width is its weight's row count,
    every other layer keeps its input width. This is the one place that
    checks the chain's structure: every kind is known, the input layer comes
    first and only there, and softmax comes last. A violation raises
    ValidationError naming the layer.
    """
    nodes = graph.nodes
    if not nodes:
        raise ValidationError(Diagnostic("<graph>", "structure", "chain has no layers"))
    steps = []
    in_spec, width = None, graph.input_width
    for pos, node in enumerate(nodes):
        if node.kind not in LAYER_KINDS:
            raise ValidationError(Diagnostic(node.name, "kind", f"unknown kind {node.kind!r}"))
        if (node.kind == "input") != (pos == 0):
            problem = "input layer must be the first layer" if pos else "chain must start with an input layer"
            raise ValidationError(Diagnostic(node.name, "structure", problem))
        if node.kind == "softmax" and pos != len(nodes) - 1:
            raise ValidationError(Diagnostic(node.name, "structure",
                                             "softmax is only supported as the final layer"))
        w = _shape_of(node, "weight")
        out_width = w[0] if node.kind == "dense" and w and len(w) == 2 else width
        steps.append((node, in_spec, width, out_width))
        in_spec, width = node.precision.result, out_width
    return steps


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ParseError(f"{path}: {message}")


def _finite_reals(values):
    """The numbers as a float64 array, or None if one is not finite.

    JSON admits NaN, Infinity and integers beyond the float range.
    """
    try:
        reals = np.array(values, dtype=np.float64)
    except OverflowError:
        return None
    return reals if np.isfinite(reals).all() else None


def _parse_tensor(doc, path: str) -> Tensor:
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        _expect(_finite_reals(doc) is not None, path, "param must be a finite number")
        return Tensor.scalar(float(doc))
    _expect(isinstance(doc, dict), path, "param must be a number or {shape, data} object")
    _expect("shape" in doc and "data" in doc, path, "param object needs shape and data")
    shape, data = doc["shape"], doc["data"]
    _expect(isinstance(shape, list) and shape, path, "shape must be a non-empty array")
    _expect(all(isinstance(d, int) and d > 0 for d in shape), path, "shape entries must be positive integers")
    _expect(isinstance(data, list), path, "data must be an array")
    # JSON numbers load as exactly int or float; bool is a type of its own.
    _expect(set(map(type, data)) <= {int, float}, path, "data entries must be numbers")
    reals = _finite_reals(data)
    _expect(reals is not None, path, "data entries must be finite numbers")
    try:
        return Tensor(shape, reals)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None


def parse_model(data: str | bytes) -> ModelGraph:
    """Parse and validate a model document, given as text or as its file's bytes; applies per-layer
    defaults. orjson decodes it if it nests shallowly; where not, or orjson raises or a check fails,
    ``json`` decodes and decides, on bytes decoded as ``open()`` decodes a UTF-8 file."""
    with suppress(ValueError):
        if _nests_shallowly(data):
            return _graph_from_doc(orjson.loads(data))
    if isinstance(data, bytes):
        data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(f"$: not valid JSON ({e})") from None
    return _graph_from_doc(doc)


def _nests_shallowly(data: str | bytes) -> bool:
    """Under 500 ``[`` and ``{``: no value, not even one a duplicate key drops, nests as deep as
    ``json`` decodes (1000 less the caller's stack). ``find`` outruns ``count`` here. In UTF-8
    these bytes occur only as those characters, so bytes and their text count alike."""
    count = 0
    for opener in ("[{" if isinstance(data, str) else (b"[", b"{")):
        at = data.find(opener)
        while at >= 0 and count < 500:
            count, at = count + 1, data.find(opener, at + 1)
    return count < 500


def _graph_from_doc(doc) -> ModelGraph:
    _expect(isinstance(doc, dict), "$", "document must be an object")
    _expect(doc.get("format_version") == FORMAT_VERSION, "$.format_version",
            f"expected {FORMAT_VERSION!r}, got {doc.get('format_version')!r}")
    shape = doc.get("input_shape")
    _expect(isinstance(shape, list) and shape, "$.input_shape", "must be a non-empty array")
    _expect(all(isinstance(d, int) and d > 0 for d in shape),
            "$.input_shape", "entries must be positive integers")
    layers_doc = doc.get("layers")
    _expect(isinstance(layers_doc, list) and layers_doc, "$.layers", "must be a non-empty array")

    nodes = []
    for i, layer_doc in enumerate(layers_doc):
        path = f"$.layers[{i}]"
        _expect(isinstance(layer_doc, dict), path, "layer must be an object")
        name = layer_doc.get("name")
        _expect(isinstance(name, str) and name, f"{path}.name", "must be a non-empty string")
        kind = layer_doc.get("kind")
        _expect(kind in LAYER_KINDS, f"{path}.kind", f"must be one of {LAYER_KINDS}")
        params_doc = layer_doc.get("params", {})
        _expect(isinstance(params_doc, dict), f"{path}.params", "must be an object")
        params = {
            key: _parse_tensor(val, f"{path}.params.{key}") for key, val in params_doc.items()
        }
        precision = PrecisionSet.from_doc(
            layer_doc.get("precision", DEFAULT_PRECISION), f"{path}.precision"
        )
        reuse = layer_doc.get("reuse_factor", 1)
        _expect(isinstance(reuse, int) and not isinstance(reuse, bool),
                f"{path}.reuse_factor", "must be an integer")
        compression = layer_doc.get("compression", False)
        _expect(isinstance(compression, bool), f"{path}.compression", "must be a boolean")
        for key in layer_doc:
            if key not in ("name", "kind", "params", "precision", "reuse_factor", "compression"):
                raise ParseError(f"{path}.{key}: unknown field")
        if any(n.name == name for n in nodes):
            raise ParseError(f"{path}.name: duplicate layer name {name!r}")
        nodes.append(LayerNode(name, kind, params, precision, reuse, compression))

    if not any(n.kind == "input" for n in nodes):
        # Implicit input node keeps hand-written documents short.
        auto_name = "input" if all(n.name != "input" for n in nodes) else "_input"
        nodes.insert(0, LayerNode(auto_name, "input"))
    graph = ModelGraph.chain(nodes, tuple(shape))
    problems = validate(graph)
    if problems:
        raise ValidationError(*problems)
    return graph


def _shape_of(node: LayerNode, key: str):
    t = node.params.get(key)
    return None if t is None else t.shape


def _check_layer(node: LayerNode, in_width: int, diags: list):
    def bad(rule, message):
        diags.append(Diagnostic(node.name, rule, message))

    if node.reuse_factor < 1:
        bad("reuse_factor", f"must be >= 1, got {node.reuse_factor}")
    if node.kind != "dense":
        if node.compression:
            bad("compression", "compression is only valid on dense layers")
        if node.reuse_factor != 1:
            bad("reuse_factor", "reuse_factor is only configurable on dense layers")

    if node.kind == "input":
        value = node.params.get("value")
        if value is not None and value.size != in_width:
            bad("shape", f"constant value has {value.size} elements, input width is {in_width}")
        for key in node.params:
            if key != "value":
                bad("params", f"unexpected param {key!r} on input layer")
    elif node.kind == "dense":
        w = _shape_of(node, "weight")
        if w is None:
            bad("params", "dense layer missing weight")
        elif len(w) != 2:
            bad("shape", f"dense weight must be 2-D, got shape {list(w)}")
        elif w[1] != in_width:
            bad("shape", f"weight expects {w[1]} inputs but predecessor provides {in_width}")
        b = _shape_of(node, "bias")
        if b is None:
            bad("params", "dense layer missing bias")
        elif w is not None and len(w) == 2 and b != (w[0],):
            bad("shape", f"bias shape {list(b)} does not match {w[0]} outputs")
    elif node.kind == "batch_norm":
        folded = all(k in node.params for k in BATCH_NORM_FOLDED_PARAMS)
        keys = BATCH_NORM_FOLDED_PARAMS if folded else BATCH_NORM_PARAMS
        for key in keys:
            t = node.params.get(key)
            if t is None:
                bad("params", f"batch_norm missing {key}")
            elif key == "epsilon":
                if t.shape != (1,):
                    bad("shape", "epsilon must be a scalar")
            elif t.size != in_width:
                bad("shape", f"{key} has {t.size} channels, expected {in_width}")
    elif node.kind in ("binary_tanh", "ternary_tanh"):
        for key in ("threshold", "mode"):
            t = node.params.get(key)
            if t is not None and t.size != in_width:
                bad("shape", f"{key} has {t.size} channels, expected {in_width}")
        modes = node.params.get("mode")
        codes = (MODE_GE, MODE_LE, MODE_CONST_PLUS, MODE_CONST_MINUS)
        if modes is not None and not np.isin(modes.to_numpy(), codes).all():
            bad("params", "mode entries must be one of the codes 0, 1, 2, 3")
        res = node.precision.result
        if not quantize(-1.0, res).raw < 0 < quantize(1.0, res).raw:
            bad("precision", f"result {res} cannot tell +1 from -1")


def validate(graph: ModelGraph):
    """All invariant violations as diagnostics; empty list means valid."""
    diags = []
    seen = set()
    for node in graph.nodes:
        if node.name in seen:
            diags.append(Diagnostic(node.name, "names", "duplicate layer name"))
        seen.add(node.name)

    try:
        steps = walk(graph)
    except ValidationError as e:
        return diags + list(e.diagnostics)
    for node, _, in_width, _ in steps:
        _check_layer(node, in_width, diags)
    return diags


def serialize_model(graph: ModelGraph) -> str:
    """Canonical document text; parse -> serialize -> parse is the identity. It is ASCII:
    ``json.dumps`` escapes every other character. A value that is not finite, which
    ``parse_model`` refuses, raises ValueError naming its layer and param."""
    return b"".join(_document_parts(graph)).decode()


def model_hash(graph: ModelGraph) -> str:
    """The model hash of manifests and reports: sha256 of ``serialize_model(graph).encode()``,
    fed part by part, so the text is never built."""
    digest = hashlib.sha256()
    for part in _document_parts(graph):
        digest.update(part)
    return digest.hexdigest()


def _document_parts(graph: ModelGraph):
    """The canonical document's bytes, in parts; one part per run of tensor values.

    ``json.dumps(indent=2)`` writes the document with each array tensor's ``data`` as ``[]``,
    and the values ``_real_texts`` writes go in at each ``"data": []``, which nothing else
    writes: a tensor is never empty, a param named ``data`` is followed by ``{`` or a number,
    and ``"`` is escaped in strings. Tensors sit at one depth: values are indented 12 spaces."""
    arrays, layers = [], []
    for node in graph.nodes:
        params = {}
        for key, t in sorted(node.params.items()):
            data = t.to_numpy().reshape(-1)  # quantized values as their exact reals
            if not np.isfinite(data).all():
                raise ValueError(f"layer {node.name!r}: param {key!r} holds {data[~np.isfinite(data)][0]}, "
                                 "a model document holds finite numbers")
            if t.shape == (1,) and not t.is_quantized():
                params[key] = data[0].item()
            else:
                params[key] = {"shape": list(t.shape), "data": []}
                arrays.append(data)
        layers.append({"name": node.name, "kind": node.kind, "params": params,
                       "precision": node.precision.to_doc(), "reuse_factor": node.reuse_factor,
                       "compression": node.compression})
    doc = {"format_version": FORMAT_VERSION, "input_shape": list(graph.input_shape), "layers": layers}
    pieces = (json.dumps(doc, indent=2) + "\n").encode().split(b'"data": []')
    sep = b",\n" + b" " * 12
    yield pieces[0]
    for values, piece in zip(arrays, pieces[1:]):
        yield b'"data": [' + sep[1:]
        for i, text in enumerate(_real_texts(values, sep)):
            if i:
                yield sep
            yield text
        yield b"\n" + b" " * 10 + b"]" + piece


def _orjson_is_repr(values: np.ndarray) -> np.ndarray:
    """Where orjson writes a float64 as ``repr`` does: zero, or a finite magnitude in [1e-4, 1e16)."""
    mag = np.abs(values)
    return (mag == 0) | ((mag >= 1e-4) & (mag < 1e16))


def _real_texts(values: np.ndarray, sep: bytes) -> list:
    """``values`` as ``json`` writes them, in byte pieces to join with ``sep``: orjson a call per run
    of values it writes as ``repr`` does (``_orjson_is_repr``); ``json`` the rest in one call."""
    odd = np.flatnonzero(~_orjson_is_repr(values))
    texts = json.dumps(values[odd].tolist()).encode()[1:-1].split(b", ") if odd.size else []
    runs = zip([0] + (odd + 1).tolist(), odd.tolist() + [values.size], texts + [b""])
    pairs = [(orjson.dumps(values[a:b], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].replace(b",", sep), text)
             for a, b, text in runs]
    return [piece for pair in pairs for piece in pair if piece]  # a run can be empty


def format_rows(block: np.ndarray, sep: bytes) -> list:
    """Each row of the 2-D ``block`` as bytes, its values joined by ``sep``: an int as ``str``
    and a float as ``repr`` writes it. orjson formats the whole block in one call, an object
    block (ints inside 64 bits) as its ``tolist()``; a float row holding a value that orjson
    writes otherwise (``_orjson_is_repr``) is formatted through ``repr``."""
    data = block.tolist() if block.dtype == object else np.ascontiguousarray(block)
    text = orjson.dumps(data, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
    rows = text.replace(b",", sep).split(b"]" + sep + b"[")  # no value holds "," or "]"
    if block.dtype.kind == "f":
        for i in np.flatnonzero(~_orjson_is_repr(block).all(axis=1)):
            rows[i] = sep.decode().join(map(repr, block[i].tolist())).encode()
    return rows


def _open_in_place(path) -> int:
    """The descriptor of ``open(path, "w")`` for every file the program writes, but an existing
    file is overwritten in place, and ``_close_in_place`` cuts it at the descriptor's offset:
    truncating it to zero first frees its blocks, which on ext4 costs more than the write.
    Inode, mode and symlink following are those of ``open``."""
    return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)


def _close_in_place(fd: int):
    """Cut a regular file at the offset of ``fd``, then close it; pipes and devices, which
    ``open`` does not truncate either, are not cut. Writers call it even on error."""
    try:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


def write_output(path, data: bytes):
    """Write the whole file ``path`` as ``data``, in place (``_open_in_place``)."""
    fd = _open_in_place(path)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, memoryview(data)[written:])
    finally:
        _close_in_place(fd)


@contextmanager
def open_output(path, newline=None):
    """``open(path, "w", newline=newline)`` for a file written as a stream, in place
    (``_open_in_place``): the bytes are those of ``open``."""
    fd = _open_in_place(path)
    try:
        with open(fd, "w", newline=newline, closefd=False) as fh:
            yield fh
    finally:
        _close_in_place(fd)
