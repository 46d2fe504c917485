"""Exact-rational reference forward pass for the benchmark's correctness gate.

Works on ``fractions.Fraction`` straight from the documented arithmetic
contract (README "Frozen arithmetic conventions"): exact products, each
cast once into the accumulator spec, added in ascending input index with
the accumulator's overflow applied at every add, the bias as the initial
accumulator value, one final cast into the result spec. It reads the
model document itself and shares no code with the package, so a bug in
the emulator cannot hide here.
"""

import json
import math
import re
from fractions import Fraction

DEFAULT_PRECISION = "fixed<16,6>"
SLOTS = ("weight", "bias", "accumulator", "result")
_SPEC = re.compile(r"fixed<\s*(\d+)\s*,\s*(-?\d+)\s*((?:,\s*(?:u|rnd|sat)\s*)*)>")


class Spec:
    def __init__(self, text):
        m = _SPEC.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"bad precision string {text!r}")
        self.width, self.integer = int(m.group(1)), int(m.group(2))
        flags = {f.strip() for f in m.group(3).split(",") if f.strip()}
        self.signed = "u" not in flags
        self.round_half_up = "rnd" in flags
        self.saturate = "sat" in flags
        self.scale = Fraction(2) ** (self.width - self.integer)

    def quantize(self, value):
        """Raw integer for an exact rational: rounding, then overflow."""
        scaled = value * self.scale
        raw = math.floor(scaled + Fraction(1, 2)) if self.round_half_up else math.floor(scaled)
        lo = -(1 << (self.width - 1)) if self.signed else 0
        hi = (1 << (self.width - 1)) - 1 if self.signed else (1 << self.width) - 1
        if self.saturate:
            return min(max(raw, lo), hi)
        raw %= 1 << self.width
        return raw - (1 << self.width) if raw > hi else raw

    def real(self, raw):
        return Fraction(raw) / self.scale

    def snap(self, value):
        """The exact real the spec stores for ``value``."""
        return self.real(self.quantize(value))


def _precision(layer):
    doc = layer.get("precision", DEFAULT_PRECISION)
    if isinstance(doc, str):
        return {slot: Spec(doc) for slot in SLOTS}
    return {slot: Spec(doc.get(slot, DEFAULT_PRECISION)) for slot in SLOTS}


def _data(param):
    return param["data"] if isinstance(param, dict) else [param]


class ReferenceModel:
    """A dense/ReLU/softmax chain read from a model document."""

    def __init__(self, doc_text):
        doc = json.loads(doc_text)
        self.layers = []
        for layer in doc["layers"]:
            kind = layer["kind"]
            if kind not in ("input", "dense", "relu", "softmax"):
                raise ValueError(f"reference has no {kind!r} layer")
            prec = _precision(layer)
            entry = {"name": layer["name"], "kind": kind, "prec": prec}
            if kind == "dense":
                params = layer["params"]
                n_out, n_in = params["weight"]["shape"]
                w = [prec["weight"].snap(Fraction(v)) for v in _data(params["weight"])]
                entry["rows"] = [w[i * n_in:(i + 1) * n_in] for i in range(n_out)]
                entry["bias"] = [prec["bias"].snap(Fraction(v)) for v in _data(params["bias"])]
            self.layers.append(entry)
        if self.layers[0]["kind"] != "input":
            self.layers.insert(0, {"name": "input", "kind": "input",
                                   "prec": _precision({})})

    def forward(self, features):
        """Per-layer outputs for one input row, as exchange-format lines.

        Fixed-point layers give their raws; a trailing softmax gives the
        ``repr`` of its real outputs, as ``fixflow emulate`` writes them.
        """
        lines = {}
        values = None  # exact reals of the current layer output
        for layer in self.layers:
            kind, prec = layer["kind"], layer["prec"]
            res = prec["result"]
            if kind == "input":
                raws = [res.quantize(Fraction(float(v))) for v in features]
            elif kind == "dense":
                acc_spec = prec["accumulator"]
                raws = []
                for row, b in zip(layer["rows"], layer["bias"]):
                    acc = acc_spec.snap(b)
                    for w, v in zip(row, values):
                        acc = acc_spec.snap(acc + acc_spec.snap(w * v))
                    raws.append(res.quantize(acc))
            elif kind == "relu":
                raws = [res.quantize(max(v, Fraction(0))) for v in values]
            else:  # softmax, real arithmetic at the output only
                reals = [float(v) for v in values]
                peak = max(reals)
                exps = [math.exp(r - peak) for r in reals]
                total = sum(exps)
                lines[layer["name"]] = " ".join(repr(e / total) for e in exps)
                continue
            values = [res.real(r) for r in raws]
            lines[layer["name"]] = " ".join(str(r) for r in raws)
        return lines
