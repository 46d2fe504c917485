import errno
import hashlib
import json
import math
import os
import random
import struct
import threading
from decimal import Decimal, localcontext

import numpy as np
import orjson
import pytest

from fixflow import trainer
from fixflow.fixed_point import FixedPointSpec, FixedPointValue
from fixflow.kernels import run_inference
from fixflow.model_ir import (
    Diagnostic,
    LayerNode,
    ModelGraph,
    ParseError,
    PrecisionSet,
    Tensor,
    ValidationError,
    model_hash,
    open_output,
    parse_model,
    serialize_model,
    topo_order,
    validate,
    walk,
    write_output,
)


def doc(layers, input_shape=(2,)):
    return json.dumps({
        "format_version": "1",
        "input_shape": list(input_shape),
        "layers": layers,
    })


def dense_doc(name, weight, bias, **extra):
    m = len(bias)
    n = len(weight) // m
    return {"name": name, "kind": "dense",
            "params": {"weight": {"shape": [m, n], "data": weight},
                       "bias": {"shape": [m], "data": bias}}, **extra}


def jet_document():
    layers = []
    widths = [(64, 16), (32, 64), (32, 32), (5, 32)]
    for i, (m, n) in enumerate(widths):
        layers.append(dense_doc(f"fc{i}", [0.01 * (j % 7 - 3) for j in range(m * n)],
                                [0.0] * m))
        if i < 3:
            layers.append({"name": f"relu{i}", "kind": "relu"})
    layers.append({"name": "softmax", "kind": "softmax"})
    return doc(layers, input_shape=(16,))


class TestParse:
    def test_identity_dense_roundtrips_input(self):
        text = doc([dense_doc("d", [1.0, 0.0, 0.0, 1.0], [0.0, 0.0])])
        graph = parse_model(text)
        out, _ = run_inference(graph, Tensor((2,), (1.0, 2.0)))
        assert [v.to_float() for v in out.data] == [1.0, 2.0]

    def test_jet_architecture(self):
        graph = parse_model(jet_document())
        dense = [n for n in graph.nodes if n.kind == "dense"]
        assert len(dense) == 4
        assert [n.param("weight").shape for n in dense] == [(64, 16), (32, 64), (32, 32), (5, 32)]
        assert walk(graph)[-1][3] == 5

    def test_shape_mismatch_names_layer(self):
        layers = [dense_doc("wide", [0.1] * 10, [0.0] * 2),  # 2x5 after width-2 input
                  ]
        with pytest.raises(ValidationError) as err:
            parse_model(doc(layers))
        assert "wide" in str(err.value)

    def test_defaults_applied(self):
        graph = parse_model(doc([dense_doc("d", [1.0, 0.0, 0.0, 1.0], [0.0, 0.0])]))
        node = graph.node("d")
        assert node.reuse_factor == 1
        assert node.compression is False
        assert node.precision.weight.to_string() == "fixed<16,6>"

    def test_schema_violation_names_path(self):
        with pytest.raises(ParseError) as err:
            parse_model(doc([{"name": "x", "kind": "conv2d"}]))
        assert "$.layers[0].kind" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_model(doc([{"name": "x", "kind": "relu", "mystery": 1}]))
        assert "mystery" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_model("not json")
        assert "$" in str(err.value)

    def test_bad_precision_named(self):
        layers = [dense_doc("d", [1.0, 0.0, 0.0, 1.0], [0.0, 0.0], precision="fixed<99,1>")]
        with pytest.raises(ParseError) as err:
            parse_model(doc(layers))
        assert "precision" in str(err.value)

    def test_duplicate_names_rejected(self):
        layers = [{"name": "a", "kind": "relu"}, {"name": "a", "kind": "relu"}]
        with pytest.raises(ParseError):
            parse_model(doc(layers))

    def test_precision_object_form(self):
        layers = [dense_doc("d", [1.0, 0.0, 0.0, 1.0], [0.0, 0.0],
                            precision={"weight": "fixed<8,2>", "accumulator": "fixed<24,8>"})]
        node = parse_model(doc(layers)).node("d")
        assert node.precision.weight.to_string() == "fixed<8,2>"
        assert node.precision.accumulator.to_string() == "fixed<24,8>"
        assert node.precision.bias.to_string() == "fixed<16,6>"


def shared_precision_document(bad=None, text="fixed<12,3,rnd,sat>"):
    """The jet document with ``text`` on every layer, and ``bad`` on ``$.layers[3]`` if given."""
    layers = json.loads(jet_document())["layers"]
    for i, layer in enumerate(layers):
        layer["precision"] = bad if i == 3 and bad is not None else text
    return json.dumps({"format_version": "1", "input_shape": [16], "layers": layers})


class TestSharedPrecisions:
    """Each distinct precision string of a document is parsed once; errors are not kept."""

    @pytest.mark.parametrize("text", ["fixed<12,3,rnd,sat>", "fixed<64,2,u>", " fixed<16,6> "])
    def test_repeated_string_equals_fresh_specs(self, text):
        graph = parse_model(shared_precision_document(text=text))
        fresh = FixedPointSpec.from_string(text)
        specs = [getattr(n.precision, slot) for n in graph.nodes[1:] for slot in PrecisionSet.SLOTS]
        assert len(specs) == 4 * 8
        for spec in specs:
            assert spec == fresh
            assert (spec.fraction_bits, spec.min_raw, spec.max_raw, spec.raw_dtype) == (
                fresh.fraction_bits, fresh.min_raw, fresh.max_raw, fresh.raw_dtype)
        assert all(spec is specs[0] for spec in specs)

    @pytest.mark.parametrize("bad, path", [
        ("fixed<99,1>", "$.layers[3].precision: "),
        ("fixed<12,3,rnd,sat", "$.layers[3].precision: "),
        ({"weight": "fixed<12,3,rnd,sat>", "accumulator": "fixed<0,0>"}, "$.layers[3].precision.accumulator: "),
    ])
    def test_bad_string_after_shared_good_ones_names_its_path(self, bad, path):
        for _ in range(2):  # the failure is raised again, not remembered as a spec
            with pytest.raises(ParseError) as err:
                parse_model(shared_precision_document(bad=bad))
            assert str(err.value).startswith(path)
        good = parse_model(shared_precision_document())
        assert good.nodes[4].precision.result == FixedPointSpec.from_string("fixed<12,3,rnd,sat>")

    def test_later_good_parse_of_a_once_bad_string_succeeds(self):
        with pytest.raises(ParseError):
            parse_model(shared_precision_document(text="fixed<65,1>"))
        graph = parse_model(shared_precision_document(text="fixed<64,1>"))
        assert graph.nodes[1].precision.weight == FixedPointSpec.from_string("fixed<64,1>")


class TestRoundTrip:
    def test_parse_serialize_parse_fixed_point(self):
        graph = parse_model(jet_document())
        text = serialize_model(graph)
        graph2 = parse_model(text)
        assert serialize_model(graph2) == text

    def test_validate_empty_for_accepted_documents(self):
        assert validate(parse_model(jet_document())) == []


def number_strings(seed):
    """JSON number texts by class: ``repr`` and fixed-width forms of random
    doubles, decimals of 1-40 digits with exponents -330..310, exact halfway
    points between adjacent doubles and a tiny step to each side of them,
    integers around the 64-bit edges, and the tokens ``json`` reads as non-finite."""
    rng = random.Random(seed)
    bits = np.random.default_rng(seed).integers(0, 2 ** 63, 12000, dtype=np.int64)
    doubles = [v * rng.choice((-1, 1)) for v in bits.view(np.float64).tolist()]
    doubles += [rng.uniform(-2, 2) * 2.0 ** rng.randrange(-1074, 1024) for _ in range(6000)]
    doubles = [v for v in doubles if math.isfinite(v)]
    classes = {fmt: [fmt % v for v in doubles] for fmt in ("%r", "%.17g", "%.20e", "%.25g")}
    decimals = []
    for n in (rng.randrange(1, 41) for _ in range(12000)):
        digits, point = str(rng.randrange(10 ** (n - 1), 10 ** n)), rng.randrange(n + 1)
        mantissa = "0." + digits if point == 0 else f"{digits[:point]}.{digits[point:]}".rstrip(".")
        exponent = rng.randrange(-330, 311)
        decimals.append(f"{rng.choice(('', '-'))}{mantissa}{rng.choice('eE')}"
                        f"{rng.choice(('', '+')) if exponent >= 0 else ''}{exponent}")
    classes["decimal"] = decimals
    halfway = []
    with localcontext() as ctx:
        ctx.prec = 1200
        for v in rng.sample(doubles, 1500):
            lo, hi = abs(v), math.nextafter(abs(v), math.inf)
            if math.isfinite(hi):
                mid = (Decimal(lo) + Decimal(hi)) / 2
                tiny = Decimal(10) ** (mid.adjusted() - 1100)
                sign = "-" if v < 0 else ""
                halfway += [sign + str(mid), sign + str(mid + tiny), sign + str(mid - tiny)]
    classes["halfway"] = halfway
    edges = [0, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1,
             2 ** 70 + 3, 10 ** 308, 10 ** 400]
    ints = [rng.randrange(-10 ** n, 10 ** n) for n in range(1, 40) for _ in range(40)]
    classes["int"] = [str(i) for i in ints + edges + [-e - 1 for e in edges]] + ["-0"]
    classes["non-finite"] = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" * 400]
    return classes


def assert_decoded_alike(text, got, expected):
    """orjson's number equals json's bit for bit, or is json's integer outside
    [-2**63, 2**64) as a float of the same value."""
    if type(expected) is int and not -2 ** 63 <= expected < 2 ** 64:
        assert type(got) is float and got == float(expected), text
    elif type(expected) is float:
        assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", expected), text
    else:
        assert type(got) is int and got == expected, text


class TestDecoder:
    """``parse_model`` decodes with orjson and falls back to ``json`` on any doubt."""

    def test_orjson_reads_numbers_as_json_does_or_raises(self):
        checked = total = 0
        for name, strings in number_strings(1753).items():
            total += len(strings)
            text = "[" + ",".join(strings) + "]"
            try:
                pairs = [(s, g, e) for s, g, e in zip(strings, orjson.loads(text), json.loads(text))]
            except orjson.JSONDecodeError:  # some string is rejected: decode one by one
                pairs = []
                for s in strings:
                    try:
                        pairs.append((s, orjson.loads(s), json.loads(s)))
                    except orjson.JSONDecodeError:
                        pass
            for s, got, expected in pairs:
                assert_decoded_alike(s, got, expected)
            checked += len(pairs)
            if name == "non-finite":
                assert pairs == []
        assert checked > 0.9 * total

    def test_outcome_is_the_stdlib_paths_on_mutated_documents(self, monkeypatch):
        base = doc([{"name": "in", "kind": "input"},
                    dense_doc("d", [0.5, -1.0, 0.25, 2.0], [0.0, 1.0], reuse_factor=2),
                    {"name": "bn", "kind": "batch_norm", "params": {
                        **{key: {"shape": [2], "data": [1.0, 0.5]}
                           for key in ("gamma", "beta", "moving_mean", "moving_variance")},
                        "epsilon": 0.001}}])
        assert '"data": [0.5, -1.0, 0.25, 2.0]' in base and '"input_shape": [2]' in base
        deep = "[" * 1100 + "]" * 1100
        deep_objects = '{"a": ' * 1100 + "0" + "}" * 1100
        swaps = [(old, old[:-5] + new) for new in ("NaN", "Infinity", "-Infinity", "1e400")
                 for old in ("-1.0, 0.25", '"epsilon": 0.001')]
        for big in (str(2 ** 64), str(-(2 ** 63) - 1)):
            swaps += [('"shape": [2, 2]', f'"shape": [{big}, 2]'),
                      ('"input_shape": [2]', f'"input_shape": [{big}]'),
                      ('"reuse_factor": 2', f'"reuse_factor": {big}'),
                      ("-1.0, 0.25", "-1.0, " + big), ('"epsilon": 0.001', f'"epsilon": {big}')]
        swaps += [('"name": "d"', '"name": "d\\ud800"'), ('"name": "d"', '"name": "d\ud800"'),
                  ('"data": [0.0, 1.0]', '"data": ' + deep),
                  ('{"format_version"', '{"extra": ' + deep + ', "format_version"'),
                  ('"shape": [2, 2]', '"extra": ' + deep + ', "shape": [2, 2]'),
                  ('{"format_version"', '{"extra": [1], "format_version"'),
                  ('"shape": [2, 2]', '"extra": 1, "shape": [2, 2]'),
                  ('"reuse_factor": 2', '"reuse_factor": 3, "reuse_factor": 2'),
                  # A value a duplicate key drops passes no check; json may not decode it.
                  ('"reuse_factor": 2', f'"reuse_factor": {deep}, "reuse_factor": 2'),
                  ('"reuse_factor": 2', f'"reuse_factor": {deep_objects}, "reuse_factor": 2'),
                  ('"layers": [', f'"layers": {deep}, "layers": ['),
                  ('"data": [0.0, 1.0]', f'"data": {deep}, "data": [0.0, 1.0]'),
                  ('"data": [0.0, 1.0]', '"data": ' + "[" * 600 + "]" * 600 + ', "data": [0.0, 1.0]'),
                  ('"name": "bn"', '"name": "d", "name": "bn"'),
                  ('"kind": "dense"', '"kind": "dense", "kind": "relu"'),
                  ('"reuse_factor": 2', '"reuse_factor": 2.0')]
        mutants = [base.replace(old, new, 1) for old, new in swaps]
        mutants += ["\ufeff" + base, base + " x", base + "}", base + "\n\t "]
        assert all(m != base for m in mutants)

        def outcomes():
            found = []
            for text in mutants:
                try:
                    found.append(serialize_model(parse_model(text)))
                except Exception as e:
                    found.append((type(e), str(e)))
            return found

        fast = outcomes()

        def refuse(text):
            raise orjson.JSONDecodeError("refused", "", 0)

        monkeypatch.setattr(orjson, "loads", refuse)
        assert fast == outcomes()
        assert sum(isinstance(r, str) for r in fast) >= 8


class TestBytes:
    """``parse_model`` on a file's bytes does what it does on the text ``open()`` reads."""

    @staticmethod
    def outcome(parse):
        try:
            return serialize_model(parse())
        except Exception as e:
            return (type(e), str(e))

    def test_bytes_parse_as_the_text_open_reads(self, tmp_path):
        base = json.dumps(json.loads(doc([{"name": "in\u00e9\u03bb", "kind": "input"},
                                          dense_doc("d\U0001f642", [0.5, -1.0, 0.25, 2.0], [0.0, 1.0]),
                                          {"name": "r", "kind": "relu"}])),
                          indent=2, ensure_ascii=False).encode()
        assert "\u00e9".encode() in base and b"\n" in base
        deep = b"[" * 600 + b"]" * 600
        variants = {
            "plain": base,
            "crlf": base.replace(b"\n", b"\r\n"),
            "cr": base.replace(b"\n", b"\r"),
            "crlf, then an error": base.replace(b"\n", b"\r\n") + b"\r\n x",
            "bom": b"\xef\xbb\xbf" + base,
            "invalid utf-8 in a name": base.replace(b'"r"', b'"r\xff"'),
            "invalid utf-8 after the document": base + b"\xc3",
            "encoded surrogate": base.replace(b'"r"', b'"r\xed\xa0\x80"'),
            "nan": base.replace(b"0.25", b"NaN"),
            "duplicate key": base.replace(b'"kind": "relu"', b'"kind": "dense", "kind": "relu"'),
            "past 500 openers, dropped by a duplicate key":
                base.replace(b'"kind": "relu"', b'"kind": ' + deep + b', "kind": "relu"'),
            "past 500 openers, kept": base.replace(b'"kind": "relu"', b'"kind": "relu", "x": ' + deep),
        }
        outcomes = {}
        for name, data in variants.items():
            path = tmp_path / "m.json"
            path.write_bytes(data)

            def from_text():
                with open(path, encoding="utf-8") as fh:
                    return parse_model(fh.read())

            outcomes[name] = self.outcome(lambda: parse_model(data))
            assert outcomes[name] == self.outcome(from_text), name
        parsed = [name for name, found in outcomes.items() if isinstance(found, str)]
        assert parsed == ["plain", "crlf", "cr", "duplicate key", "past 500 openers, dropped by a duplicate key"]
        assert len({outcomes[name] for name in parsed}) == 1
        assert outcomes["bom"][0] is ParseError and "BOM" in outcomes["bom"][1]
        # Line ends read as "\n", so the diagnostic's character offset is that of the LF text.
        assert outcomes["crlf, then an error"] == self.outcome(lambda: parse_model((base + b"\n x").decode()))
        assert "Extra data" in outcomes["crlf, then an error"][1]
        for name in ("invalid utf-8 in a name", "invalid utf-8 after the document", "encoded surrogate"):
            assert outcomes[name][0] is UnicodeDecodeError, name


def reindented(text):
    """What the stdlib's indent=2 encoder writes for the same document."""
    return json.dumps(json.loads(text), indent=2) + "\n"


def stdlib_text(graph):
    """The document of ``graph`` with every array as its ``tolist()``, written by
    ``json.dumps(indent=2)``: what ``serialize_model`` must write byte for byte."""
    def tensor(t):
        values = t.to_numpy().reshape(-1).tolist()
        if t.shape == (1,) and not t.is_quantized():
            return values[0]
        return {"shape": list(t.shape), "data": values}

    layers = [{"name": n.name, "kind": n.kind,
               "params": {k: tensor(v) for k, v in sorted(n.params.items())},
               "precision": n.precision.to_doc(), "reuse_factor": n.reuse_factor,
               "compression": n.compression} for n in graph.nodes]
    doc = {"format_version": "1", "input_shape": list(graph.input_shape), "layers": layers}
    return json.dumps(doc, indent=2) + "\n"


EXTREME_REALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 1e-4, math.nextafter(1e-4, 0), 1e16, math.nextafter(1e16, 0), 1e-5, 0.1,
                 -1e300, math.inf, -math.inf, math.nan]
AWKWARD_NAMES = ['"data": []', 'q"uo\\te', "\u00e9\u03bb\U0001f642", "a\nb\t\x7f", "",
                 '"data": [', "data", "shape"]
SPECS = ["fixed<16,6>", "fixed<8,3,u>", "fixed<64,1>", "fixed<64,64,u>", "fixed<12,-4>", "fixed<10,20>"]


def refusal(graph):
    """The ValueError text of writing ``graph``, naming its first value in document
    order that is not finite; None when every value is finite."""
    for node in graph.nodes:
        for key, t in sorted(node.params.items()):
            bad = [v for v in t.to_numpy().reshape(-1).tolist() if not math.isfinite(v)]
            if bad:
                return f"layer {node.name!r}: param {key!r} holds {bad[0]}, a model document holds finite numbers"
    return None


def written_or_refused(graph, write):
    """``write(graph)``, or None after checking that it raises the ``refusal`` of ``graph``."""
    message = refusal(graph)
    if message is None:
        return write(graph)
    with pytest.raises(ValueError) as refused:
        write(graph)
    assert str(refused.value) == message
    return None


def random_graph(rng):
    """A chain of random layers with awkward names, scalar and tensor params named
    like document fields, 1-element tensors, real and quantized, and extreme reals;
    ``serialize_model`` does not validate, so kinds and shapes need not fit."""
    def tensor():
        shape = rng.choice([(1,), (1, 1), (rng.randrange(1, 5),), (rng.randrange(1, 4), rng.randrange(1, 4))])
        size = math.prod(shape)
        if rng.random() < 0.4:
            spec = FixedPointSpec.from_string(rng.choice(SPECS))
            raws = [rng.choice([spec.min_raw, spec.max_raw, 0, rng.randint(spec.min_raw, spec.max_raw)])
                    for _ in range(size)]
            return Tensor(shape, raws, spec)
        return Tensor(shape, [rng.choice(EXTREME_REALS + [rng.uniform(-2, 2)]) for _ in range(size)])

    nodes = []
    for i in range(rng.randrange(1, 5)):
        keys = rng.sample(["data", "shape", "weight", "bias", "value", '"data": []'], rng.randrange(4))
        params = {k: Tensor.scalar(rng.choice(EXTREME_REALS)) if rng.random() < 0.3 else tensor()
                  for k in keys}
        precision = PrecisionSet(*(FixedPointSpec.from_string(rng.choice(SPECS)) for _ in range(4)))
        nodes.append(LayerNode(rng.choice(AWKWARD_NAMES) + str(i), rng.choice(["input", "dense", "relu"]),
                               params, precision, rng.randrange(1, 9), rng.random() < 0.5))
    return ModelGraph.chain(nodes, (rng.randrange(1, 9),))


class TestSerializeText:
    """``serialize_model`` writes exactly what ``json.dumps(indent=2)`` would."""

    def test_reference_and_every_kind_models(self):
        from golden_model import build_reference_model
        from test_codegen import every_kind_model, wide_model

        for graph in (build_reference_model(), every_kind_model(), wide_model(),
                      parse_model(jet_document())):
            text = serialize_model(graph)
            assert text == reindented(text)

    def test_quantized_tensors(self):
        from fixflow.kernels import materialize_quantized
        from test_codegen import every_kind_model, wide_model

        for graph in (every_kind_model(), wide_model()):
            quantized = materialize_quantized(graph)
            assert any(t.is_quantized() for n in quantized.nodes for t in n.params.values())
            text = serialize_model(quantized)
            assert text == reindented(text)

    def test_awkward_names_and_scalar_params(self):
        import numpy as np

        # Scalar params named like tensor fields must not confuse the writer.
        graph = ModelGraph.chain([
            LayerNode("input", "input"),
            LayerNode('d\u00e9"\\\u03bb \U0001f642', "dense", {
                "weight": Tensor.from_numpy(np.array([[0.5, -0.0], [1e300, 5e-324]])),
                "bias": Tensor.from_numpy(np.array([-0.25, 0.0])),
                "data": Tensor.scalar(0.0),
                "shape": Tensor.scalar(-0.0),
            }),
        ], (2,))
        text = serialize_model(graph)
        assert text == reindented(text)
        assert '"data": 0.0' in text and '"shape": -0.0' in text

    def test_arrays_of_awkward_reals_match_the_stdlib(self):
        # Both sides of each edge of the range orjson writes, values below
        # it, zeros and the smallest subnormal, alone, spread through a long
        # array of ordinary values, and a 1 M-value log-uniform array that
        # also crosses both edges.
        edges = [0.0, 5e-324, 1e-4, 1e16, 1.7976931348623157e308, 1.5e-5, 9.99e-5]
        edges += [math.nextafter(e, d) for e in (1e-4, 1e16) for d in (0, math.inf)]
        edges += [-e for e in edges]
        rng = np.random.default_rng(2103)
        spread = rng.uniform(-2, 2, 4000)
        spread[[0, 1, 2, 1000, 3999]] = edges[:5]
        spread[rng.choice(4000, len(edges), replace=False)] = edges
        # Magnitudes 2**-19 to 2**57, made with exact operations only, so the
        # values are the same bits on every platform. Writing their stdlib
        # text takes about a second, so it is written only when the document
        # differs from the one whose data text was checked equal to it.
        n, big_rng = 1_000_000, np.random.default_rng(2104)
        log_uniform = np.ldexp((1 + big_rng.random(n)) * big_rng.choice((-1.0, 1.0), n),
                               big_rng.integers(-19, 57, n))
        checked = "e026228357df29ec78f4be975cd343513f3d425b5ca6ba45f3027d57bdb0e4e2"
        pad = " " * 12
        sep = ",\n" + pad
        for values in (np.array(edges), rng.uniform(1e-5, 1e-4, 50), spread, log_uniform):
            graph = ModelGraph.chain(
                [LayerNode("input", "input", {"value": Tensor.from_numpy(values)})], (values.size,))
            text = serialize_model(graph)
            if values is log_uniform and hashlib.sha256(text.encode()).hexdigest() == checked:
                continue
            stdlib = json.dumps(values.tolist(), separators=(sep, ": "))[1:-1]
            assert f'"data": [\n{pad}{stdlib}\n{pad[2:]}]' in text
            if values.size < 10_000:
                assert text == reindented(text)

    def test_orjson_writes_every_run_inside_its_range(self):
        # Zeros and magnitudes in [1e-4, 1e16) go in one orjson call per run, the
        # rest through json. Both write the edge values alike, so only the pieces
        # show which side of each edge a value went.
        from fixflow.model_ir import _real_texts

        sep = b",\n  "
        for v in (1e-4, -1e-4, math.nextafter(1e16, 0), 0.0, -0.0):
            assert _real_texts(np.array([0.5, v, 0.5]), sep) == [sep.join([b"0.5", json.dumps(v).encode(), b"0.5"])]
        for v in (math.nextafter(1e-4, 0), 1e16, -1e16, 5e-324, math.nan):
            assert _real_texts(np.array([0.5, v, 0.5]), sep) == [b"0.5", json.dumps(v).encode(), b"0.5"]

    def test_splice_matches_stdlib_on_random_graphs(self):
        # 400 graphs of finite values are written; each graph drawn on the way that holds
        # a value that is not finite is refused.
        rng, written = random.Random(2103), 0
        while written < 400:
            graph = random_graph(rng)
            text = written_or_refused(graph, serialize_model)
            if text is not None:
                assert text == stdlib_text(graph), graph
                written += 1

    def test_model_hash_is_that_of_the_document_bytes(self):
        rng, hashed = random.Random(2103), 0
        while hashed < 400:
            graph = random_graph(rng)
            digest = written_or_refused(graph, model_hash)
            if digest is not None:
                assert digest == hashlib.sha256(serialize_model(graph).encode()).hexdigest(), graph
                hashed += 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("write", [serialize_model, model_hash])
    def test_a_value_that_is_not_finite_is_refused(self, value, write):
        from test_passes import bn_params

        dense = LayerNode("d0", "dense", {"weight": Tensor.from_numpy(np.array([[0.5, value], [1.0, 0.25]])),
                                          "bias": Tensor.from_numpy(np.zeros(2))})
        bn = LayerNode("bn", "batch_norm", bn_params([1.0, value], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], 0.001))
        eps = LayerNode("bn", "batch_norm", bn_params([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], value))
        for layer, param in ((dense, "weight"), (bn, "gamma"), (eps, "epsilon")):
            graph = ModelGraph.chain([LayerNode("input", "input"), layer], (2,))
            with pytest.raises(ValueError) as refused:
                write(graph)
            assert str(refused.value) == (f"layer {layer.name!r}: param {param!r} holds {value}, "
                                          "a model document holds finite numbers")


class TestValidate:
    def test_reuse_factor_zero(self):
        graph = parse_model(jet_document())
        bad = [n if n.name != "fc1" else
               LayerNode(n.name, n.kind, n.params, n.precision, 0, n.compression)
               for n in graph.nodes]
        diags = validate(graph.replace_nodes(bad))
        assert any(d.layer == "fc1" and "reuse" in d.rule for d in diags)

    def test_batch_norm_missing_gamma(self):
        width = 2
        params = {
            "beta": Tensor((width,), (0.0, 0.0)),
            "moving_mean": Tensor((width,), (0.0, 0.0)),
            "moving_variance": Tensor((width,), (1.0, 1.0)),
            "epsilon": Tensor.scalar(1e-3),
        }
        nodes = [LayerNode("input", "input"), LayerNode("bn", "batch_norm", params)]
        diags = validate(ModelGraph.chain(nodes, (2,)))
        assert any(d.layer == "bn" and "gamma" in d.message for d in diags)

    @pytest.mark.parametrize("kind", ["binary_tanh", "ternary_tanh"])
    @pytest.mark.parametrize("result, ok", [
        ("fixed<8,2>", True), ("fixed<2,2>", True), ("fixed<8,1,sat>", True), ("fixed<64,1,sat>", True),
        ("fixed<8,0,sat>", True), ("fixed<8,1>", False), ("fixed<64,1>", False), ("fixed<8,0>", False),
        ("fixed<8,-3>", False), ("fixed<8,2,u>", False), ("fixed<8,2,u,sat>", False),
    ])
    def test_sign_levels_must_differ(self, kind, result, ok):
        # Where +1 wraps to a raw that is not positive, or -1 to one that is not
        # negative, the layer would output one level for every input.
        nodes = [LayerNode("input", "input"),
                 LayerNode("s", kind, precision=PrecisionSet.uniform(result))]
        diags = validate(ModelGraph.chain(nodes, (2,)))
        assert diags == ([] if ok else [Diagnostic("s", "precision", f"result {result} cannot tell +1 from -1")])

    def test_compression_only_on_dense(self):
        nodes = [LayerNode("input", "input"),
                 LayerNode("r", "relu", compression=True)]
        diags = validate(ModelGraph.chain(nodes, (2,)))
        assert any(d.layer == "r" and d.rule == "compression" for d in diags)

    def test_duplicate_names_in_a_graph_built_in_python(self):
        # The parser rejects these first, so only a graph built in code reaches the check.
        nodes = [LayerNode("input", "input"), LayerNode("r", "relu"), LayerNode("r", "relu"),
                 LayerNode("s", "relu")]
        assert validate(ModelGraph.chain(nodes, (2,))) == [Diagnostic("r", "names", "duplicate layer name")]


class TestTopoOrder:
    def test_chain(self):
        graph = parse_model(jet_document())
        names = [n.name for n in topo_order(graph)]
        assert names == [n.name for n in graph.nodes]

    def test_single_node(self):
        graph = ModelGraph.chain([LayerNode("input", "input")], (2,))
        assert [n.name for n in topo_order(graph)] == ["input"]

    def test_deterministic(self):
        graph = parse_model(jet_document())
        first = [n.name for n in topo_order(graph)]
        for _ in range(5):
            assert [n.name for n in topo_order(graph)] == first


class TestWalk:
    def test_empty_chain(self):
        graph = ModelGraph.chain([], (2,))
        empty = Diagnostic("<graph>", "structure", "chain has no layers")
        with pytest.raises(ValidationError) as err:
            walk(graph)
        assert err.value.diagnostics == (empty,)
        assert validate(graph) == [empty]

    def test_specs_and_widths(self):
        graph = parse_model(jet_document())
        steps = walk(graph)
        assert [node.name for node, *_ in steps] == [n.name for n in graph.nodes]
        assert steps[0][1] is None
        for (prev, *_), (_, in_spec, _, _) in zip(steps, steps[1:]):
            assert in_spec == prev.precision.result
        assert [(s[2], s[3]) for s in steps][:3] == [(16, 16), (16, 64), (64, 64)]

    @pytest.mark.parametrize("names_kinds, culprit", [
        ([("r", "relu")], "r"),
        ([("input", "input"), ("late", "input")], "late"),
        ([("input", "input"), ("s", "softmax"), ("r", "relu")], "s"),
        ([("input", "input"), ("c", "conv2d")], "c"),
    ])
    def test_rejects_misplaced_or_unknown_layers(self, names_kinds, culprit):
        graph = ModelGraph.chain([LayerNode(n, k) for n, k in names_kinds], (2,))
        with pytest.raises(ValidationError) as err:
            walk(graph)
        assert f"[{culprit}]" in str(err.value)
        assert [d.layer for d in validate(graph)] == [culprit]


class TestTensor:
    def test_shape_data_consistency(self):
        with pytest.raises(ValueError):
            Tensor((2, 2), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            Tensor((), ())
        with pytest.raises(ValueError):
            Tensor((0,), ())

    def test_row_major_indexing(self):
        t = Tensor((2, 3), tuple(float(i) for i in range(6)))
        assert t.at(1, 2) == 5.0

    def test_numpy_round_trip(self):
        import numpy as np

        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        t = Tensor.from_numpy(arr)
        assert t.shape == (2, 3)
        assert (t.to_numpy() == arr).all()

    def test_quantized_flag(self):
        from fixflow.fixed_point import FixedPointSpec

        s = FixedPointSpec(8, 4)
        t = Tensor((2,), (FixedPointValue(1, s), FixedPointValue(2, s)))
        assert t.is_quantized()
        assert not Tensor((1,), (0.5,)).is_quantized()

    @pytest.mark.parametrize("spec_text, raws", [
        ("fixed<64,2>", [-(1 << 63), (1 << 63) - 1, (1 << 53) + 1, -(1 << 53) - 3, 0]),
        ("fixed<64,70>", [-(1 << 63), (1 << 63) - 1, (1 << 60) + 5]),
        ("fixed<64,2,u>", [(1 << 64) - 1, (1 << 63), (1 << 53) + 1, 1]),
        ("fixed<64,-1000>", [-(1 << 63), (1 << 63) - 1, 3]),
    ])
    def test_64_bit_raws_stay_exact(self, spec_text, raws):
        from fixflow.fixed_point import FixedPointSpec

        spec = FixedPointSpec.from_string(spec_text)
        t = Tensor((len(raws),), [FixedPointValue(r, spec) for r in raws])
        assert t.spec == spec
        assert [v.raw for v in t.data] == raws
        assert all(v.spec == spec for v in t.data)
        assert t.to_numpy().tolist() == [FixedPointValue(r, spec).to_float() for r in raws]
        assert Tensor(t.shape, t.array, spec).data == t.data

    def test_mixed_specs_rejected(self):
        from fixflow.fixed_point import FixedPointSpec

        a, b = FixedPointSpec(8, 4), FixedPointSpec(8, 3)
        with pytest.raises(ValueError):
            Tensor((2,), (FixedPointValue(1, a), FixedPointValue(1, b)))
        with pytest.raises(ValueError):
            Tensor((2,), (FixedPointValue(1, a), 0.5))

    def test_copies_its_input(self):
        import numpy as np

        source = np.arange(4, dtype=np.float64)
        t = Tensor.from_numpy(source)
        source[0] = 99.0
        assert t.data == (0.0, 1.0, 2.0, 3.0)
        arr = t.to_numpy()
        arr[1] = -1.0
        assert t.to_numpy().tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_array_is_read_only(self):
        from fixflow.fixed_point import FixedPointSpec

        for t in (Tensor.from_numpy([1.0, 2.0]), Tensor((2,), [3, 4], FixedPointSpec(8, 4))):
            with pytest.raises(ValueError):
                t.array[0] = 0

    def test_ndarray_raws_out_of_range_rejected(self):
        import numpy as np
        from fixflow.fixed_point import FixedPointSpec

        with pytest.raises(ValueError):
            Tensor((2,), np.array([1, 128]), FixedPointSpec(8, 4))
        with pytest.raises(ValueError):
            Tensor((1,), np.array([1 << 70], dtype=object), FixedPointSpec(64, 2))


# Ties k + 1/2, and values one ulp off 1/2 whose float sum with 0.5 rounds
# onto an integer (0.5 - 2**-54 + 0.5 rounds to 1.0).
_TIES = [k + 0.5 for k in range(-4, 4)] + [0.5 - 2.0 ** -54, -0.5 - 2.0 ** -53, -0.5 + 2.0 ** -54,
                                           2.5 - 2.0 ** -51, -(2.5 - 2.0 ** -51)]
_AT_2_52 = [2.0 ** 52 - 0.5, 2.0 ** 52 - 1.5, 2.0 ** 52, 2.0 ** 52 + 1, 2.0 ** 53 - 1, 2.0 ** 53 + 2,
            -(2.0 ** 52) - 1, -(2.0 ** 52) + 0.5, 2.0 ** 62 - 1024, -(2.0 ** 62) + 512]
_AT_2_63 = [2.0 ** 62, 2.0 ** 63 - 1024, 2.0 ** 63, 2.0 ** 63 + 2048, -(2.0 ** 63), -(2.0 ** 63) - 2048, 1.5]
_TINY = [5e-324, -5e-324, 1e-310, -1e-310, 2.0 ** -1022, -(2.0 ** -1022), 0.0, -0.0, 0.75, -0.75]


class TestQuantized:
    """``Tensor.quantized`` equals element-wise ``quantize``; (spec, values,
    whether the whole tensor takes the vectorized path)."""

    CASES = [
        ("fixed<8,8,rnd>", _TIES, True),
        ("fixed<8,8>", _TIES, True),
        ("fixed<10,8,rnd,sat>", [v / 4 for v in _TIES], True),
        ("fixed<64,64,rnd>", _AT_2_52, True),
        ("fixed<64,64>", _AT_2_52, True),
        ("fixed<60,60,rnd>", _AT_2_52, True),
        ("fixed<60,60,sat>", _AT_2_52, True),
        ("fixed<64,64,u>", _AT_2_52, True),
        ("fixed<64,64,u,rnd,sat>", _AT_2_52, True),
        ("fixed<64,64,rnd>", _AT_2_63, False),
        ("fixed<64,64,sat>", _AT_2_63, False),
        ("fixed<64,64,u>", _AT_2_63, False),
        ("fixed<60,60,rnd,sat>", _AT_2_63, False),
        ("fixed<64,2,rnd,sat>", [0.1, -0.3, 0.999, -0.999999, -1e-17], True),
        ("fixed<64,2,rnd,sat>", [0.1, 1.5, -3.75, 7.0], False),
        ("fixed<60,10,rnd>", [511.9999, -512.0, 1000.25, -1e-7, 4000.0625], True),
        ("fixed<8,12,rnd>", [17.0, -17.0, 8.0, -8.0, 24.0, 2000.0, -2000.0, 0.3, -0.3], True),
        ("fixed<8,12,u,sat>", [17.0, -17.0, 8.0, -8.0, 24.0, 2000.0, 5000.0], True),
        ("fixed<6,10>", [17.0, -17.0, 8.0, 2000.0, -2000.0, 0.3, -0.3], True),
        ("fixed<8,4,u>", [-1.0, 3.3, 16.5, 15.99, -0.01], True),
        ("fixed<8,4,u,rnd,sat>", [-1.0, 3.3, 16.5, 15.99, -0.01, 0.015625, 0.046875], True),
        ("fixed<16,8>", _TINY, True),
        ("fixed<16,8,rnd>", _TINY, True),
        ("fixed<16,24>", _TINY, True),
        ("fixed<16,24,rnd>", _TINY, True),
        ("fixed<16,916>", _TINY + [1e-300, -1e-300], True),
        ("fixed<16,-884,sat>", _TINY[:-2], True),
        ("fixed<16,-890>", [1e-270, -1e-270, 0.0], False),
    ]

    @pytest.mark.parametrize("spec_text, values, vectorized", CASES)
    def test_matches_elementwise_quantize(self, spec_text, values, vectorized, monkeypatch):
        from fixflow import model_ir
        from fixflow.fixed_point import FixedPointSpec, quantize

        spec = FixedPointSpec.from_string(spec_text)
        want = [quantize(v, spec).raw for v in values]
        calls = []

        def counting(x, s):
            calls.append(x)
            return quantize(x, s)

        monkeypatch.setattr(model_ir, "quantize", counting)
        got = Tensor((len(values),), values).quantized(spec)
        assert got.spec == spec
        assert got.array.tolist() == want
        assert (not calls) == vectorized

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_raises(self, bad):
        from fixflow.fixed_point import FixedPointSpec

        with pytest.raises(ValueError):
            Tensor((3,), (0.5, bad, 1.0)).quantized(FixedPointSpec(16, 8))


class InPlaceCases:
    """The in-place rule of every file the program writes, for the writer ``self.write(path, text)``."""

    def test_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        self.write(path, "a much longer first text\n" * 50)
        self.write(path, "short\n")
        assert path.read_bytes() == b"short\n"

    def test_rewrite_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "f.txt"
        self.write(path, "first\n")
        path.chmod(0o640)
        before = path.stat()
        self.write(path, "second, longer\n")
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert path.read_text() == "second, longer\n"

    def test_new_file_mode_is_that_of_open_under_the_umask(self, tmp_path):
        old = os.umask(0o002)
        try:
            with open(tmp_path / "by_open.txt", "w") as fh:
                fh.write("x")
            self.write(tmp_path / "by_helper.txt", "x")
        finally:
            os.umask(old)
        assert (tmp_path / "by_helper.txt").stat().st_mode == (tmp_path / "by_open.txt").stat().st_mode

    def test_symlink_updates_its_target(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old target text, longer than the new\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        self.write(link, "new\n")
        assert link.is_symlink() and target.read_text() == "new\n"

    def test_device_is_written_not_cut(self, tmp_path):
        link = tmp_path / "discard.txt"
        link.symlink_to(os.devnull)
        self.write(link, "thrown away\n")
        assert link.is_symlink()

    def test_fifo_reader_receives_every_byte(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        text = "".join(f"{i} {-i}\n" for i in range(40_000))  # several pipe buffers
        received = []

        def read():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        self.write(fifo, text)
        reader.join(timeout=30)
        assert not reader.is_alive() and received == [text.encode()]


class TestOpenOutput(InPlaceCases):
    @staticmethod
    def write(path, text):
        with open_output(path) as fh:
            fh.write(text)

    def test_error_inside_the_block_cuts_at_what_was_written(self, tmp_path):
        path = tmp_path / "f.txt"
        self.write(path, "old text that must not survive\n")
        with pytest.raises(RuntimeError):
            with open_output(path) as fh:
                fh.write("new\n")
                raise RuntimeError("stopped while writing")
        assert path.read_text() == "new\n"

    def test_csv_rows_keep_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        trainer._write_csv(path, ["a", "b"], [[1, 2], [3, 4], [5, 6]])
        trainer._write_csv(path, ["a", "b"], [[7, 8]])
        assert path.read_bytes() == b"a,b\r\n7,8\r\n"


class TestWriteOutput(InPlaceCases):
    @staticmethod
    def write(path, text):
        write_output(path, text.encode())

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        path = tmp_path / "f.txt"
        self.write(path, "old text that is longer than the new\n")
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:3]))
        write_output(path, b"new text\n")
        monkeypatch.undo()
        assert path.read_bytes() == b"new text\n"

    def test_error_mid_write_cuts_at_what_was_written_and_closes(self, tmp_path, monkeypatch):
        path = tmp_path / "f.txt"
        self.write(path, "old text that must not survive\n")
        real_write, calls = os.write, []

        def write_then_fail(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:4])

        open_fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "write", write_then_fail)
        with pytest.raises(OSError):
            write_output(path, b"new text, stopped\n")
        monkeypatch.undo()
        assert path.read_bytes() == b"new "
        assert len(os.listdir("/proc/self/fd")) == open_fds
