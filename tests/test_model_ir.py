import json
import os

import pytest

from fixflow import trainer
from fixflow.fixed_point import FixedPointValue
from fixflow.kernels import run_inference
from fixflow.model_ir import (
    Diagnostic,
    LayerNode,
    ModelGraph,
    ParseError,
    PrecisionSet,
    Tensor,
    ValidationError,
    open_output,
    parse_model,
    serialize_model,
    topo_order,
    validate,
    walk,
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


class TestRoundTrip:
    def test_parse_serialize_parse_fixed_point(self):
        graph = parse_model(jet_document())
        text = serialize_model(graph)
        graph2 = parse_model(text)
        assert serialize_model(graph2) == text

    def test_validate_empty_for_accepted_documents(self):
        assert validate(parse_model(jet_document())) == []


def reindented(text):
    """What the stdlib's indent=2 encoder writes for the same document."""
    return json.dumps(json.loads(text), indent=2) + "\n"


def random_document(rng, depth=0):
    """A random JSON value: nested containers, awkward keys, edge-case scalars."""
    scalars = [-0.0, 0.0, 1e300, -1e-300, 2 ** 70, -(2 ** 63), True, False, None,
               0.1, 5e-324, "", "q\"uo\\te", "\u00e9\u03bb\U0001f642\n\t"]
    pick = rng.random()
    if depth < 4 and pick < 0.2:
        return {rng.choice(["data", "shape", "", "k\"", "\u00fc\u00df", "a\nb", "\x7f"]) + str(i):
                random_document(rng, depth + 1) for i in range(rng.randrange(4))}
    if depth < 4 and pick < 0.35:
        return [random_document(rng, depth + 1) for _ in range(rng.randrange(4))]
    if pick < 0.5:  # a flat list of scalars, the serializer's fast path
        return [rng.choice(scalars + [rng.uniform(-9, 9), rng.randrange(-99, 99)])
                for _ in range(rng.randrange(6))]
    if pick < 0.6:
        return tuple(rng.uniform(-1, 1) for _ in range(rng.randrange(3)))
    return rng.choice(scalars + [rng.gauss(0, 1), rng.randrange(-5, 5)])


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

    def test_writer_matches_stdlib_on_random_documents(self):
        import random

        from fixflow.model_ir import _dump

        rng = random.Random(2103)
        for _ in range(3000):
            doc = random_document(rng)
            parts = []
            _dump(doc, "", parts)
            assert "".join(parts) == json.dumps(doc, indent=2), doc


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

    def test_compression_only_on_dense(self):
        nodes = [LayerNode("input", "input"),
                 LayerNode("r", "relu", compression=True)]
        diags = validate(ModelGraph.chain(nodes, (2,)))
        assert any(d.layer == "r" and d.rule == "compression" for d in diags)


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


def write(path, text):
    with open_output(path) as fh:
        fh.write(text)


class TestOpenOutput:
    def test_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        write(path, "a much longer first text\n" * 50)
        write(path, "short\n")
        assert path.read_bytes() == b"short\n"

    def test_rewrite_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "f.txt"
        write(path, "first\n")
        path.chmod(0o640)
        before = path.stat()
        write(path, "second, longer\n")
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert path.read_text() == "second, longer\n"

    def test_new_file_mode_is_that_of_open_under_the_umask(self, tmp_path):
        old = os.umask(0o002)
        try:
            with open(tmp_path / "by_open.txt", "w") as fh:
                fh.write("x")
            write(tmp_path / "by_helper.txt", "x")
        finally:
            os.umask(old)
        assert (tmp_path / "by_helper.txt").stat().st_mode == (tmp_path / "by_open.txt").stat().st_mode

    def test_symlink_updates_its_target(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old target text, longer than the new\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write(link, "new\n")
        assert link.is_symlink() and target.read_text() == "new\n"

    def test_device_is_written_not_cut(self, tmp_path):
        link = tmp_path / "discard.txt"
        link.symlink_to(os.devnull)
        write(link, "thrown away\n")
        assert link.is_symlink()

    def test_error_inside_the_block_cuts_at_what_was_written(self, tmp_path):
        path = tmp_path / "f.txt"
        write(path, "old text that must not survive\n")
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
