import functools
import json
import os
import re
import shutil
import subprocess
import traceback
from dataclasses import replace

import numpy as np
import pytest

from fixflow import codegen, estimator, profiler, pruning, trainer
from fixflow.codegen import (
    CodegenConfig,
    ProjectTree,
    REPORT_SCHEMA,
    emit_project,
    emit_report,
)
from fixflow.cli import run
from fixflow.kernels import materialize_quantized, run_inference
from fixflow.model_ir import (LayerNode, ModelGraph, PrecisionSet, Tensor, ValidationError,
                              parse_model, topo_order)

from golden_model import build_reference_model, emit_reference_tree
from oracles import oracle_dense_mv_raws, oracle_relu_raws, oracle_sign_raws

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "ref_project")
# How the firmware spells a raw of -2**63 (TestInt64MinLiterals).
INT64_MIN_CXX = "(-9223372036854775807LL - 1)"


def build_and_run(project, input_lines) -> list:
    """Build an emitted project with its build.sh, feed it raw rows, return its output lines.

    The build adds -Werror, so a compiler warning fails it. With
    FIXFLOW_UBSAN=1 it also adds -fsanitize=undefined
    -fno-sanitize-recover=all, so undefined behaviour stops the run with
    UBSan's report. Skips when no C++ compiler is installed.
    """
    compiler = shutil.which("g++") or shutil.which("c++") or shutil.which("clang++")
    if compiler is None:
        pytest.skip("no C++ toolchain found; compile-and-compare skipped, non-blocking")
    flags = " -Werror"
    if os.environ.get("FIXFLOW_UBSAN") == "1":
        flags += " -fsanitize=undefined -fno-sanitize-recover=all"
    env = {**os.environ, "CXX": compiler + flags}
    (project / "in.txt").write_text("".join(line + "\n" for line in input_lines))
    for argv in (["sh", str(project / "build.sh")],
                 [str(project / "build" / "testbench"), str(project / "in.txt"),
                  str(project / "out.txt")]):
        done = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert done.returncode == 0, f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}"
    return (project / "out.txt").read_text().splitlines()


def dense_doc(name, weight, bias, acc, result, w, b):
    """A dense layer's document: specs for its four slots, weight values row by row, bias values."""
    return {"name": name, "kind": "dense",
            "precision": {"weight": weight, "bias": bias, "accumulator": acc, "result": result},
            "params": {"weight": {"shape": [len(b), len(w) // len(b)], "data": w},
                       "bias": {"shape": [len(b)], "data": b}}}


def assert_codegen_rejects(layers, message, tmp_path, capsys):
    """On a two-input chain of ``layers``, emit_project raises
    CodegenError(message), and ``fixflow codegen`` exits 1 with that message
    and writes nothing."""
    text = json.dumps({"format_version": "1", "input_shape": [2], "layers": layers})
    with pytest.raises(codegen.CodegenError, match=re.escape(message)):
        emit_project(parse_model(text))
    (tmp_path / "m.json").write_text(text)
    assert run(["codegen", "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "p").exists()


class TestDeterminism:
    def test_same_inputs_identical_files(self):
        a = emit_reference_tree()
        b = emit_reference_tree()
        assert a.files == b.files
        manifest_a = {k: v for k, v in a.manifest.items() if k != "generated_at"}
        manifest_b = {k: v for k, v in b.manifest.items() if k != "generated_at"}
        assert manifest_a == manifest_b

    def test_golden_tree_byte_equality(self):
        tree = emit_reference_tree()
        for path, text in tree.files:
            golden_path = os.path.join(GOLDEN_DIR, path)
            assert os.path.exists(golden_path), f"golden file missing: {path}"
            with open(golden_path) as fh:
                assert fh.read() == text, f"drift in {path}"
        emitted_paths = {path for path, _ in tree.files}
        for root, _, files in os.walk(GOLDEN_DIR):
            for name in files:
                rel = os.path.relpath(os.path.join(root, name), GOLDEN_DIR)
                if rel != "manifest.json":
                    assert rel in emitted_paths, f"stale golden file: {rel}"
        with open(os.path.join(GOLDEN_DIR, "manifest.json")) as fh:
            golden_manifest = json.load(fh)
        for key in ("project", "model_hash", "tool_version", "notes"):
            assert golden_manifest[key] == tree.manifest[key]


class TestProjectStructure:
    def test_required_layout(self):
        tree = emit_reference_tree()
        paths = {p for p, _ in tree.files}
        assert "firmware/refnet.cpp" in paths
        assert "firmware/parameters.h" in paths
        assert "firmware/weights/w0.h" in paths
        assert "tb/testbench.cpp" in paths
        assert "build.sh" in paths

    def test_every_dense_emitted_once_in_topo_order(self, jet_float_model):
        tree = emit_project(jet_float_model, CodegenConfig("jetnet"))
        cpp = tree.file("firmware/jetnet.cpp")
        dense_names = [n.name for n in topo_order(jet_float_model) if n.kind == "dense"]
        positions = []
        for name in dense_names:
            matches = re.findall(rf"static void {name}_kernel\(", cpp)
            assert len(matches) == 1
            positions.append(cpp.index(f"static void {name}_kernel("))
        assert positions == sorted(positions)

    def test_weight_literals_decode_to_quantized_weights(self):
        model = materialize_quantized(build_reference_model())
        tree = emit_reference_tree()
        header = tree.file("firmware/weights/w0.h")
        raws = [int(v) for v in re.search(
            r"weight_0\[\] = \{(.*?)\};", header, re.S).group(1).replace("\n", " ").split(",")]
        want = [v.raw for v in model.node("hidden").param("weight").data]
        assert raws == want
        frac = model.node("hidden").precision.weight.fraction_bits
        assert f"2^-{frac}" in header

    def test_coo_variant_for_compressed_layer(self):
        tree = emit_reference_tree()
        header = tree.file("firmware/weights/w1.h")
        assert "coo_index_1" in header and "coo_weight_1" in header
        model = materialize_quantized(build_reference_model())
        nonzero = sum(1 for v in model.node("logits").param("weight").data if v.raw != 0)
        raws = re.search(r"coo_weight_1\[\] = \{(.*?)\};", header, re.S).group(1)
        assert len([v for v in raws.replace("\n", " ").split(",") if v.strip()]) == nonzero

    def test_reuse_factor_in_pragma_comment(self):
        tree = emit_reference_tree()
        cpp = tree.file("firmware/refnet.cpp")
        assert "reuse_factor=2" in cpp and "II=2" in cpp

    def test_trailing_softmax_skipped_with_note(self, jet_float_model):
        tree = emit_project(jet_float_model, CodegenConfig("jetnet"))
        assert any("softmax" in note for note in tree.manifest["notes"])
        assert "softmax" not in tree.file("firmware/jetnet.cpp")

    def test_non_final_softmax_rejected(self):
        nodes = [
            LayerNode("input", "input"),
            LayerNode("s", "softmax"),
            LayerNode("r", "relu"),
        ]
        g = ModelGraph.chain(nodes, (2,))
        with pytest.raises(ValidationError):
            emit_project(g)

    def test_unsupported_kind_rejected(self):
        g = ModelGraph.chain([LayerNode("input", "input"),
                              LayerNode("c", "conv2d")], (2,))
        with pytest.raises(ValidationError):
            emit_project(g)

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ValueError):
            ProjectTree((("a.h", "x"), ("a.h", "y")), {})

    def test_write_to_disk(self, tmp_path):
        tree = emit_reference_tree()
        tree.write_to(tmp_path)
        assert (tmp_path / "manifest.json").exists()
        assert os.access(tmp_path / "build.sh", os.X_OK)

    @pytest.mark.parametrize("layers, culprit", [
        # An unsigned 64-bit input feeding a sign layer: the 1.8e19 threshold
        # raw does not fit the long long array g++ would have to narrow it into.
        ([{"name": "in", "kind": "input", "precision": "fixed<64,64,u>"},
          {"name": "s", "kind": "binary_tanh", "precision": "fixed<8,2>",
           "params": {"threshold": {"shape": [2], "data": [1.8e19, 1.0]}}}], "s"),
        # A trailing unsigned 64-bit ReLU: its raws at or above 2**63 do not
        # fit the firmware's long long outputs.
        ([{"name": "d", "kind": "dense",
           "precision": {"weight": "fixed<16,6>", "bias": "fixed<16,6>",
                         "accumulator": "fixed<64,4>", "result": "fixed<64,4>"},
           "params": {"weight": {"shape": [2, 2], "data": [1.0, 0.5, -0.5, 1.0]},
                      "bias": {"shape": [2], "data": [0.0, 0.0]}}},
          {"name": "r", "kind": "relu", "precision": "fixed<64,2,u>"}], "r"),
    ])
    def test_unsigned_64_bit_storage_rejected(self, layers, culprit, tmp_path, capsys):
        message = f"layer {culprit!r}: unsigned width 64 does not fit the generated 64-bit storage"
        assert_codegen_rejects(layers, message, tmp_path, capsys)

    @pytest.mark.parametrize("in_spec, weight, acc, bits", [
        # 64-bit weights times a 64-bit input: the exact product alone needs 128 bits.
        ("fixed<64,32>", "fixed<64,1>", "fixed<64,32>", 128),
        # A 120-bit product shifted up 15 places into a finer accumulator.
        ("fixed<60,30>", "fixed<60,1>", "fixed<64,-40>", 135),
    ])
    def test_intermediate_wider_than_the_wide_type_rejected(self, in_spec, weight, acc, bits, tmp_path, capsys):
        layers = [{"name": "in", "kind": "input", "precision": in_spec},
                  dense_doc("d", weight, "fixed<16,6>", acc, "fixed<16,6>", [0.5, -0.5, 0.25, 0.0], [0.0, 0.0])]
        message = f"layer 'd': intermediate needs {bits} bits, generated arithmetic supports 127"
        assert_codegen_rejects(layers, message, tmp_path, capsys)

    # Each cast below, written unchecked, shifts its raw out of the 128-bit
    # type or by more than 127 places, and the firmware's answers differ from
    # the emulator's on the rows noted.
    BIG_BIAS = {"w": [0.5, -0.5, 0.25, 0.0], "b": [3e6, 3e6]}

    @pytest.mark.parametrize("in_spec, layers, culprit, bits", [
        # The result cast: a 32-bit accumulator on fraction 0 shifted up 106
        # places. The emulator saturates the 3e6 bias to 32767; the wrapped
        # shift reads negative and saturates to -32768.
        ("fixed<16,6>", [dense_doc("d", "fixed<8,2>", "fixed<32,32>", "fixed<32,32>", "fixed<16,-90,sat>",
                                   **BIG_BIAS)], "d", 138),
        # The ReLU cast: the same shift, from the dense layer's 32-bit result.
        ("fixed<16,6>", [dense_doc("d", "fixed<8,2>", "fixed<32,32>", "fixed<32,32>", "fixed<32,32>", **BIG_BIAS),
                         {"name": "r", "kind": "relu", "precision": "fixed<16,-90,sat>"}], "r", 138),
        # The bias cast: a 64-bit bias on fraction 0 shifted up 68 places. The
        # emulator saturates the 2**61 bias to the accumulator's maximum, just
        # under 2**-5, which the result holds as raw 31; the firmware gives 0.
        ("fixed<16,6>", [dense_doc("d", "fixed<8,-50>", "fixed<64,64>", "fixed<64,-4,sat>", "fixed<16,6,sat>",
                                   [2.0 ** -53, 2.0 ** -52, 2.0 ** -52, 2.0 ** -53], [2.0 ** 61] * 2)], "d", 132),
        # A right shift of 166 places: the product on fraction 128 into an
        # accumulator on fraction -38. On the row (2**-89, 2**-90) the
        # emulator gives 0 and the firmware -4194304.
        ("fixed<29,-87>", [dense_doc("d", "fixed<2,-10>", "fixed<11,16>", "fixed<25,63,rnd>", "fixed<23,19,sat>",
                                     [-2.0 ** -11, 2.0 ** -12], [0.0])], "d", 166),
    ], ids=["result", "relu", "bias", "right_shift"])
    def test_cast_beyond_the_wide_type_rejected(self, in_spec, layers, culprit, bits, tmp_path, capsys):
        layers = [{"name": "in", "kind": "input", "precision": in_spec}] + layers
        message = f"layer {culprit!r}: intermediate needs {bits} bits, generated arithmetic supports 127"
        assert_codegen_rejects(layers, message, tmp_path, capsys)


def joined_literal_rows(values, per_row=12):
    """Literal rows written with one str.join per row: the reference for codegen._literal_rows."""
    return ",\n".join("    " + ", ".join(map(str, map(int, values[start:start + per_row])))
                      for start in range(0, len(values), per_row))


class TestLiteralRows:
    @pytest.mark.parametrize("size", [0, 1, 11, 12, 13, 24, 25])
    def test_matches_joined_text(self, size):
        rng = np.random.Generator(np.random.Philox(key=size))
        for raws in (rng.integers(-999, 1000, size), rng.integers(-(1 << 63), (1 << 63) - 1, size,
                                                                  endpoint=True)):
            assert raws.dtype == np.int64
            assert codegen._literal_rows(raws) == joined_literal_rows(raws.tolist())

    def test_int64_extremes(self):
        raws = np.array([-(1 << 63), (1 << 63) - 1, 0, -1, 1] * 5, dtype=np.int64)
        want = joined_literal_rows(raws.tolist()).replace(str(-(1 << 63)), INT64_MIN_CXX)
        assert codegen._literal_rows(raws) == want

    def test_mode_codes_as_the_sign_layers_pass_them(self):
        modes = np.array([0.0, 1.0, 2.0, 3.0] * 4)  # mode params hold float64
        assert codegen._literal_rows(modes.astype(np.int64)) == joined_literal_rows(modes.tolist())

    def test_strided_views(self):
        base = np.arange(-100, 100, dtype=np.int64)
        for view in (base[::3], base[::-1], base.reshape(20, 10)[:, 3]):
            assert not view.flags.c_contiguous
            assert codegen._literal_rows(view) == joined_literal_rows(view.tolist())


class TestEmitReport:
    def test_minimal_model_has_all_sections(self):
        model = build_reference_model()
        doc = emit_report(model)
        for key in ("schema_version", "model", "passes", "resources", "timing",
                    "profile", "prune_history"):
            assert key in doc
        assert doc["prune_history"] == []

    def test_validates_against_published_schema(self, jet_float_model):
        jsonschema = pytest.importorskip("jsonschema")
        estimates = estimator.estimate_model(jet_float_model)
        profile = profiler.profile_weights(jet_float_model)
        doc = emit_report(jet_float_model, estimates, profile)
        jsonschema.validate(json.loads(json.dumps(doc)), REPORT_SCHEMA)

    def test_bops_field_matches_pruning_module(self):
        model = build_reference_model()
        estimates = estimator.estimate_model(model)
        doc = emit_report(model, estimates)
        rows = {row["layer"]: row for row in doc["resources"]["per_layer"]}
        total = 0.0
        activation_bits = None
        for node in topo_order(model):
            if node.kind == "input":
                activation_bits = node.precision.result.width_bits
                continue
            if node.kind == "dense":
                m, n = node.param("weight").shape
                f_p = 1.0 - rows[node.name]["n_mult"] / (m * n)
                total += pruning.compute_bops(n, m, node.precision.weight.width_bits,
                                              activation_bits, f_p)
            activation_bits = node.precision.result.width_bits
        assert doc["resources"]["bops_total"] == pytest.approx(total, rel=1e-12)


def every_kind_model() -> ModelGraph:
    """A chain with every fixed-point layer kind, ending on a dense layer.

    Batch norm stays unfused, one dense layer is COO-compressed, the sign
    activations carry thresholds and all four mode codes, and the ReLU
    output is unsigned and saturating.
    """
    rng = np.random.Generator(np.random.Philox(key=2021))

    def dense(name, m, n, prec, zeros=0.0, **extra):
        w = rng.normal(0.0, 0.6, (m, n)) * (rng.random((m, n)) >= zeros)
        return LayerNode(name, "dense", {"weight": Tensor.from_numpy(w),
                                         "bias": Tensor.from_numpy(rng.normal(0.0, 0.3, m))},
                         precision=prec, **extra)

    def sign(name, kind, modes):
        return LayerNode(name, kind, {
            "threshold": Tensor.from_numpy(rng.normal(0.0, 0.5, len(modes))),
            "mode": Tensor((len(modes),), tuple(float(m) for m in modes)),
        }, precision=PrecisionSet.uniform("fixed<4,2>"))

    def prec(weight, bias, acc, result):
        return PrecisionSet.from_doc(
            {"weight": weight, "bias": bias, "accumulator": acc, "result": result}, "$")

    nodes = [
        LayerNode("input", "input", precision=PrecisionSet.uniform("fixed<10,4>")),
        dense("d0", 8, 6, prec("fixed<8,2>", "fixed<8,2>", "fixed<20,8>", "fixed<12,5,rnd>")),
        LayerNode("bn", "batch_norm", {
            "gamma": Tensor.from_numpy(rng.normal(1.0, 0.5, 8)),
            "beta": Tensor.from_numpy(rng.normal(0.0, 0.5, 8)),
            "moving_mean": Tensor.from_numpy(rng.normal(0.0, 0.5, 8)),
            "moving_variance": Tensor.from_numpy(rng.uniform(0.5, 2.0, 8)),
            "epsilon": Tensor.scalar(1e-3),
        }, precision=prec("fixed<10,3,rnd>", "fixed<10,3>", "fixed<24,10,sat>", "fixed<12,5,sat>")),
        LayerNode("act", "relu", precision=PrecisionSet.uniform("fixed<8,3,u,sat>")),
        dense("d1", 8, 8, prec("fixed<6,1,rnd,sat>", "fixed<8,2>", "fixed<18,8>", "fixed<12,6,sat>"),
              zeros=0.4, compression=True),
        sign("bt", "binary_tanh", (0, 1, 2, 3, 0, 1, 0, 1)),
        dense("d2", 8, 8, PrecisionSet.uniform("fixed<16,6>")),
        sign("tt", "ternary_tanh", (0, 1, 2, 3, 0, 1, 0, 1)),
        dense("d3", 3, 8, PrecisionSet.uniform("fixed<16,6>")),
    ]
    return ModelGraph.chain(nodes, (6,))


def wide_model() -> ModelGraph:
    """A chain at the 64-bit edges of the specs, ending on a dense layer.

    Weights with negative integer bits feed a wrapping fixed<64,2>
    accumulator that overflows, then an unsigned 63-bit ReLU and a dense
    layer saturating into fixed<64,2,sat>. Its ternary thresholds at +/-1.9
    sit so close to that range's ends that x - t often leaves int64.
    """
    rng = np.random.Generator(np.random.Philox(key=64))

    def dense(name, m, n, scale, prec):
        return LayerNode(name, "dense", {"weight": Tensor.from_numpy(rng.normal(0.0, scale, (m, n))),
                                         "bias": Tensor.from_numpy(rng.normal(0.0, scale, m))},
                         precision=prec)

    def prec(weight, bias, acc, result):
        return PrecisionSet.from_doc(
            {"weight": weight, "bias": bias, "accumulator": acc, "result": result}, "$")

    nodes = [
        LayerNode("input", "input", precision=PrecisionSet.uniform("fixed<16,8>")),
        dense("d0", 8, 6, 0.06, prec("fixed<8,-2>", "fixed<8,-2>", "fixed<64,2>", "fixed<64,2>")),
        LayerNode("act", "relu", precision=PrecisionSet.uniform("fixed<63,2,u>")),
        dense("d1", 8, 8, 1.0, prec("fixed<8,2>", "fixed<8,2>", "fixed<64,6,sat>", "fixed<64,2,sat>")),
        LayerNode("tt", "ternary_tanh", {
            "threshold": Tensor((8,), (1.9, -1.9) * 4),
            "mode": Tensor((8,), (0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 0.0, 1.0)),
        }, precision=PrecisionSet.uniform("fixed<4,2>")),
        dense("d2", 3, 8, 0.6, PrecisionSet.uniform("fixed<16,6>")),
    ]
    return ModelGraph.chain(nodes, (6,))


class TestWideSpecsCompile:
    def test_compiled_project_bit_matches_emulator(self, tmp_path):
        model = materialize_quantized(wide_model())
        emit_project(model, CodegenConfig("wide")).write_to(tmp_path)
        rng = np.random.Generator(np.random.Philox(key=11))
        all_taps = [run_inference(model, Tensor.from_numpy(rng.normal(0, 8, 6)), tap_all=True)[1]
                    for _ in range(100)]
        got = build_and_run(tmp_path, [" ".join(map(str, taps[0].output.array.tolist()))
                                       for taps in all_taps])
        assert got == [" ".join(map(str, taps[-1].output.array.tolist())) for taps in all_taps]

        # The chain reaches what it is built for: d0's exact sums leave its
        # accumulator's range, and ternary differences leave int64.
        d0 = model.node("d0")
        exact = (np.array([taps[0].output.to_numpy() for taps in all_taps])
                 @ d0.param("weight").to_numpy().T + d0.param("bias").to_numpy())
        assert (np.abs(exact) >= 2).any(axis=1).sum() >= 10
        traws = materialize_quantized(model).node("tt").param("threshold").array.tolist()
        diffs = [v - t for taps in all_taps for v, t in zip(taps[3].output.array.tolist(), traws)]
        assert sum(not -(1 << 63) <= d < (1 << 63) for d in diffs) >= 100

    def test_cast_of_exactly_127_bits_bit_matches_emulator(self, tmp_path):
        # 63-bit weights times 64-bit inputs: the exact product needs 127 bits,
        # the most the generated arithmetic holds, and its top bits are used.
        model = materialize_quantized(ModelGraph.chain([
            LayerNode("input", "input", precision=PrecisionSet.uniform("fixed<64,40>")),
            LayerNode("d", "dense", {"weight": Tensor((2, 2), (-1.0, 0.999, 0.75, -0.5)),
                                     "bias": Tensor((2,), (0.5, -0.25))},
                      precision=PrecisionSet.from_doc({"weight": "fixed<63,1>", "bias": "fixed<16,6>",
                                                       "accumulator": "fixed<64,41,sat>",
                                                       "result": "fixed<48,40,sat>"}, "$")),
        ], (2,)))
        emit_project(model, CodegenConfig("edge")).write_to(tmp_path)
        rng = np.random.Generator(np.random.Philox(key=127))
        block = Tensor.from_numpy(rng.normal(0.0, 2.0 ** 36, (40, 2)))
        out, taps = run_inference(model, block, tap_all=True)
        x, w = taps[0].output.array.tolist(), model.node("d").param("weight").array.tolist()
        assert max(abs(a * b) for a in x for b in w) >= 1 << 122

        def rows(t):
            return [" ".join(map(str, row)) for row in t.array.reshape(40, -1).tolist()]

        got = build_and_run(tmp_path, rows(taps[0].output))
        assert got == rows(out) and len(set(got)) == 40

    def test_unsigned_64_bit_accumulator_bit_matches_emulator(self, tmp_path):
        # The firmware keeps accumulators in ff_wide_t, so an unsigned 64-bit
        # one needs no long long; its raws of 2**63 and above are used.
        model = materialize_quantized(ModelGraph.chain([
            LayerNode("input", "input", precision=PrecisionSet.uniform("fixed<16,6>")),
            LayerNode("d", "dense", {"weight": Tensor((2, 2), (1.5, -0.75, 0.5, 2.0)),
                                     "bias": Tensor((2,), (3.25, 0.5))},
                      precision=PrecisionSet.from_doc({"weight": "fixed<16,6>", "bias": "fixed<16,6>",
                                                       "accumulator": "fixed<64,20,u>",
                                                       "result": "fixed<32,12,sat>"}, "$")),
        ], (2,)))
        emit_project(model, CodegenConfig("uacc")).write_to(tmp_path)
        rng = np.random.Generator(np.random.Philox(key=64))
        block = Tensor.from_numpy(rng.normal(0.0, 4.0, (40, 2)))
        out, taps = run_inference(model, block, tap_all=True)

        def rows(t):
            return [" ".join(map(str, row)) for row in t.array.reshape(40, -1).tolist()]

        # Negative sums wrap to accumulator raws of 2**63 and above.
        acc = model.node("d").precision.accumulator
        x = taps[0].output.to_numpy()
        w, b = (model.node("d").param(k).to_numpy() for k in ("weight", "bias"))
        assert ((x @ w.T + b) * 2.0 ** acc.fraction_bits < 0).any()
        got = build_and_run(tmp_path, rows(taps[0].output))
        assert got == rows(out) and len(set(got)) >= 30


class TestEveryKindCompiles:
    def test_widths_agree(self):
        model = every_kind_model()
        x = Tensor((6,), (0.5, -1.0, 2.0, 0.25, -0.75, 1.5))
        _, taps = run_inference(model, x, tap_all=True)
        tap_widths = {t.layer: len(t.output.data) for t in taps}
        report = {row["name"]: row["output_width"] for row in emit_report(model)["model"]["layers"]}
        params_h = emit_project(model).file("firmware/parameters.h")
        header = {m.group(1): int(m.group(2))
                  for m in re.finditer(r"^// (\w+) \| \w+ \| (\d+) \|", params_h, re.M)}
        assert tap_widths == report == header
        assert list(tap_widths) == [n.name for n in model.nodes]

    def test_compiled_project_bit_matches_emulator(self, tmp_path):
        model = materialize_quantized(every_kind_model())
        emit_project(model, CodegenConfig("allkinds")).write_to(tmp_path)
        rng = np.random.Generator(np.random.Philox(key=7))
        in_lines, want_lines = [], []
        for _ in range(100):
            out, taps = run_inference(model, Tensor.from_numpy(rng.normal(0, 2, 6)), tap_all=True)
            in_lines.append(" ".join(str(v.raw) for v in taps[0].output.data))
            want_lines.append(" ".join(str(v.raw) for v in out.data))
        assert build_and_run(tmp_path, in_lines) == want_lines
        # Outputs are a function of the sign layers' patterns, so they repeat.
        assert len(set(want_lines)) > 10


class TestInt64MinLiterals:
    """A raw of -2**63 is written so that C++ reads it as a long long: the
    literal -9223372036854775808 is the negation of a constant too large for
    long long, which g++ warns about."""

    @staticmethod
    def compile_and_compare(model, tmp_path, n_in, scale):
        model = materialize_quantized(model)
        emit_project(model, CodegenConfig("minraw")).write_to(tmp_path)
        rng = np.random.Generator(np.random.Philox(key=63))
        out, taps = run_inference(model, Tensor.from_numpy(rng.normal(0, scale, (40, n_in))), tap_all=True)

        def rows(t):
            return [" ".join(map(str, row)) for row in t.array.reshape(40, -1).tolist()]

        assert build_and_run(tmp_path, rows(taps[0].output)) == rows(out)
        return out

    def test_dense_weight(self, tmp_path):
        prec = PrecisionSet.from_doc({"weight": "fixed<64,1>", "bias": "fixed<16,6>",
                                      "accumulator": "fixed<40,20>", "result": "fixed<40,20>"}, "$")
        model = ModelGraph.chain([
            LayerNode("input", "input", precision=PrecisionSet.uniform("fixed<16,6>")),
            LayerNode("d", "dense", {"weight": Tensor((2, 2), (-1.0, 0.5, 0.25, -1.0)),
                                     "bias": Tensor((2,), (0.0, 1.0))}, precision=prec),
        ], (2,))
        header = emit_project(model).file("firmware/weights/w0.h")
        assert "-9223372036854775808" not in header
        assert header.count(INT64_MIN_CXX) == 2
        out = self.compile_and_compare(model, tmp_path, 2, 4.0)
        assert len(set(out.array.tolist())) > 20

    @pytest.mark.parametrize("kind", ["binary_tanh", "ternary_tanh"])
    @pytest.mark.parametrize("result", ["fixed<64,1>", "fixed<64,1,sat>"])
    def test_sign_levels(self, kind, result, tmp_path):
        # -1.0 is the minimum of fixed<64,1>; +1.0 wraps to it or saturates.
        model = ModelGraph.chain([
            LayerNode("input", "input", precision=PrecisionSet.uniform("fixed<16,6>")),
            LayerNode("s", kind, {"threshold": Tensor((4,), (0.5, -0.5, 0.0, 1.0)),
                                  "mode": Tensor((4,), (0.0, 1.0, 2.0, 3.0))},
                      precision=PrecisionSet.uniform(result)),
        ], (4,))
        cpp = emit_project(model).file("firmware/model.cpp")
        assert "-9223372036854775808" not in cpp
        # The -1 level in the mode 3 line and the compare, and +1 there too when it wraps.
        assert cpp.count(INT64_MIN_CXX) == (4 if result == "fixed<64,1>" else 2)
        out = self.compile_and_compare(model, tmp_path, 4, 1.0)
        assert -(1 << 63) in out.array.tolist()


class TestMacText:
    """The dense, COO and batch-norm kernels state the MAC's casts once."""

    @staticmethod
    def mac_lines(cpp):
        """Each MAC kernel's bias cast, add and final cast, operand names normalized."""
        kernels = {}
        for name, body in re.findall(r"static void (\w+)_kernel\(.*?\n(.*?)\n\}\n", cpp, re.S):
            lines = [line.strip().replace("ff_wide_t acc =", "acc =").replace("acc[i]", "acc")
                     for line in body.splitlines() if "ff_cast(" in line and "acc" in line]
            if lines:
                kernels[name] = tuple(re.sub(r"\b(bias|shift)_\d+\[i\]", "B", line) for line in lines)
        return kernels

    def test_equal_specs_give_equal_text(self):
        # Every node on one spec, so each MAC layer also sees the same
        # incoming spec; then each dense layer once more with its
        # compression flipped, so every dense layer is emitted both ways.
        uniform = [replace(n, precision=PrecisionSet.uniform("fixed<16,6>"))
                   for n in every_kind_model().nodes]
        flipped = [replace(n, compression=not n.compression) if n.kind == "dense" else n
                   for n in uniform]
        kernels, kinds = {}, set()
        for nodes in (uniform, flipped):
            cpp = emit_project(ModelGraph.chain(nodes, (6,))).file("firmware/model.cpp")
            for name, lines in self.mac_lines(cpp).items():
                node = next(n for n in nodes if n.name == name)
                kinds.add("coo" if node.compression else node.kind)
                kernels[name, node.compression] = lines
        assert kinds == {"dense", "coo", "batch_norm"}
        assert len(kernels) == 9  # bn, and four dense layers each way
        assert len(set(kernels.values())) == 1
        bias, add, result = next(iter(kernels.values()))
        assert bias.startswith("acc = ff_cast((ff_wide_t)B, ")
        assert add.startswith("acc = ff_overflow(acc + ff_cast(p, ")
        assert result.startswith("y[i] = (long long)ff_cast(acc, ")


def spec_flags(rng) -> str:
    return "".join(f for f, on in zip((",u", ",rnd", ",sat"), rng.random(3) < (0.1, 0.4, 0.3)) if on)


def random_spec(rng, slot) -> str:
    """A random fixed<W,I[,u][,rnd][,sat]> with W in 2..32 (12..32 for an
    accumulator: fewer bits would make most chains constant) and I in
    -1..min(W, 5)+1.

    Values of a few units then stay mostly representable, and fraction
    bits stay within -1..33, which keeps every cast's shifted raw and
    shift distance inside the generated 128-bit arithmetic
    (codegen._cast_args).
    """
    width, flags = int(rng.integers(12 if slot == "accumulator" else 2, 33)), spec_flags(rng)
    return f"fixed<{width},{int(rng.integers(-1, min(width, 5) + 2))}{flags}>"


def edge_spec(rng, slot, scale=0) -> str:
    """A random fixed<W,I[,u][,rnd][,sat]> with W in 2..64 (12..64 for an
    accumulator) and I within 64 of ``scale``, or within 8 of 0 for a weight.

    Weights near 1 keep a chain's values near one size, so a chain whose
    other slots sit around one scale in -100..100 has integer bits far
    below 0 or far above W and can still vary. Casts between its slots
    shift by up to about 200 places, so codegen's 128-bit rule rejects
    some chains and accepts others close to its edge.
    """
    width, flags = int(rng.integers(12 if slot == "accumulator" else 2, 65)), spec_flags(rng)
    spread, center = (8, 0) if slot == "weight" else (64, scale)
    return f"fixed<{width},{center + int(rng.integers(-spread, spread + 1))}{flags}>"


def fuzz_chain(rng, n_rows: int, spec=random_spec):
    """A random valid chain of 1-4 dense layers, ending on a dense layer, and input rows.

    Every slot of every layer gets its own spec from ``spec(rng, slot)``,
    each dense layer is COO-compressed at random, and each dense layer but
    the last may be followed by a ReLU, an unfused batch norm, or a binary
    or ternary tanh with mode codes 0-3 and thresholds at randomly picked
    values the chain produces there (less the half-unit band for ternary),
    so that the signs vary from row to row.
    """
    def precision():
        return PrecisionSet.from_doc({slot: spec(rng, slot) for slot in PrecisionSet.SLOTS}, "$")

    width = int(rng.integers(1, 7))
    nodes = [LayerNode("input", "input", precision=precision())]
    input_shape = (width,)
    rows = rng.normal(0.0, 2.0 ** (nodes[0].precision.result.integer_bits - 2), (n_rows, width))
    n_dense = int(rng.integers(1, 5))
    for i in range(n_dense):
        m = int(rng.integers(2, 7))
        w = rng.normal(0.0, 1.0, (m, width)) * (rng.random((m, width)) >= 0.3)
        nodes.append(LayerNode(f"d{i}", "dense", {"weight": Tensor.from_numpy(w),
                                                  "bias": Tensor.from_numpy(rng.normal(0.0, 1.0, m))},
                               precision=precision(), compression=bool(rng.random() < 0.4)))
        width = m
        kind = (None, "relu", "batch_norm", "binary_tanh", "ternary_tanh")[rng.integers(5)]
        if i == n_dense - 1 or kind is None:
            continue
        params = {}
        if kind == "batch_norm":
            params = {key: Tensor.from_numpy(rng.normal(mean, 0.5, width))
                      for key, mean in (("gamma", 1.0), ("beta", 0.0), ("moving_mean", 0.0))}
            params["moving_variance"] = Tensor.from_numpy(rng.uniform(0.5, 2.0, width))
            params["epsilon"] = Tensor.scalar(1e-3)
        elif kind != "relu":
            partial = ModelGraph.chain(nodes, input_shape)
            seen = np.array([run_inference(partial, Tensor.from_numpy(x))[0].to_numpy() for x in rows])
            picked = seen[rng.integers(n_rows, size=width), range(width)]
            params = {"threshold": Tensor.from_numpy(picked - (0.5 if kind == "ternary_tanh" else 0.0)),
                      "mode": Tensor.from_numpy(rng.choice(4, width, p=(0.4, 0.4, 0.1, 0.1)).astype(float))}
        nodes.append(LayerNode(f"a{i}", kind, params, precision=precision()))
    return ModelGraph.chain(nodes, input_shape), rows


FUZZ_CHAINS = 6
FUZZ_ROWS = 50
# Among these chains codegen emits 11, and 6 of those have outputs that vary.
EDGE_SEED, EDGE_CHAINS, EDGE_ROWS = 1, 16, 20


@pytest.fixture(scope="module")
def fuzz_corpus():
    """(materialized chain, per-row emulator taps) for each random chain."""
    rng = np.random.Generator(np.random.Philox(key=22))
    corpus = []
    for _ in range(FUZZ_CHAINS):
        model, rows = fuzz_chain(rng, FUZZ_ROWS)
        model = materialize_quantized(model)
        corpus.append((model, [run_inference(model, Tensor.from_numpy(x), tap_all=True)[1]
                               for x in rows]))
    return corpus


def oracle_raws(node, x) -> list:
    """The raws ``tests/oracles.py`` gives for a materialized non-input layer on the values ``x``."""
    if node.kind == "dense":
        return oracle_dense_mv_raws(node.param("weight"), node.param("bias"), x, node.precision)
    if node.kind == "batch_norm":  # a diagonal dense layer
        scale = node.param("scale")
        diag = Tensor((scale.size, scale.size), np.diag(scale.array), scale.spec)
        return oracle_dense_mv_raws(diag, node.param("shift"), x, node.precision)
    if node.kind == "relu":
        return oracle_relu_raws(x, node.precision.result)
    return oracle_sign_raws(x, node.param("threshold").data, node.param("mode").array.tolist(),
                            node.kind == "ternary_tanh", node.precision.result)


class TestFuzzCorpus:
    def test_dense_taps_match_rational_oracle(self, fuzz_corpus):
        for model, all_taps in fuzz_corpus:
            for k, node in enumerate(model.nodes):
                if node.kind != "dense":
                    continue
                for taps in all_taps:
                    assert taps[k].output.array.tolist() == oracle_raws(node, taps[k - 1].output.data), node.name

    def test_other_kind_taps_match_rational_oracle(self, fuzz_corpus):
        checked = set()
        for model, all_taps in fuzz_corpus:
            for k, node in enumerate(model.nodes):
                if node.kind in ("input", "dense"):
                    continue
                checked.add(node.kind)
                for taps in all_taps:
                    assert taps[k].output.array.tolist() == oracle_raws(node, taps[k - 1].output.data), node.name
        assert checked == {"batch_norm", "relu", "binary_tanh", "ternary_tanh"}

    def test_compiled_projects_bit_match_emulator(self, fuzz_corpus, tmp_path):
        for c, (model, all_taps) in enumerate(fuzz_corpus):
            project = tmp_path / f"fuzz{c}"
            emit_project(model, CodegenConfig(f"fuzz{c}")).write_to(project)
            got = build_and_run(project, [" ".join(map(str, taps[0].output.array.tolist()))
                                          for taps in all_taps])
            assert got == [" ".join(map(str, taps[-1].output.array.tolist())) for taps in all_taps], c

    def test_corpus_coverage(self, fuzz_corpus):
        nodes = [node for model, _ in fuzz_corpus for node in model.nodes]
        assert {n.kind for n in nodes} == {"input", "dense", "relu", "batch_norm",
                                          "binary_tanh", "ternary_tanh"}
        modes = {int(m) for n in nodes if "mode" in n.params for m in n.param("mode").array.tolist()}
        assert modes == {0, 1, 2, 3}
        assert any(n.compression for n in nodes)
        specs = [getattr(n.precision, slot) for n in nodes for slot in PrecisionSet.SLOTS]
        assert not all(s.signed for s in specs)
        assert {s.rounding for s in specs} == {"truncate", "round_half_up"}
        assert {s.overflow for s in specs} == {"wrap", "saturate"}
        # Every chain's output varies, so the compiled comparison is not vacuous.
        assert all(len({tuple(t[-1].output.array.tolist()) for t in taps}) > 1 for _, taps in fuzz_corpus)
        # Some accumulator sees an exact sum outside its range.
        overflows = 0
        for model, all_taps in fuzz_corpus:
            for k, node in enumerate(model.nodes):
                if node.kind != "dense":
                    continue
                acc = node.precision.accumulator
                weight, bias = node.param("weight"), node.param("bias")
                m, n = weight.shape
                for taps in all_taps:
                    x = taps[k - 1].output.data
                    for i in range(m):
                        exact = sum((weight.at(i, j).to_fraction() * x[j].to_fraction()
                                     for j in range(n)), bias.data[i].to_fraction())
                        overflows += not acc.min_value <= exact <= acc.max_value
        assert overflows >= 1


class TestEdgeSpecFuzz:
    """Random chains on edge_spec: specs up to 64 bits wide whose integer
    bits lie far below 0 or far above the width."""

    def test_emitted_chains_bit_match_and_rejections_name_the_rule(self, tmp_path):
        # Every chain's emulator taps equal the rational oracle's at every
        # layer. Every chain codegen emits builds and bit-matches the emulator;
        # every other chain is rejected by the 128-bit or the 64-bit storage rule.
        rng = np.random.Generator(np.random.Philox(key=EDGE_SEED))
        compared, varied, rejected, checked = 0, 0, 0, set()
        for c in range(EDGE_CHAINS):
            scale = int(rng.integers(-100, 101))
            model, rows = fuzz_chain(rng, EDGE_ROWS, functools.partial(edge_spec, scale=scale))
            model = materialize_quantized(model)
            out, taps = run_inference(model, Tensor.from_numpy(rows), tap_all=True)
            for k, node in enumerate(model.nodes[1:], 1):
                checked.add(node.kind)
                for r in range(EDGE_ROWS):
                    x, y = (taps[i].output.array.reshape(EDGE_ROWS, -1)[r] for i in (k - 1, k))
                    assert y.tolist() == oracle_raws(node, Tensor(x.shape, x, taps[k - 1].output.spec).data), (c, k)
            try:
                tree = emit_project(model, CodegenConfig(f"edge{c}"))
            except codegen.CodegenError as exc:
                assert traceback.extract_tb(exc.__traceback__)[-1].name in ("_cast_args", "_check_storage"), c
                rejected += 1
                continue
            want = [" ".join(map(str, row)) for row in out.array.reshape(EDGE_ROWS, -1).tolist()]
            tree.write_to(tmp_path / f"edge{c}")
            got = build_and_run(tmp_path / f"edge{c}", [" ".join(map(str, row)) for row in
                                                        taps[0].output.array.reshape(EDGE_ROWS, -1).tolist()])
            assert got == want, c
            compared += 1
            varied += len(set(want)) > 1
        assert compared >= 10 and varied >= 5 and rejected >= 3, (compared, varied, rejected)
        assert checked == {"dense", "relu", "batch_norm", "binary_tanh", "ternary_tanh"}, checked


def int64_overflow_model() -> ModelGraph:
    """A chain whose exact products leave int64 while its sums fit.

    40-bit inputs times 32-bit weights accumulate in a saturating 60-bit
    accumulator, then an unsigned 48-bit ReLU feeds 24-bit weights, so
    each dense layer of a batch runs on Python ints only because of its
    products.
    """
    rng = np.random.Generator(np.random.Philox(key=80))

    def prec(weight, bias, acc, result):
        return PrecisionSet.from_doc(
            {"weight": weight, "bias": bias, "accumulator": acc, "result": result}, "$")

    nodes = [
        LayerNode("input", "input", precision=PrecisionSet.uniform("fixed<40,20>")),
        LayerNode("d0", "dense", {"weight": Tensor.from_numpy(rng.normal(0.0, 100.0, (4, 5))),
                                  "bias": Tensor.from_numpy(rng.normal(0.0, 100.0, 4))},
                  precision=prec("fixed<32,10>", "fixed<32,10>", "fixed<60,30,sat>", "fixed<48,30,rnd>")),
        LayerNode("act", "relu", precision=PrecisionSet.uniform("fixed<48,30,u>")),
        LayerNode("d1", "dense", {"weight": Tensor.from_numpy(rng.normal(0.0, 40.0, (3, 4))),
                                  "bias": Tensor.from_numpy(rng.normal(0.0, 40.0, 3))},
                  precision=prec("fixed<24,8,rnd>", "fixed<24,8>", "fixed<62,40>", "fixed<32,16,sat>")),
    ]
    return ModelGraph.chain(nodes, (5,))


def assert_block_matches_rows(model, block: Tensor):
    """run_inference on a (B, n) block equals B single-row calls, output and every tap."""
    out, taps = run_inference(model, block, tap_all=True)
    n = block.shape[1]
    rows = [Tensor((n,), block.array[b * n:(b + 1) * n], block.spec) if block.is_quantized()
            else Tensor.from_numpy(block.array[b * n:(b + 1) * n]) for b in range(block.shape[0])]
    singles = [run_inference(model, row, tap_all=True) for row in rows]
    for got, want in [(out, [o for o, _ in singles])] + [
            (tap.output, [t[k].output for _, t in singles]) for k, tap in enumerate(taps)]:
        assert got.shape == (len(rows),) + want[0].shape
        assert got.spec == want[0].spec
        assert got.array.reshape(len(rows), -1).tolist() == [w.array.tolist() for w in want]


class TestBatchParity:
    def test_every_kind_model(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        assert_block_matches_rows(every_kind_model(), Tensor.from_numpy(rng.normal(0, 2, (40, 6))))

    def test_wide_model(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        assert_block_matches_rows(wide_model(), Tensor.from_numpy(rng.normal(0, 8, (40, 6))))

    def test_fuzz_corpus(self, fuzz_corpus):
        for model, all_taps in fuzz_corpus:
            inputs = [taps[0].output for taps in all_taps]
            block = Tensor((len(inputs), inputs[0].size), np.concatenate([t.array for t in inputs]),
                           inputs[0].spec)
            assert_block_matches_rows(model, block)

    def test_products_beyond_int64(self):
        model = materialize_quantized(int64_overflow_model())
        rng = np.random.Generator(np.random.Philox(key=81))
        rows = rng.normal(0.0, 2.0 ** 16, (30, 5))
        rows[0] = 1e-3  # alone, this row's products fit int64
        block = Tensor.from_numpy(rows)
        assert_block_matches_rows(model, block)
        _, taps = run_inference(model, block, tap_all=True)
        for k in (1, 3):
            node, x = model.nodes[k], taps[k - 1].output
            n = x.shape[1]
            w = node.param("weight").array.tolist()
            assert max(map(abs, w)) * max(map(abs, x.array.tolist())) >= 1 << 63, node.name
            xs = x.data
            for b in range(x.shape[0]):
                want = oracle_dense_mv_raws(node.param("weight"), node.param("bias"),
                                            xs[b * n:(b + 1) * n], node.precision)
                assert taps[k].output.array[b * len(want):(b + 1) * len(want)].tolist() == want
