import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fixflow
from fixflow import cli, estimator, profiler, pruning
from fixflow.cli import run
from fixflow.fixed_point import FixedPointSpec
from fixflow.model_ir import Tensor, parse_model, serialize_model
from fixflow import trainer

from golden_model import build_reference_model


@pytest.fixture()
def ref_model_path(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(serialize_model(build_reference_model()))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConvert:
    def test_convert_writes_canonical_model(self, ref_model_path, tmp_path):
        out = tmp_path / "out"
        assert run(["convert", "--model", ref_model_path, "--out", str(out)]) == 0
        assert (out / "model.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert isinstance(report["passes"], list)

    def test_convert_is_idempotent(self, ref_model_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["convert", "--model", ref_model_path, "--out", str(out1)])
        run(["convert", "--model", str(out1 / "model.json"), "--out", str(out2)])
        assert (out1 / "model.json").read_text() == (out2 / "model.json").read_text()

    def test_report_hash_is_that_of_model_json(self, ref_model_path, tmp_path):
        out = tmp_path / "out"
        assert run(["convert", "--model", ref_model_path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["model"]["hash"] == hashlib.sha256((out / "model.json").read_bytes()).hexdigest()

    def test_input_file_not_mutated(self, ref_model_path, tmp_path):
        before = Path(ref_model_path).read_text()
        run(["convert", "--model", ref_model_path, "--out", str(tmp_path / "o")])
        assert Path(ref_model_path).read_text() == before

    def test_model_file_is_decoded_as_utf8(self, ref_model_path, tmp_path, capsys):
        # CRLF line ends read as LF; bytes that are not UTF-8 fail with the decoder's message.
        data = Path(ref_model_path).read_bytes()
        bad_data = data.replace(b'"name": "input"', b'"name": "in\xe9put"')
        assert bad_data != data
        with pytest.raises(UnicodeDecodeError) as decode:
            bad_data.decode()
        (tmp_path / "crlf.json").write_bytes(data.replace(b"\n", b"\r\n"))
        (tmp_path / "bad.json").write_bytes(bad_data)
        assert run(["convert", "--model", str(tmp_path / "crlf.json"), "--out", str(tmp_path / "a")]) == 0
        assert run(["convert", "--model", ref_model_path, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "model.json").read_bytes() == (tmp_path / "b" / "model.json").read_bytes()
        capsys.readouterr()
        assert run(["convert", "--model", str(tmp_path / "bad.json"), "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == f"error: {decode.value}\n"
        assert not (tmp_path / "c").exists()

    def test_fusion_that_overflows_writes_nothing(self, tmp_path, capsys):
        # gamma 1e200 times weight 1e200 is inf: the fused document would not parse.
        path = write_doc(tmp_path, [
            {"name": "d0", "kind": "dense", "params": {"weight": {"shape": [2, 2], "data": [1e200] * 4},
                                                       "bias": {"shape": [2], "data": [0.0, 0.0]}}},
            {"name": "bn", "kind": "batch_norm", "params": dict(
                TestMalformedDocuments.BN_PARAMS, gamma={"shape": [2], "data": [1e200, 1.0]},
                beta={"shape": [2], "data": [0.0, 0.0]})}])
        assert run(["convert", "--model", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == ("error: layer 'd0': param 'weight' holds inf, "
                                           "a model document holds finite numbers\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("weight, gamma, variance, message", [
        (1e200, 1e200, 1.0, "param 'weight' holds inf"),  # the fused weight overflows
        (1.0, 1e300, 1e-300, "param 'bias' holds nan"),  # so does the batch norm's scale
    ], ids=["weight", "scale"])
    def test_fusion_that_overflows_prints_only_the_error(self, tmp_path, weight, gamma, variance, message):
        # numpy's overflow warning, with its source line, came before the error on standard error.
        path = write_doc(tmp_path, [
            {"name": "d0", "kind": "dense", "params": {"weight": {"shape": [2, 2], "data": [weight, 0.0, weight, 0.0]},
                                                       "bias": {"shape": [2], "data": [0.0, 0.0]}}},
            {"name": "bn", "kind": "batch_norm", "params": dict(
                TestMalformedDocuments.BN_PARAMS, gamma={"shape": [2], "data": [gamma, 1.0]},
                beta={"shape": [2], "data": [0.0, 0.0]}, moving_variance={"shape": [2], "data": [variance, 1.0]},
                epsilon=1e-300)}])
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fixflow.__file__))}
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run([sys.executable, "-m", "fixflow.cli", "convert", "--model", path,
                               "--out", str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: layer 'd0': {message}, a model document holds finite numbers\n"

    def test_report_holding_nan_is_not_written(self, tmp_path):
        # RFC 8259 JSON has no NaN or Infinity; a report that holds one is an error, not a file.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cli._write_json(str(tmp_path / "report.json"), {"mean": value})
        assert not (tmp_path / "report.json").exists()


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run(["convert"]) == 2
        assert run(["no-such-command"]) == 2

    def test_domain_error_is_1(self, tmp_path):
        assert run(["convert", "--model", "/nonexistent.json",
                    "--out", str(tmp_path)]) == 1

    def test_module_entry_point_exits_with_the_run_status(self, tmp_path):
        # main() is the one place where run's return becomes the process status.
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fixflow.__file__))}

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "fixflow.cli", *argv],
                                  capture_output=True, text=True, env=env)

        usage = module("convert")
        assert usage.returncode == 2 and "usage: fixflow convert" in usage.stderr
        domain = module("convert", "--model", "/nonexistent.json", "--out", str(tmp_path / "d"))
        assert domain.returncode == 1 and domain.stderr.startswith("error: ")
        assert not (tmp_path / "d").exists()
        done = module("convert", "--model", "arch:4x3", "--out", str(tmp_path / "c"))
        assert (done.returncode, done.stdout, done.stderr) == (0, "converted: 3 layers, 0 rewrites\n", "")

    def test_programming_error_propagates(self, ref_model_path, tmp_path, monkeypatch):
        # A KeyError is a bug in the program, not a domain error with exit 1.
        def broken(spec, seed):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "_load_model", broken)
        with pytest.raises(KeyError):
            run(["convert", "--model", ref_model_path, "--out", str(tmp_path / "o")])

    def test_validation_error_is_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "format_version": "1", "input_shape": [2],
            "layers": [{"name": "d", "kind": "dense", "params": {
                "weight": {"shape": [3, 5], "data": [0.1] * 15},
                "bias": {"shape": [3], "data": [0.0] * 3},
            }}],
        }))
        assert run(["convert", "--model", str(bad), "--out", str(tmp_path / "o")]) == 1


def write_doc(tmp_path, layers):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format_version": "1", "input_shape": [2], "layers": layers}))
    return str(path)


class TestMalformedDocuments:
    """Each document fails at parse or validate time: exit 1, a message that
    names the path or the layer, and no traceback."""

    BN_PARAMS = {"gamma": {"shape": [2], "data": [1.0, 1.0]}, "beta": 0.0,
                 "moving_mean": {"shape": [2], "data": [0.0, 0.0]},
                 "moving_variance": {"shape": [2], "data": [1.0, 1.0]}, "epsilon": 0.001}

    def run_failing(self, tmp_path, capsys, layers, command):
        path = write_doc(tmp_path, layers)
        extra = []
        if command == "emulate":
            rows = tmp_path / "x.txt"
            rows.write_text("0.5 -0.25\n")
            extra = ["--data", str(rows)]
        assert run([command, "--model", path, "--out", str(tmp_path / "o")] + extra) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_scalar_param(self, tmp_path, capsys, value):
        params = dict(self.BN_PARAMS, epsilon=value)
        err = self.run_failing(tmp_path, capsys,
                               [{"name": "bn", "kind": "batch_norm", "params": params}], "convert")
        assert "$.layers[0].params.epsilon" in err and "finite" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -10**400])
    def test_non_finite_tensor_data(self, tmp_path, capsys, value):
        params = dict(self.BN_PARAMS, gamma={"shape": [2], "data": [1.0, value]})
        err = self.run_failing(tmp_path, capsys,
                               [{"name": "bn", "kind": "batch_norm", "params": params}], "convert")
        assert "$.layers[0].params.gamma" in err and "finite" in err

    @pytest.mark.parametrize("command", ["convert", "emulate"])
    def test_non_final_softmax(self, tmp_path, capsys, command):
        layers = [{"name": "probs", "kind": "softmax"}, {"name": "r", "kind": "relu"}]
        err = self.run_failing(tmp_path, capsys, layers, command)
        assert "[probs]" in err and "final layer" in err

    @pytest.mark.parametrize("mode", [7, 0.5, -1])
    def test_binary_tanh_mode_out_of_range(self, tmp_path, capsys, mode):
        layers = [{"name": "bt", "kind": "binary_tanh",
                   "params": {"mode": {"shape": [2], "data": [0, mode]}}}]
        err = self.run_failing(tmp_path, capsys, layers, "convert")
        assert "[bt]" in err and "mode" in err

    @pytest.mark.parametrize("slot", [5, None, ["fixed<8,2>"]])
    def test_precision_slot_not_a_string(self, tmp_path, capsys, slot):
        layers = [{"name": "r", "kind": "relu", "precision": {"weight": slot}}]
        err = self.run_failing(tmp_path, capsys, layers, "convert")
        assert "$.layers[0].precision.weight" in err and "string" in err

    @pytest.mark.parametrize("precision, message", [
        ({"weight": "fixed<8,2>", "weights": "fixed<8,2>"}, "$.layers[0].precision.weights: unknown precision slot"),
        (8, "$.layers[0].precision: precision must be a string or object"),
    ])
    def test_precision_neither_slots_nor_a_string(self, tmp_path, capsys, precision, message):
        layers = [{"name": "r", "kind": "relu", "precision": precision}]
        assert self.run_failing(tmp_path, capsys, layers, "convert") == f"error: {message}\n"

    DENSE = {"weight": {"shape": [2, 2], "data": [0.5, -0.25, 1.0, 0.75]},
             "bias": {"shape": [2], "data": [0.0, 0.5]}}

    @pytest.mark.parametrize("layer, message", [
        ({"name": "d", "kind": "dense", "params": DENSE, "reuse_factor": 0},
         "[d] reuse_factor: must be >= 1, got 0"),
        ({"name": "r", "kind": "relu", "compression": True},
         "[r] compression: compression is only valid on dense layers"),
        ({"name": "r", "kind": "relu", "reuse_factor": 2},
         "[r] reuse_factor: reuse_factor is only configurable on dense layers"),
        ({"name": "src", "kind": "input", "params": {"value": {"shape": [3], "data": [1, 2, 3]}}},
         "[src] shape: constant value has 3 elements, input width is 2"),
        ({"name": "src", "kind": "input", "params": {"gain": 1.0}},
         "[src] params: unexpected param 'gain' on input layer"),
        ({"name": "d", "kind": "dense", "params": {"bias": DENSE["bias"]}},
         "[d] params: dense layer missing weight"),
        ({"name": "d", "kind": "dense", "params": dict(DENSE, weight={"shape": [4], "data": [1, 2, 3, 4]})},
         "[d] shape: dense weight must be 2-D, got shape [4]"),
        ({"name": "d", "kind": "dense", "params": dict(DENSE, weight={"shape": [2, 3], "data": [1] * 6})},
         "[d] shape: weight expects 3 inputs but predecessor provides 2"),
        ({"name": "d", "kind": "dense", "params": {"weight": DENSE["weight"]}},
         "[d] params: dense layer missing bias"),
        ({"name": "d", "kind": "dense", "params": dict(DENSE, bias={"shape": [3], "data": [0, 0, 0]})},
         "[d] shape: bias shape [3] does not match 2 outputs"),
        ({"name": "bn", "kind": "batch_norm", "params": {k: v for k, v in BN_PARAMS.items() if k != "gamma"}},
         "[bn] params: batch_norm missing gamma"),
        ({"name": "bn", "kind": "batch_norm", "params": dict(BN_PARAMS, epsilon={"shape": [2], "data": [1, 1]})},
         "[bn] shape: epsilon must be a scalar"),
        ({"name": "bn", "kind": "batch_norm", "params": dict(BN_PARAMS, gamma={"shape": [3], "data": [1, 1, 1]})},
         "[bn] shape: gamma has 3 channels, expected 2"),
        ({"name": "bn", "kind": "batch_norm",
          "params": {"scale": {"shape": [3], "data": [1, 1, 1]}, "shift": 0.0}},
         "[bn] shape: scale has 3 channels, expected 2"),
        ({"name": "bt", "kind": "binary_tanh", "params": {"threshold": {"shape": [3], "data": [0, 0, 0]}}},
         "[bt] shape: threshold has 3 channels, expected 2"),
        ({"name": "tt", "kind": "ternary_tanh", "params": {"mode": {"shape": [1], "data": [0]}}},
         "[tt] shape: mode has 1 channels, expected 2"),
        # +1.0 wraps to -1.0 on fixed<8,1>, and -1.0 to 3.0 on fixed<8,2,u>.
        ({"name": "bt", "kind": "binary_tanh", "precision": "fixed<8,1>"},
         "[bt] precision: result fixed<8,1> cannot tell +1 from -1"),
        ({"name": "tt", "kind": "ternary_tanh", "precision": "fixed<8,2,u>"},
         "[tt] precision: result fixed<8,2,u> cannot tell +1 from -1"),
    ])
    def test_layer_rule_broken(self, tmp_path, capsys, layer, message):
        err = self.run_failing(tmp_path, capsys, [layer], "convert")
        assert message in err, err


class TestEstimate:
    def test_reuse_sweep_csv(self, tmp_path):
        out = tmp_path / "est"
        rc = run(["estimate", "--model", "arch:784x16x10", "--out", str(out),
                  "--clock-mhz", "100", "--assume-dense",
                  "--reuse", "14,28,98,784,12544"])
        assert rc == 0
        rows = read_csv(out / "reuse_scan.csv")
        assert rows[0][:2] == ["reuse_factor", "ii_cycles"]
        body = rows[1:]
        assert [r[0] for r in body] == ["14", "28", "98", "784", "12544"]
        assert all(r[0] == r[1] for r in body)  # II == R
        assert all(r[4] == "12704" for r in body)
        report = json.loads((out / "report.json").read_text())
        assert report["timing"]["clock_mhz"] == 100.0

    @pytest.mark.parametrize("model, flags, message", [
        ("arch:4x3", ["--reuse", "5..2"], "--reuse '5..2' holds no reuse factor"),
        ("arch:4x3", ["--reuse", "1..99999999999999999999"],
         "--reuse '1..99999999999999999999' holds 99999999999999999999, a range end must be in 1..9223372036854775807"),
        ("arch:4x3", ["--reuse", "2,x"], "--reuse '2,x': expected a comma list or lo..hi of integers"),
        ("arch:4xqx2", [], "arch:4xqx2: widths must be positive integers"),
        ("arch:4x0x2", [], "arch:4x0x2: widths must be positive integers"),
        ("arch:4x-2x2", [], "arch:4x-2x2: widths must be positive integers"),
        ("arch:4x3", ["--reuse", "0"], "--reuse '0' holds 0, a reuse factor must be at least 1"),
        ("arch:4x3", ["--reuse=-3"], "--reuse '-3' holds -3, a reuse factor must be at least 1"),
        ("arch:4x3", ["--reuse", "2,2"], "--reuse '2,2' repeats 2"),
        ("arch:4x3", ["--reuse", "3,1,2,1"], "--reuse '3,1,2,1' repeats 1"),
    ])
    def test_bad_integer_argument_names_it(self, tmp_path, capsys, model, flags, message):
        assert run(["estimate", "--model", model, "--out", str(tmp_path / "o"), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_report_written(self, ref_model_path, tmp_path):
        out = tmp_path / "est"
        assert run(["estimate", "--model", ref_model_path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == "1"
        assert report["resources"]["per_layer"]

    def test_chain_without_compute_layers_has_no_interval(self, tmp_path, capsys):
        # input -> softmax: nothing is estimated, so II is 0 and throughput 0.0.
        path = write_doc(tmp_path, [{"name": "in", "kind": "input"}, {"name": "probs", "kind": "softmax"}])
        out = tmp_path / "est"
        assert run(["estimate", "--model", path, "--out", str(out), "--reuse", "1,4"]) == 0
        timing = json.loads((out / "report.json").read_text())["timing"]
        assert (timing["model_ii_cycles"], timing["throughput_inferences_per_second"]) == (0, 0.0)
        assert (timing["total_latency_cycles"], timing["per_layer"]) == (0, [])
        assert read_csv(out / "reuse_scan.csv")[1:] == [[r, "0", "0", "0", "0", "0.0"] for r in ("1", "4")]
        assert capsys.readouterr().out.splitlines()[-1] == "DSP 0, BOPs 0, II 0 cycles at 200 MHz"


class TestEmulate:
    def test_taps_one_file_per_layer(self, tmp_path):
        model = trainer.build_classifier(4, [6], 3, seed=2)
        path = tmp_path / "m.json"
        path.write_text(serialize_model(model))
        data = tmp_path / "x.txt"
        data.write_text("0.5 -0.25 1.0 0.125\n")
        out = tmp_path / "emu"
        rc = run(["emulate", "--model", str(path), "--data", str(data),
                  "--out", str(out), "--taps"])
        assert rc == 0
        tap_files = sorted(os.listdir(out / "taps"))
        assert len(tap_files) == len(model.nodes)
        assert (out / "outputs.txt").exists()
        assert (out / "inputs_raw.txt").exists()

    def test_deterministic_outputs(self, tmp_path):
        model = trainer.build_classifier(4, [6], 3, seed=2)
        path = tmp_path / "m.json"
        path.write_text(serialize_model(model))
        data = tmp_path / "x.txt"
        data.write_text("0.5 -0.25 1.0 0.125\n1 2 3 4\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["emulate", "--model", str(path), "--data", str(data), "--out", str(out)])
            outs.append((out / "outputs.txt").read_text())
        assert outs[0] == outs[1]

    def test_rewrite_into_one_out_gives_the_bytes_of_a_fresh_run(self, tmp_path):
        model = trainer.build_classifier(4, [6], 3, seed=2)
        path = str(tmp_path / "m.json")
        (tmp_path / "m.json").write_text(serialize_model(model))
        many, few = tmp_path / "many.txt", tmp_path / "few.txt"
        many.write_text("0.5 -0.25 1.0 0.125\n1 2 3 4\n-1 -2 -3 -4\n")
        few.write_text("1 2 3 4\n")

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        # Fewer rows shorten every file; a model with fewer layers leaves
        # taps of the earlier one, which go.
        for case, (first, second) in enumerate((((path, many), (path, few)),
                                                (("arch:4x6x6x3", few), ("arch:4x3", few)))):
            for (model, data), out in ((first, "shared"), (second, "shared"), (second, "fresh")):
                assert run(["emulate", "--model", model, "--data", str(data),
                            "--out", str(tmp_path / f"{out}{case}"), "--taps"]) == 0
            assert tree(tmp_path / f"shared{case}") == tree(tmp_path / f"fresh{case}")

    def test_plain_run_removes_taps_of_an_earlier_run(self, tmp_path):
        data, out = tmp_path / "x.txt", tmp_path / "o"
        data.write_text(" ".join(["0.5"] * 16) + "\n")
        assert run(["emulate", "--model", "arch:16x6x6x3", "--data", str(data), "--out", str(out), "--taps"]) == 0
        assert len(list((out / "taps").glob("tap_*.txt"))) == 7
        (out / "taps" / "notes.txt").write_text("kept\n")
        assert run(["emulate", "--model", "arch:16x3", "--data", str(data), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "taps").iterdir()) == ["notes.txt"]
        assert (out / "taps" / "notes.txt").read_text() == "kept\n"
        assert len((out / "outputs.txt").read_text().split()) == 3

    def test_plain_run_checks_for_taps_once(self, tmp_path, monkeypatch):
        data, out = tmp_path / "x.txt", tmp_path / "o"
        data.write_text(" ".join(["0.5"] * 16) + "\n")
        checks = []
        for module, name in ((os, "listdir"), (os.path, "isdir")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda path, real=real, name=name: (
                checks.append(name) if str(path).endswith("taps") else None) or real(path))
        assert run(["emulate", "--model", "arch:16x3", "--data", str(data), "--out", str(out)]) == 0
        assert checks == ["isdir"]
        assert sorted(os.path.basename(p) for p in out.iterdir()) == ["inputs_raw.txt", "outputs.txt"]

    def test_first_and_last_taps_are_the_input_and_output_files(self, tmp_path):
        data, out = tmp_path / "x.txt", tmp_path / "o"
        data.write_text("0.5 -0.25 1.0 0.125\n1 2 3 4\n")
        assert run(["emulate", "--model", "arch:4x6x3", "--data", str(data), "--out", str(out), "--taps"]) == 0
        taps = sorted((out / "taps").iterdir())
        assert taps[0].read_bytes() == (out / "inputs_raw.txt").read_bytes()
        assert taps[-1].read_bytes() == (out / "outputs.txt").read_bytes()

    def test_input_width_checked(self, tmp_path):
        model = trainer.build_classifier(4, [6], 3, seed=2)
        path = tmp_path / "m.json"
        path.write_text(serialize_model(model))
        data = tmp_path / "x.txt"
        data.write_text("0.5 -0.25\n")
        assert run(["emulate", "--model", str(path), "--data", str(data),
                    "--out", str(tmp_path / "o")]) == 1

    def test_constant_input_rejected(self, tmp_path, capsys):
        # The emulator would write the constant's output for every row.
        path = write_doc(tmp_path, [
            {"name": "src", "kind": "input", "params": {"value": {"shape": [2], "data": [1, 2]}}},
            {"name": "r", "kind": "relu"}])
        data = tmp_path / "x.txt"
        data.write_text("-5 -5\n3 3\n")
        assert run(["emulate", "--model", path, "--data", str(data),
                    "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "'src'" in err and "constant" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "outputs.txt").exists()


    @pytest.mark.parametrize("rows, line, message", [
        ("1 2 3\n4 5\n", 2, "2 values, the first row has 3"),
        ("\n1 x\n", 2, "could not convert string to float: 'x'"),
        ("1 2\n\n1 nan\n", 3, "non-finite value"),
        ("1 inf\n", 1, "non-finite value"),
        ("1 -inf\n", 1, "non-finite value"),
        ("", None, "no input rows"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, rows, line, message):
        path = write_doc(tmp_path, [{"name": "r", "kind": "relu"}])
        data = tmp_path / "x.txt"
        data.write_text(rows)
        assert run(["emulate", "--model", path, "--data", str(data),
                    "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        where = data if line is None else f"{data}:{line}"
        assert err.startswith(f"error: {where}: ") and message in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "outputs.txt").exists()

    @pytest.mark.parametrize("rows, line, message", [
        ("1,2,0\n3,x,1\n", 3, "could not convert string to float: 'x'"),
        ("1,2,0\n3,1\n", 3, "2 columns, the header has 3"),
        ("1,nan,0\n", 2, "non-finite feature"),
        ("1,2,-1\n", 2, "label -1 is negative"),
    ])
    def test_bad_csv_row_names_file_and_line(self, tmp_path, capsys, rows, line, message):
        data = tmp_path / "data.csv"
        data.write_text("a,b,label\n" + rows)
        assert run(["train", "--model", "arch:2x4x2", "--data", str(data),
                    "--out", str(tmp_path / "o"), "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}:{line}: ") and message in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "model.json").exists()

    @pytest.mark.parametrize("command", ["train", "qat", "prune", "scan"])
    @pytest.mark.parametrize("rows", ["1,2,0\n3,4,0\n", "1,2,0\n3,4,2\n"])
    def test_labels_checked_before_training(self, tmp_path, capsys, command, rows):
        # One label leaves AUC undefined; so does a label below the largest without rows.
        data = tmp_path / "data.csv"
        data.write_text("a,b,label\n" + rows)
        extra = ["--bits", "4"] if command == "scan" else []
        assert run([command, "--model", "arch:2x4x2", "--data", str(data),
                    "--out", str(tmp_path / "o"), "--epochs", "1", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: evaluation needs rows of two labels or more"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "qat", "prune", "scan"])
    def test_classes_beyond_model_outputs_rejected_before_training(self, tmp_path, capsys, monkeypatch,
                                                                    command):
        # The synthetic task has 5 classes; the model has 2 outputs.
        monkeypatch.setattr(trainer, "_Net", lambda *args: pytest.fail("a net was built"))
        extra = ["--bits", "4"] if command == "scan" else []
        assert run([command, "--model", "arch:16x4x2", "--data", "synthetic:7:50",
                    "--out", str(tmp_path / "o"), "--epochs", "1", *extra]) == 1
        assert capsys.readouterr().err == "error: dataset has 5 classes, model has 2 outputs\n"
        assert not (tmp_path / "o").exists()

    def test_scan_checks_evaluation_rows_before_training(self, tmp_path, capsys, monkeypatch):
        # Both labels are in the file, but the first 10 rows that the fixed
        # evaluation reads carry label 0 only.
        data = tmp_path / "late.csv"
        data.write_text("a,b,label\n" + "".join(f"{i},{-i},{i // 20}\n" for i in range(40)))
        trained = []
        monkeypatch.setattr(trainer, "train", lambda *args: trained.append(1))
        assert run(["scan", "--model", "arch:2x4x2", "--data", str(data), "--out", str(tmp_path / "o"),
                    "--epochs", "1", "--bits", "4", "--fixed-eval-limit", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: the first 10 evaluation rows (fixed_eval_limit): "
                              "evaluation needs rows of two labels or more"), err
        assert "found labels [0]" in err
        assert not trained and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--bits", "4..2"], "bit_widths (--bits) holds no width"),
        (["--bits", "1..99999999999999999999"],
         "--bits '1..99999999999999999999' holds 99999999999999999999, a range end must be in 1..64"),
        (["--bits", "4", "--fixed-eval-limit", "-5"],
         "fixed_eval_limit (--fixed-eval-limit) is -5, it must be at least 1"),
        (["--bits", "4", "--fixed-eval-limit", "0"],
         "fixed_eval_limit (--fixed-eval-limit) is 0, it must be at least 1"),
        (["--bits", "4.."], "--bits '4..': expected a comma list or lo..hi of integers"),
        (["--bits", "2,x"], "--bits '2,x': expected a comma list or lo..hi of integers"),
        (["--bits", "4,4"], "--bits '4,4' repeats 4"),
        (["--bits", "6,4,5,4"], "--bits '6,4,5,4' repeats 4"),
        (["--bits", "4", "--data", "synthetic:abc"], "--data 'synthetic:abc': expected synthetic[:seed[:samples]] of integers"),
        (["--bits", "4", "--data", "synthetic:"], "--data 'synthetic:': expected synthetic[:seed[:samples]] of integers"),
        (["--bits", "4", "--data", "synthetic:7:60:9"],
         "--data 'synthetic:7:60:9': expected synthetic[:seed[:samples]] of integers"),
        (["--bits", "4", "--data", "synthetic:7:-5"], "--data 'synthetic:7:-5' holds -5 samples, a dataset needs at least 1"),
        (["--bits", "4", "--data", "synthetic:7:0"], "--data 'synthetic:7:0' holds 0 samples, a dataset needs at least 1"),
    ])
    def test_scan_rejects_no_widths_and_limits_below_one(self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(trainer, "train", lambda *args: pytest.fail("the float baseline trained"))
        assert run(["scan", "--model", "arch:16x4x5", "--data", "synthetic:7:50", "--out", str(tmp_path / "o"),
                    "--epochs", "1", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bits", ["0", "65", "4,65"])
    def test_scan_rejects_widths_outside_the_spec_range(self, tmp_path, capsys, monkeypatch, bits):
        monkeypatch.setattr(trainer, "train", lambda *args: pytest.fail("the float baseline trained"))
        assert run(["scan", "--model", "arch:16x4x5", "--data", "synthetic:7:60", "--out", str(tmp_path / "o"),
                    "--epochs", "1", "--bits", bits]) == 1
        width = bits.split(",")[-1]
        assert capsys.readouterr().err == f"error: bit_widths (--bits) holds {width}, a width must be in 1..64\n"
        assert not (tmp_path / "o").exists()


class TestProfile:
    def test_writes_profile_and_coverage(self, ref_model_path, tmp_path, capsys):
        out = tmp_path / "p"
        assert run(["profile", "--model", ref_model_path, "--out", str(out)]) == 0
        graph = build_reference_model()
        report = profiler.profile_weights(graph)
        coverage = profiler.check_coverage(report, graph)
        assert json.loads((out / "profile.json").read_text()) == json.loads(json.dumps(report.to_doc()))
        assert json.loads((out / "coverage.json").read_text()) == [dict(c.__dict__) for c in coverage]
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"profiled {len(report.rows)} tensors, {len(coverage)} findings"
        assert len(lines) == len(coverage) + 1

    def test_prints_each_finding(self, tmp_path, capsys):
        # 3.5 leaves fixed<6,2>'s range; 2**-5 is below its resolution of 2**-4.
        model = write_doc(tmp_path, [{"name": "d", "kind": "dense", "precision": "fixed<6,2>", "params": {
            "weight": {"shape": [2, 2], "data": [3.5, 0.5, 0.25, -1.0]}, "bias": {"shape": [2], "data": [0.03125, 0.0]}}}])
        assert run(["profile", "--model", model, "--out", str(tmp_path / "p")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "warning: [d.weight] max |value| 3.5 exceeds fixed<6,2> range (headroom -1 bits)",
            "info: [d.bias] smallest nonzero |value| 0.03125 is below the fixed<6,2> resolution and truncates to zero",
            "profiled 2 tensors, 2 findings"]


class TestFoldedBatchNorm:
    """A batch norm that no dense layer absorbs: ``convert`` folds it to
    scale and shift, and the folded document emulates and estimates as the
    unfolded one does."""

    def test_emulate_and_estimate_equal_the_unfolded_model(self, tmp_path):
        layers = [{"name": "bn", "kind": "batch_norm", "params": {
                      "gamma": {"shape": [2], "data": [1.5, -0.5]}, "beta": {"shape": [2], "data": [0.25, 0.0]},
                      "moving_mean": {"shape": [2], "data": [0.5, -1.0]},
                      "moving_variance": {"shape": [2], "data": [4.0, 0.25]}, "epsilon": 0.001}},
                  {"name": "r", "kind": "relu"},
                  {"name": "d", "kind": "dense", "params": TestMalformedDocuments.DENSE}]
        unfolded = write_doc(tmp_path, layers)
        assert run(["convert", "--model", unfolded, "--out", str(tmp_path / "c")]) == 0
        folded = str(tmp_path / "c" / "model.json")
        assert set(parse_model(Path(folded).read_text()).node("bn").params) == {"scale", "shift"}
        data = tmp_path / "x.txt"
        data.write_text("0.5 -0.25\n1 2\n-3 0.5\n")
        results = []
        for model in (unfolded, folded):
            out = tmp_path / ("e" + str(len(results)))
            assert run(["emulate", "--model", model, "--data", str(data), "--out", str(out), "--taps"]) == 0
            assert run(["estimate", "--model", model, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            taps = sorted((out / "taps").iterdir())
            results.append(([p.read_text() for p in [out / "outputs.txt", *taps]],
                            report["resources"], report["timing"]))
        assert results[0] == results[1]
        assert [row["layer"] for row in results[0][1]["per_layer"]] == ["bn", "d"]


class TestTimedStages:
    def test_info_logs_each_stage(self, ref_model_path, tmp_path, caplog):
        with caplog.at_level("INFO", logger="fixflow"):
            assert run(["convert", "--model", ref_model_path, "--out", str(tmp_path / "o")]) == 0
        stages = [r.getMessage().split(":")[0] for r in caplog.records]
        assert stages == [f"load {ref_model_path}", "passes", "serialize",
                          f"write {tmp_path / 'o' / 'model.json'}", "emit",
                          f"write {tmp_path / 'o' / 'report.json'}"]
        assert all(r.getMessage().endswith(" ms") for r in caplog.records)

    def test_emulate_logs_each_stage(self, ref_model_path, tmp_path, caplog):
        data, out = tmp_path / "x.txt", tmp_path / "o"
        width = build_reference_model().input_width
        data.write_text(" ".join(["0.5"] * width) + "\n")
        with caplog.at_level("INFO", logger="fixflow"):
            assert run(["emulate", "--model", ref_model_path, "--data", str(data),
                        "--out", str(out), "--taps"]) == 0
        stages = [r.getMessage().rsplit(": ", 1)[0] for r in caplog.records]
        files = [out / "outputs.txt", out / "inputs_raw.txt"] + sorted((out / "taps").iterdir())
        assert stages == [f"load {ref_model_path}", f"load {data}", "materialize", "run_inference",
                          *(f"{step} {path}" for path in files for step in ("format", "write"))]
        assert all(r.getMessage().endswith(" ms") for r in caplog.records)

    def test_emulate_logs_one_format_per_file_whether_or_not_its_text_is_shared(self, tmp_path, caplog):
        # With --taps, the first and last taps reuse the text of inputs_raw.txt and outputs.txt.
        data = tmp_path / "x.txt"
        data.write_text("0.5 -0.25 1.0 0.125\n1 2 3 4\n")
        for taps in ([], ["--taps"]):
            out = tmp_path / f"o{len(taps)}"
            caplog.clear()
            with caplog.at_level("INFO", logger="fixflow"):
                assert run(["emulate", "--model", "arch:4x6x3", "--data", str(data), "--out", str(out), *taps]) == 0
            formatted = [r.getMessage().rsplit(": ", 1)[0] for r in caplog.records
                         if r.getMessage().startswith("format ")]
            files = [out / "outputs.txt", out / "inputs_raw.txt"] + sorted(out.glob("taps/*"))
            assert formatted == [f"format {path}" for path in files]
            assert len(files) == (7 if taps else 2)

    def test_silent_and_artifacts_unchanged_without_info(self, ref_model_path, tmp_path, caplog):
        outs = {}
        for level in ("INFO", "WARNING"):
            with caplog.at_level(level, logger="fixflow"):
                caplog.clear()
                assert run(["convert", "--model", ref_model_path, "--out", str(tmp_path / level)]) == 0
            outs[level] = [(tmp_path / level / f).read_bytes() for f in ("model.json", "report.json")]
        assert caplog.records == []
        assert outs["INFO"] == outs["WARNING"]


def joined_rows(t):
    """The row text of the per-row join ``cli._write_rows`` used before its %-templates."""
    fmt = str if t.is_quantized() else repr
    return "".join(" ".join(map(fmt, row)) + "\n" for row in t.array.reshape(-1, t.shape[-1]).tolist())


class TestRowWriter:
    @pytest.mark.parametrize("tensor", [
        Tensor((2, 3), np.array([-32768, -1, 0, 1, 32767, -5]), FixedPointSpec(16, 6)),
        Tensor((3,), np.array([-(2 ** 63), -7, 2 ** 63 - 1]), FixedPointSpec(64, 2)),
        Tensor((2, 2), np.array([2 ** 63, 2 ** 64 - 1, 0, 2 ** 63 + 5], dtype=object),
               FixedPointSpec.from_string("fixed<64,2,u>")),
        Tensor.from_numpy([[-0.0, 5e-324, 1e300, 0.1], [-1e300, -5e-324, 0.0, -0.1]]),
        Tensor.from_numpy([-0.0, 5e-324, 1e300, 0.1]),
        Tensor.from_numpy([[0.1], [-0.0], [1e300]]),
        Tensor((3, 1), np.array([2 ** 63, 1, 2 ** 64 - 1], dtype=object),
               FixedPointSpec.from_string("fixed<64,2,u>")),
        Tensor((1, 4), np.array([-3, 0, 7, -9]), FixedPointSpec(8, 2)),
        Tensor.from_numpy([[1.5, -2.25, 3.0]]),
    ], ids=["int64", "int64_extremes", "object_u64", "reals", "reals_1d", "reals_column",
            "object_column", "one_row", "one_real_row"])
    def test_bytes_equal_the_per_row_join(self, tmp_path, tensor):
        texts = {}
        cli._write_rows(tmp_path / "rows.txt", tensor, texts)
        assert (tmp_path / "rows.txt").read_bytes() == joined_rows(tensor).encode()
        assert texts == {tensor: joined_rows(tensor).encode()}

    def test_a_tensor_is_formatted_once(self, tmp_path, monkeypatch):
        tensor = Tensor((2, 2), np.array([1, -2, 3, -4]), FixedPointSpec(8, 2))
        texts = {}
        cli._write_rows(tmp_path / "a.txt", tensor, texts)
        monkeypatch.setattr(tensor, "array", None)  # a second formatting would fail
        cli._write_rows(tmp_path / "b.txt", tensor, texts)
        assert (tmp_path / "b.txt").read_bytes() == (tmp_path / "a.txt").read_bytes() == b"1 -2\n3 -4\n"


class TestTrainAndScan:
    def test_train_on_synthetic(self, tmp_path):
        out = tmp_path / "run"
        rc = run(["train", "--model", "arch:16x8x5", "--data", "synthetic:7:300",
                  "--out", str(out), "--seed", "3", "--epochs", "5"])
        assert rc == 0
        trace = read_csv(out / "loss_trace.csv")
        assert trace[0] == ["epoch", "loss", "accuracy"]
        assert len(trace) == 6
        parse_model((out / "model.json").read_text())

    def test_seeded_runs_byte_identical(self, tmp_path):
        texts = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run(["train", "--model", "arch:16x8x5", "--data", "synthetic:7:300",
                 "--out", str(out), "--seed", "3", "--epochs", "5"])
            texts.append(((out / "model.json").read_text(),
                          (out / "loss_trace.csv").read_text()))
        assert texts[0] == texts[1]

    def test_qat_writes_quantized_model(self, tmp_path):
        for bits in ("6", "64"):
            out = tmp_path / bits
            rc = run(["qat", "--model", "arch:16x8x5", "--data", "synthetic:7:300",
                      "--out", str(out), "--seed", "3", "--epochs", "5", "--bits", bits])
            assert rc == 0
            assert (out / "model_quantized.json").exists()

    def test_prune_csv(self, tmp_path):
        out = tmp_path / "p"
        rc = run(["prune", "--model", "arch:16x8x5", "--data", "synthetic:7:300",
                  "--out", str(out), "--seed", "3", "--epochs", "4",
                  "--method", "lt", "--target-fraction", "0.4", "--increment", "0.2",
                  "--retrain-epochs", "2"])
        assert rc == 0
        rows = read_csv(out / "prune_history.csv")
        assert rows[0][0] == "iteration"
        assert len(rows) == 4  # header + baseline + two iterations

    def test_prune_to_fraction_zero_trains_the_baseline(self, tmp_path, capsys):
        args = ["--model", "arch:16x4x5", "--data", "synthetic:7:60", "--seed", "3", "--epochs", "2"]
        assert run(["prune", *args, "--out", str(tmp_path / "p"), "--target-fraction", "0"]) == 0
        assert capsys.readouterr().out.startswith("pruned to 0.00: accuracy ")
        assert run(["train", *args, "--out", str(tmp_path / "t")]) == 0
        assert (tmp_path / "p" / "model.json").read_text() == (tmp_path / "t" / "model.json").read_text()
        rows = read_csv(tmp_path / "p" / "prune_history.csv")
        assert [row[:2] for row in rows] == [["iteration", "pruned_fraction"], ["0", "0.0"]]

    def test_features_unlike_the_model_inputs_rejected(self, tmp_path, capsys):
        assert run(["train", "--model", "arch:4x3x5", "--data", "synthetic:7:50",
                    "--out", str(tmp_path / "o"), "--epochs", "1"]) == 1
        assert capsys.readouterr().err == "error: dataset has 16 features, model expects 4\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, layer, message", [
        ("train", {"name": "bn", "kind": "batch_norm", "params": {"scale": {"shape": [2], "data": [1, 2]},
                                                                  "shift": {"shape": [2], "data": [0, 0]}}},
         "bn: cannot train a constant-folded batch_norm"),
        ("train", {"name": "bt", "kind": "binary_tanh"}, "layer 'bt': kind 'binary_tanh' is not trainable"),
        ("scan", {"name": "bt", "kind": "binary_tanh"}, "layer 'bt': kind 'binary_tanh' is not trainable"),
    ])
    def test_untrainable_layer_rejected(self, tmp_path, capsys, command, layer, message):
        data = tmp_path / "data.csv"
        data.write_text("a,b,label\n1,2,0\n3,4,1\n")
        model = write_doc(tmp_path, [layer, {"name": "d", "kind": "dense", "params": TestMalformedDocuments.DENSE}])
        extra = ["--bits", "4"] if command == "scan" else []
        assert run([command, "--model", model, "--data", str(data), "--out", str(tmp_path / "o"),
                    "--epochs", "1", *extra]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_scan_refuses_a_baseline_of_accuracy_zero(self, tmp_path, capsys):
        # At this seed and rate the float baseline labels both rows wrong; every
        # accuracy of the scan would be divided by 0.
        data = tmp_path / "two.csv"
        data.write_text("f0,f1,label\n1.0,0.0,0\n-1.0,0.0,1\n")
        assert run(["scan", "--model", "arch:2x2", "--data", str(data), "--epochs", "1", "--learning-rate",
                    "1e-12", "--bits", "4", "--seed", "2", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (f"error: {data}: the float baseline's accuracy on 2 evaluation rows "
                                           "is 0, and a scan's accuracies are relative to it\n")
        assert not (tmp_path / "o").exists()

    def test_scan_csv_columns(self, tmp_path):
        out = tmp_path / "s"
        rc = run(["scan", "--model", "arch:16x8x5", "--data", "synthetic:7:400",
                  "--out", str(out), "--seed", "3", "--epochs", "4",
                  "--bits", "8,16", "--fixed-eval-limit", "40"])
        assert rc == 0
        rows = read_csv(out / "scan.csv")
        assert rows[0] == ["bits", "ptq_rel_acc", "qat_rel_acc"]
        assert [r[0] for r in rows[1:]] == ["8", "16"]


    @pytest.mark.parametrize("command", [["qat"], ["prune", "--method", "qap"],
                                         ["prune", "--method", "l1"], ["prune", "--method", "lt"]])
    @pytest.mark.parametrize("bits", ["0", "65"])
    def test_quantizer_bits_outside_the_spec_range(self, tmp_path, capsys, monkeypatch, command, bits):
        monkeypatch.setattr(trainer, "train", lambda *args: pytest.fail("a model trained"))
        assert run([*command, "--model", "arch:16x4x5", "--data", "synthetic:7:60", "--out", str(tmp_path / "o"),
                    "--epochs", "1", "--bits", bits]) == 1
        assert capsys.readouterr().err == f"error: quantizer bits (--bits) is {bits}, it must be in 1..64\n"
        assert not (tmp_path / "o").exists()


class TestCodegenCommand:
    def test_writes_project(self, ref_model_path, tmp_path):
        out = tmp_path / "proj"
        rc = run(["codegen", "--model", ref_model_path, "--out", str(out),
                  "--name", "refnet"])
        assert rc == 0
        assert (out / "firmware" / "refnet.cpp").exists()
        assert (out / "manifest.json").exists()

    def test_constant_input_noted_in_manifest(self, tmp_path):
        path = write_doc(tmp_path, [
            {"name": "in", "kind": "input", "params": {"value": {"shape": [2], "data": [1, 2]}}},
            {"name": "r", "kind": "relu"}])
        out = tmp_path / "proj"
        assert run(["codegen", "--model", path, "--out", str(out)]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert notes == ["input 'in' carries a constant value; testbench inputs override it"]

    def test_chain_without_compute_layers_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, [{"name": "in", "kind": "input"}, {"name": "probs", "kind": "softmax"}])
        assert run(["codegen", "--model", path, "--out", str(tmp_path / "proj")]) == 1
        assert capsys.readouterr().err == "error: graph has no fixed-point compute layers to emit\n"
        assert not (tmp_path / "proj").exists()

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "learning_rate": 0.05}))
        out = tmp_path / "t"
        rc = run(["train", "--model", "arch:16x8x5", "--data", "synthetic:7:200",
                  "--out", str(out), "--config", str(cfg), "--epochs", "3"])
        assert rc == 0
        assert len(read_csv(out / "loss_trace.csv")) == 4  # flag epochs=3 wins


class TestConfigLeaves:
    @pytest.mark.parametrize("doc, message", [
        ([{"epochs": 2}], "config must be a JSON object"),
        ({"config_version": "2"}, "unsupported config_version"),
        ({"config_version": 2}, "unsupported config_version"),
        (b'{"epochs": }', "Expecting value: line 1 column 12 (char 11)"),
        (b'{"epochs": 2}\xff', "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    ])
    def test_bad_config_document_names_path(self, ref_model_path, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        assert run(["convert", "--model", ref_model_path, "--out", str(tmp_path / "o"),
                    "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_arch_spec_with_one_width_names_spec(self, tmp_path, capsys):
        assert run(["convert", "--model", "arch:16", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: arch:16: need at least input and output widths\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, leaf", [
        ("train", {"epochs": None}),
        ("train", {"learning_rate": "fast"}),
        ("estimate", {"clock_mhz": [1]}),
    ])
    def test_wrongly_typed_leaf_names_key(self, tmp_path, capsys, command, leaf):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(leaf))
        argv = [command, "--model", "arch:16x8x5", "--out", str(tmp_path / "o"), "--config", str(cfg)]
        if command == "train":
            argv += ["--data", "synthetic:7:100"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert repr(next(iter(leaf))) in err and "Traceback" not in err


class Captured(Exception):
    """Raised by a stub in place of a library call, with the arguments it received."""


class TestSettings:
    """train, qat and prune build TrainingConfig, QuantizerSpec and PruneSchedule
    from a flag, else a config leaf, else the library's own default; the command
    line states only --bits 6 and --target-fraction 0.8."""

    def captured(self, tmp_path, monkeypatch, module, name, argv, config=None):
        """The arguments ``module.name`` receives when ``argv`` runs with ``config``."""
        def stub(*args):
            raise Captured(*args)

        monkeypatch.setattr(module, name, stub)
        argv = [*argv, "--model", "arch:16x4x5", "--data", "synthetic:7:60", "--out", str(tmp_path / "o")]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        with pytest.raises(Captured) as got:
            run(argv)
        assert not (tmp_path / "o").exists()
        return got.value.args

    def test_train_and_qat_defaults_are_the_library_ones(self, tmp_path, monkeypatch):
        _, _, cfg = self.captured(tmp_path, monkeypatch, trainer, "train", ["train"])
        assert cfg == trainer.TrainingConfig(seed=0)
        _, _, cfg = self.captured(tmp_path, monkeypatch, trainer, "train_qat", ["qat"])
        assert cfg == trainer.TrainingConfig(seed=0, quantizers=trainer.QuantizerSpec(6))

    @pytest.mark.parametrize("flag, method", [("l1", "l1_retrain"), ("lt", "lt_rewind"), ("qap", "qap")])
    def test_prune_defaults_are_the_library_ones(self, tmp_path, monkeypatch, flag, method):
        _, _, schedule, cfg = self.captured(tmp_path, monkeypatch, pruning, "prune_iterative",
                                            ["prune", "--method", flag])
        assert schedule == pruning.PruneSchedule(0.8, method=method)
        assert schedule.retrain_epochs == 20
        quantizer = trainer.QuantizerSpec(6) if method == "qap" else None
        assert cfg == trainer.TrainingConfig(seed=0, quantizers=quantizer)

    def test_config_leaves_reach_every_field_and_flags_win(self, tmp_path, monkeypatch):
        config = {"learning_rate": 0.05, "optimizer": "sgd", "epochs": 3, "batch_size": 8, "l1_lambda": 0.001,
                  "bits": 5, "integer_bits": 2, "alpha": 0.5, "mode": "ternary",
                  "target_fraction": 0.6, "increment": 0.3, "retrain_epochs": 4}
        _, _, schedule, cfg = self.captured(
            tmp_path, monkeypatch, pruning, "prune_iterative",
            ["prune", "--method", "qap", "--seed", "3", "--epochs", "7", "--alpha", "0.25", "--mode", "fixed"],
            config)
        assert schedule == pruning.PruneSchedule(0.6, increment=0.3, retrain_epochs=4, method="qap")
        assert cfg == trainer.TrainingConfig(
            learning_rate=0.05, optimizer="sgd", epochs=7, batch_size=8, l1_lambda=0.001, seed=3,
            quantizers=trainer.QuantizerSpec(5, integer_bits=2, alpha=0.25))
        _, _, cfg = self.captured(tmp_path, monkeypatch, trainer, "train_qat", ["qat"], {"mode": "ternary"})
        assert cfg.quantizers == trainer.QuantizerSpec(6, mode="ternary")


class TestConfigKeys:
    """A config document holds only keys that some command reads, its ``seed``
    leaf seeds every command, and ``--seed`` overrides it."""

    def train(self, tmp_path, name, *extra, config=None):
        argv = ["train", "--model", "arch:16x4x5", "--data", "synthetic:7:60", "--epochs", "1",
                "--out", str(tmp_path / name), *extra]
        if config is not None:
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / f"{name}.json")]
        assert run(argv) == 0
        return (tmp_path / name / "model.json").read_bytes()

    def test_seed_leaf_is_the_seed_flag_and_the_flag_wins(self, tmp_path, capsys):
        leaf = self.train(tmp_path, "leaf", config={"seed": 5})
        assert leaf == self.train(tmp_path, "flag", "--seed", "5") != self.train(tmp_path, "unseeded")
        assert self.train(tmp_path, "both", "--seed", "3", config={"seed": 5}) == self.train(
            tmp_path, "flag3", "--seed", "3")

    @pytest.mark.parametrize("command, doc, key", [
        ("train", {"epoch": 1, "method": "qap"}, "epoch"),
        ("prune", {"epochs": 1, "method": "qap"}, "method"),
        ("estimate", {"reuse": "2,8"}, "reuse"),
        ("emulate", {"taps": True}, "taps"),
        ("codegen", {"name": "net"}, "name"),
    ])
    def test_unknown_key_names_path_and_key(self, tmp_path, capsys, command, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, "--model", "arch:16x4x5", "--out", str(tmp_path / "o"), "--config", str(cfg)]
        if command in ("train", "prune", "emulate"):
            argv += ["--data", "synthetic:7:60"]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key {key!r}\n"
        assert not (tmp_path / "o").exists()

    def test_one_document_serves_every_command_and_each_key_is_read(self, tmp_path, monkeypatch, capsys):
        doc = {"config_version": "1", "seed": 2, "learning_rate": 0.01, "optimizer": "adam", "epochs": 1,
               "batch_size": 16, "l1_lambda": 0.0, "bits": 5, "integer_bits": 1, "alpha": 1.0, "mode": "fixed",
               "target_fraction": 0.5, "increment": 0.5, "retrain_epochs": 1, "clock_mhz": 100.0,
               "fixed_eval_limit": 20}
        assert set(doc) == cli._config_keys()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        read, pick = set(), cli._pick
        monkeypatch.setattr(cli, "_pick", lambda args, config, key, default: read.add(key) or pick(
            args, config, key, default))
        for command, extra in (("train", []), ("qat", []), ("prune", []), ("scan", ["--bits", "4"]),
                               ("estimate", []), ("emulate", []), ("convert", [])):
            data = [] if command in ("estimate", "convert") else ["--data", "synthetic:7:60"]
            assert run([command, "--model", "arch:16x4x5", *data, "--out", str(tmp_path / command),
                        "--config", str(cfg), *extra]) == 0, capsys.readouterr().err
        assert read == cli._config_keys() - {"config_version"}


class TestStrictValues:
    """A quantizer grid outside the floats, a clock without a finite rate and a
    config leaf that its cast would change exit 1 and name the flag or key."""

    GRID = ("quantizer integer bits (--integer-bits) is {}: at {} bits and alpha (--alpha) {}, "
            "the grid leaves the normal floats")
    ALPHA = "quantizer alpha (--alpha) is {}, it must be finite and > 0"

    @pytest.mark.parametrize("command, flags, message", [
        ("qat", ["--integer-bits", "1100"], GRID.format(1100, 6, 1.0)),
        ("qat", ["--integer-bits", "2000"], GRID.format(2000, 6, 1.0)),
        ("qat", ["--integer-bits", "99999999999999999999"], GRID.format(99999999999999999999, 6, 1.0)),
        ("qat", ["--integer-bits", "-2000"], GRID.format(-2000, 6, 1.0)),
        ("qat", ["--alpha", "1e308", "--bits", "8", "--integer-bits", "8"], GRID.format(8, 8, 1e308)),
        ("qat", ["--alpha", "nan"], ALPHA.format("nan")),
        ("qat", ["--alpha", "inf"], ALPHA.format("inf")),
        ("qat", ["--mode", "binary", "--alpha", "inf"], ALPHA.format("inf")),
        ("prune", ["--method", "qap", "--integer-bits", "2000"], GRID.format(2000, 6, 1.0)),
        ("prune", ["--alpha=-inf"], ALPHA.format("-inf")),
    ])
    def test_quantizer_outside_the_floats_names_the_flag(self, tmp_path, capsys, command, flags, message):
        argv = [command, "--model", "arch:16x4x5", "--data", "synthetic:7:60", "--out", str(tmp_path / "o"),
                "--epochs", "1", *flags]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("clock", ["nan", "0", "-1", "inf", "1e308"])
    @pytest.mark.parametrize("given", ["flag", "leaf"])
    def test_clock_without_a_finite_rate_names_the_flag(self, tmp_path, capsys, clock, given):
        argv = ["estimate", "--model", "arch:4x3x2", "--out", str(tmp_path / "o")]
        if given == "flag":
            argv += ["--clock-mhz", clock]
        else:
            (tmp_path / "cfg.json").write_text(f'{{"clock_mhz": {clock.replace("nan", "NaN").replace("inf", "Infinity")}}}')
            argv += ["--config", str(tmp_path / "cfg.json"), "--reuse", "1,2"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (f"error: clock (--clock-mhz) is {float(clock)!r} MHz, "
                                           "it must be above 0 and its rate in Hz finite\n")
        assert not (tmp_path / "o").exists()

    def test_reuse_sweep_checks_the_clock(self):
        model = trainer.build_classifier(4, [3], 2)
        with pytest.raises(ValueError, match=r"clock \(--clock-mhz\) is nan MHz"):
            estimator.reuse_sweep(model, [1, 2], clock_mhz=float("nan"))

    @pytest.mark.parametrize("command, leaf", [
        ("train", {"epochs": 1.9}), ("train", {"seed": True}), ("train", {"batch_size": "8"}),
        ("train", {"learning_rate": "0.1"}), ("train", {"optimizer": 1}), ("qat", {"bits": False}),
        ("qat", {"alpha": "nan"}), ("scan", {"fixed_eval_limit": 10.5}),
    ])
    def test_leaf_its_cast_would_change_names_the_key(self, tmp_path, capsys, command, leaf):
        (tmp_path / "cfg.json").write_text(json.dumps(leaf))
        argv = [command, "--model", "arch:16x4x5", "--data", "synthetic:7:60", "--out", str(tmp_path / "o"),
                "--config", str(tmp_path / "cfg.json"), *(["--bits", "4"] if command == "scan" else [])]
        assert run(argv) == 1
        (key, value), = leaf.items()
        kind = {"optimizer": "str", "learning_rate": "float", "alpha": "float"}.get(key, "int")
        assert capsys.readouterr().err == f"error: config key {key!r}: {value!r} is not a {kind}\n"
        assert not (tmp_path / "o").exists()

    def test_leaf_of_the_same_value_is_read(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"epochs": 2.0, "learning_rate": 1}))
        argv = ["train", "--model", "arch:16x4x5", "--data", "synthetic:7:60", "--config", str(tmp_path / "cfg.json")]
        assert run([*argv, "--out", str(tmp_path / "leaf")]) == 0
        assert run([*argv[:-2], "--epochs", "2", "--learning-rate", "1", "--out", str(tmp_path / "flag")]) == 0
        assert len(read_csv(tmp_path / "leaf" / "loss_trace.csv")) == 3
        for name in ("model.json", "loss_trace.csv"):
            assert (tmp_path / "leaf" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
