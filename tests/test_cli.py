import csv
import hashlib
import json
import os
from pathlib import Path

import pytest

from fixflow import cli
from fixflow.cli import run
from fixflow.model_ir import parse_model, serialize_model
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


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run(["convert"]) == 2
        assert run(["no-such-command"]) == 2

    def test_domain_error_is_1(self, tmp_path):
        assert run(["convert", "--model", "/nonexistent.json",
                    "--out", str(tmp_path)]) == 1

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

    def test_report_written(self, ref_model_path, tmp_path):
        out = tmp_path / "est"
        assert run(["estimate", "--model", ref_model_path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == "1"
        assert report["resources"]["per_layer"]


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
        path = tmp_path / "m.json"
        path.write_text(serialize_model(model))
        many, few = tmp_path / "many.txt", tmp_path / "few.txt"
        many.write_text("0.5 -0.25 1.0 0.125\n1 2 3 4\n-1 -2 -3 -4\n")
        few.write_text("1 2 3 4\n")
        for data, out in ((many, "shared"), (few, "shared"), (few, "fresh")):
            assert run(["emulate", "--model", str(path), "--data", str(data),
                        "--out", str(tmp_path / out), "--taps"]) == 0

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert tree(tmp_path / "shared") == tree(tmp_path / "fresh")

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
        (["--bits", "4", "--fixed-eval-limit", "-5"],
         "fixed_eval_limit (--fixed-eval-limit) is -5, it must be at least 1"),
        (["--bits", "4", "--fixed-eval-limit", "0"],
         "fixed_eval_limit (--fixed-eval-limit) is 0, it must be at least 1"),
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

    def test_silent_and_artifacts_unchanged_without_info(self, ref_model_path, tmp_path, caplog):
        outs = {}
        for level in ("INFO", "WARNING"):
            with caplog.at_level(level, logger="fixflow"):
                caplog.clear()
                assert run(["convert", "--model", ref_model_path, "--out", str(tmp_path / level)]) == 0
            outs[level] = [(tmp_path / level / f).read_bytes() for f in ("model.json", "report.json")]
        assert caplog.records == []
        assert outs["INFO"] == outs["WARNING"]


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
        out = tmp_path / "q"
        rc = run(["qat", "--model", "arch:16x8x5", "--data", "synthetic:7:300",
                  "--out", str(out), "--seed", "3", "--epochs", "5", "--bits", "6"])
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

    def test_scan_csv_columns(self, tmp_path):
        out = tmp_path / "s"
        rc = run(["scan", "--model", "arch:16x8x5", "--data", "synthetic:7:400",
                  "--out", str(out), "--seed", "3", "--epochs", "4",
                  "--bits", "8,16", "--fixed-eval-limit", "40"])
        assert rc == 0
        rows = read_csv(out / "scan.csv")
        assert rows[0] == ["bits", "ptq_rel_acc", "qat_rel_acc"]
        assert [r[0] for r in rows[1:]] == ["8", "16"]


class TestCodegenCommand:
    def test_writes_project(self, ref_model_path, tmp_path):
        out = tmp_path / "proj"
        rc = run(["codegen", "--model", ref_model_path, "--out", str(out),
                  "--name", "refnet"])
        assert rc == 0
        assert (out / "firmware" / "refnet.cpp").exists()
        assert (out / "manifest.json").exists()

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "learning_rate": 0.05}))
        out = tmp_path / "t"
        rc = run(["train", "--model", "arch:16x8x5", "--data", "synthetic:7:200",
                  "--out", str(out), "--config", str(cfg), "--epochs", "3"])
        assert rc == 0
        assert len(read_csv(out / "loss_trace.csv")) == 4  # flag epochs=3 wins


class TestConfigLeaves:
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
