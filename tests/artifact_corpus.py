"""Build the artifact corpus through the command line; print one sha256 per file.

    python tests/artifact_corpus.py OUT_DIR

The corpus runs ``fixflow`` sub-commands (``cli.run``) on twelve models:
the golden reference, a 16x64x32x32x5 jet classifier (trained, pruned 70%,
``dense1``/``dense2`` COO-compressed), a 16x32x16x5 batch-norm classifier
(as initialized),
``every_kind_model``, ``wide_model``, the six ``TestFuzzCorpus``
chains and ``bn_sign_model`` (batch_norm -> binary_tanh, the input of
``fuse_batchnorm_into_binary_tanh``). Every model goes through convert,
profile, ``estimate --reuse 2,8``, ``estimate --assume-dense``, codegen,
and emulate with and without ``--taps``; the two trainable ones also through train (on a synthetic task
and on a CSV file), qat (fixed, binary and ternary quantizers), prune (each method) and scan. The jet model at
``trainer.scan_precisions`` for 4 and 8 bits (saturating, round-half-up
slots with accumulators sized never to clamp) goes through emulate with
and without ``--taps`` too. Each command's console output and exit code
land in its ``console.txt``. Last, both trainable models train a float
baseline and then QAT with the scan's weight and activation quantizers
at 4 and 6 bits; the model and loss trace of each land in
``<model>/qat_scan<bits>``.

The printout, one ``sha256  path`` line per file in path order, leaves the
manifest's ``generated_at`` out and depends only on the ``fixflow`` that
is imported, so two checkouts compare by running this script with
``PYTHONPATH=<checkout>/src`` and diffing the printouts.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np

from fixflow import cli, trainer
from fixflow.model_ir import parse_model, serialize_model

from golden_model import build_reference_model
from test_codegen import FUZZ_ROWS, every_kind_model, fuzz_chain, wide_model
from test_passes import bn_sign_model

DATA = "synthetic:7:400"
TRAIN = ["--epochs", "2", "--batch-size", "32"]
PRUNE = ["--target-fraction", "0.7", "--increment", "0.35", "--retrain-epochs", "1"]


def fixflow(out, name, *argv):
    """Run one command with ``--out OUT/name``; keep its console output and exit code."""
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        code = cli.run([*argv, "--out", os.path.join(out, name)])
    os.makedirs(os.path.join(out, name), exist_ok=True)
    with open(os.path.join(out, name, "console.txt"), "w") as fh:
        fh.write(f"{console.getvalue().replace(out, 'OUT')}exit {code}\n")
    return os.path.join(out, name)


def write_rows(path, rows):
    with open(path, "w") as fh:
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in rows.tolist())


def build(out):
    inputs = os.path.join(out, "inputs")
    os.makedirs(inputs, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(key=22))
    fuzz = [fuzz_chain(rng, FUZZ_ROWS)[0] for _ in range(6)]
    models = {"ref": build_reference_model(), "every_kind": every_kind_model(), "wide": wide_model(),
              **{f"fuzz{i}": g for i, g in enumerate(fuzz)},
              "bn_init": trainer.build_classifier(16, [32, 16], 5, seed=1, batch_norm=True),
              "bn_sign": bn_sign_model()}
    paths = {}
    for name, graph in models.items():
        paths[name] = os.path.join(inputs, f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(serialize_model(graph))
    csv_path = os.path.join(inputs, "train.csv")
    trainer.save_csv_dataset(trainer.synthetic_task(seed=7, n_samples=200, sample_seed=701), csv_path)

    # The jet model: trained and pruned through the command line, then two
    # layers marked for COO compression.
    trained = fixflow(out, "jet_init/train", "train", "--model", "arch:16x64x32x32x5",
                      "--data", DATA, "--epochs", "4", "--seed", "1")
    pruned = fixflow(out, "jet_init/prune_trained", "prune", "--model", os.path.join(trained, "model.json"),
                     "--data", DATA, *TRAIN, *PRUNE)
    with open(os.path.join(pruned, "model.json")) as fh:
        doc = json.load(fh)
    for layer in doc["layers"]:
        layer["compression"] = layer["name"] in ("dense1", "dense2")
    paths["jet"] = os.path.join(inputs, "jet.json")
    with open(paths["jet"], "w") as fh:
        json.dump(doc, fh, indent=2)
    # The rows below come from one generator in path order: a model added
    # to the corpus goes last, so every earlier model keeps its rows.
    paths["bn_sign"] = paths.pop("bn_sign")

    for name, trainable in (("jet_init", "arch:16x64x32x32x5"), ("bn_init", paths["bn_init"])):
        fixflow(out, f"{name}/train_csv", "train", "--model", trainable, "--data", csv_path, *TRAIN)
        fixflow(out, f"{name}/qat", "qat", "--model", trainable, "--data", DATA, *TRAIN,
                "--bits", "5", "--alpha", "0.75")
        fixflow(out, f"{name}/qat_binary", "qat", "--model", trainable, "--data", DATA, *TRAIN,
                "--mode", "binary", "--alpha", "0.5")
        fixflow(out, f"{name}/qat_ternary", "qat", "--model", trainable, "--data", DATA, *TRAIN,
                "--mode", "ternary")
        for method in ("l1", "lt", "qap"):
            fixflow(out, f"{name}/prune_{method}", "prune", "--model", trainable, "--data", DATA,
                    *TRAIN, *PRUNE, "--method", method, "--bits", "6")
        fixflow(out, f"{name}/scan", "scan", "--model", trainable, "--data", DATA, *TRAIN,
                "--bits", "4,6", "--fixed-eval-limit", "100")

    rng = np.random.Generator(np.random.Philox(key=9))
    for name, path in paths.items():
        model = ["--model", path]
        fixflow(out, f"{name}/convert", "convert", *model)
        fixflow(out, f"{name}/profile", "profile", *model)
        fixflow(out, f"{name}/estimate", "estimate", *model, "--reuse", "2,8")
        fixflow(out, f"{name}/estimate_dense", "estimate", *model, "--assume-dense")
        fixflow(out, f"{name}/codegen", "codegen", *model, "--name", name)
        with open(path) as fh:
            width = json.load(fh)["input_shape"][0]
        rows = os.path.join(inputs, f"{name}_rows.txt")
        write_rows(rows, rng.normal(0.0, 2.0, (40, width)))
        fixflow(out, f"{name}/emulate", "emulate", *model, "--data", rows)
        fixflow(out, f"{name}/emulate_taps", "emulate", *model, "--data", rows, "--taps")
    fixflow(out, "jet/emulate_csv", "emulate", "--model", paths["jet"], "--data", csv_path, "--taps")

    with open(paths["jet"]) as fh:
        jet = parse_model(fh.read())
    features = trainer.synthetic_task(seed=7, n_samples=400).features  # DATA
    rows = os.path.join(inputs, "jet_rows.txt")
    for bits in (4, 8):
        path = os.path.join(inputs, f"jet_scan{bits}.json")
        with open(path, "w") as fh:
            fh.write(serialize_model(trainer.scan_precisions(jet, features, bits)))
        fixflow(out, f"jet_scan{bits}/emulate", "emulate", "--model", path, "--data", rows)
        fixflow(out, f"jet_scan{bits}/emulate_taps", "emulate", "--model", path, "--data", rows, "--taps")

    # QAT with the scan's weight and activation quantizers, on the grids
    # scan_precisions assigns to the float baseline: the models and loss
    # traces pin the training byte for byte, and the scan.csv accuracies
    # only coarsely.
    data = trainer.synthetic_task(seed=7, n_samples=400)  # DATA
    cfg = trainer.TrainingConfig(epochs=2, batch_size=32)  # TRAIN
    for name, graph in (("jet_init", trainer.build_classifier(16, [64, 32, 32], 5)), ("bn_init", models["bn_init"])):
        float_model, _ = trainer.train(graph, data, cfg)
        for bits in (4, 6):
            ptq = trainer.scan_precisions(float_model, data.features, bits)
            quantizers = {node.name: trainer.QuantizerSpec(bits, node.precision.weight.integer_bits)
                          for node in ptq.nodes if node.kind == "dense"}
            activations = {node.name: trainer.QuantizerSpec(bits, node.precision.result.integer_bits)
                           for node in ptq.nodes if node.kind != "softmax"}
            model, trace = trainer.train_qat(float_model, data, trainer.TrainingConfig(
                epochs=2, batch_size=32, quantizers=quantizers, activation_quantizers=activations))
            path = os.path.join(out, name, f"qat_scan{bits}")
            os.makedirs(path)
            with open(os.path.join(path, "model.json"), "w") as fh:
                fh.write(serialize_model(model))
            trainer.write_loss_trace(trace, os.path.join(path, "loss_trace.csv"))


def digests(out):
    for root, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                doc = json.loads(data)
                doc.pop("generated_at", None)
                data = json.dumps(doc, indent=2).encode()
            yield hashlib.sha256(data).hexdigest(), os.path.relpath(path, out)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    build(sys.argv[1])
    for digest, path in sorted(digests(sys.argv[1]), key=lambda d: d[1]):
        print(f"{digest}  {path}")
