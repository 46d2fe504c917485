"""The benchmark's workloads: emulate-jet, scan-jet and compile-mnist.

Each workload makes its inputs from the run seed in ``setup`` and writes
them as model documents, CSV files or raw-row files; the program sees only
those files. ``op`` is one closed-loop operation and is the only timed
code. Operation ``i`` runs stage ``i % len(stages)``, and one round of the
stages is a pass. ``verify`` runs after each operation, untimed, and raises
when an artifact differs from the one an earlier operation on the same
input wrote. ``reference`` gives the artifact digests that are pinned in
``pinned.json`` for the reference seed, so a later change must stay
bit-identical. ``after`` makes the checks that run once the timed phase
is over and charges their failures to the run's tally.

The package is always called through module attributes (``cli.run``,
``trainer.ptq_qat_scan``), so the tracer's wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
from dataclasses import replace

import numpy as np

from fixflow import cli, kernels, model_ir, pruning, trainer
from fixflow.model_ir import Tensor
from oracle import ReferenceModel

NO_COMPILER = "(no C++ toolchain found; compile-and-compare skipped, non-blocking)"


class CheckFailed(Exception):
    pass


def _seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _tree_digest(root):
    """Digest of every file under ``root``; the manifest's timestamp is dropped."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, root)
            data = _read(path)
            if rel == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("generated_at", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            h.update(rel.encode() + b"\0" + _sha(data).encode() + b"\n")
    return h.hexdigest()


def _fixflow(argv):
    """Run one ``fixflow`` command in-process; raise unless it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise CheckFailed(f"fixflow {argv[0]} exited {code}: {err.getvalue().strip()}")


def _compare(seen, found, what):
    """Record first-seen digests; raise when a later one differs."""
    for key, digest in found.items():
        if seen.setdefault(key, digest) != digest:
            raise CheckFailed(f"{what}: {key} differs from an earlier operation")


def _format_raws(values):
    """One exchange-format line, as ``fixflow emulate`` writes it."""
    return " ".join(str(v.raw) if hasattr(v, "raw") else repr(float(v)) for v in values)


def _write_rows(path, rows):
    _write(path, "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows))


def _jet_model(init, fit, epochs):
    model = trainer.build_classifier(16, [64, 32, 32], 5, seed=init)
    return model, trainer.TrainingConfig(epochs=epochs, seed=fit)


class EmulateJet:
    """Back-to-back ``fixflow emulate`` calls on chunks of seeded rows.

    The 16x64x32x32x5 jet model is trained briefly, pruned to 70% and has
    COO compression on two of its four dense layers; every slot is the
    default wrapping, truncating fixed<16,6>. ``--taps`` alternates.
    """

    name = "emulate-jet"
    stages = ("plain", "taps")  # op i runs with --taps when i is odd
    min_ops = 100  # so the p90 has ten samples beyond it
    chunks = 25  # odd, so every chunk runs both with and without --taps
    rows_per_chunk = 16
    checked_rows = 6
    compared_rows = 100  # rows fed to the compiled testbench
    compressed = ("dense1", "dense2")

    def setup(self, seed, work):
        task, init, fit, train_draw, row_draw, pick = _seeds(seed, 6)
        data = trainer.synthetic_task(seed=task, n_samples=1000, sample_seed=train_draw)
        model, cfg = _jet_model(init, fit, epochs=10)
        model, _ = trainer.train(model, data, cfg)
        masks = pruning.rank_and_mask(model, pruning.PruneState.fresh(model), 0.7)
        model = pruning.apply_masks(model, masks)
        model = model.replace_nodes([
            replace(n, compression=True) if n.name in self.compressed else n
            for n in model.nodes
        ])
        os.makedirs(work)
        doc = model_ir.serialize_model(model)
        model_path = os.path.join(work, "jet.json")
        _write(model_path, doc)
        rows = trainer.synthetic_task(seed=task, n_samples=self.chunks * self.rows_per_chunk,
                                      sample_seed=row_draw).features
        chunk_paths = []
        for c in range(self.chunks):
            path = os.path.join(work, f"chunk_{c:02d}.txt")
            _write_rows(path, rows[c * self.rows_per_chunk:(c + 1) * self.rows_per_chunk])
            chunk_paths.append(path)
        rng = np.random.default_rng(pick)
        checked = rng.choice(self.chunks, self.checked_rows, replace=False)
        return {
            "work": work, "doc": doc, "model": model_path, "rows": rows,
            "chunk_paths": chunk_paths, "seen": {}, "ops_per_chunk": [0] * self.chunks,
            "check": {int(c): int(rng.integers(self.rows_per_chunk)) for c in checked},
            "lines": {},
        }

    def _call(self, i):
        return i % self.chunks, i % 2 == 1

    def op(self, state, i):
        chunk, taps = self._call(i)
        out = os.path.join(state["work"], "out_taps" if taps else "out")
        _fixflow(["emulate", "--model", state["model"], "--data", state["chunk_paths"][chunk],
                  "--out", out] + (["--taps"] if taps else []))

    def verify(self, state, i):
        chunk, taps = self._call(i)
        out = os.path.join(state["work"], "out_taps" if taps else "out")
        files = {"outputs": _read(os.path.join(out, "outputs.txt")),
                 "inputs_raw": _read(os.path.join(out, "inputs_raw.txt"))}
        found = {key: _sha(data) for key, data in files.items()}
        tap_dir = os.path.join(out, "taps")
        if taps:
            found["taps"] = _tree_digest(tap_dir)
        _compare(state["seen"].setdefault(chunk, {}), found, f"chunk {chunk}")
        # Only operations that passed the checks above: a later oracle
        # mismatch on this chunk fails exactly these.
        state["ops_per_chunk"][chunk] += 1
        if chunk in state["check"]:
            row = state["check"][chunk]
            lines = state["lines"].setdefault(chunk, {})
            lines["inputs_raw"] = files["inputs_raw"].decode().splitlines()[row]
            lines["outputs"] = files["outputs"].decode().splitlines()[row]
            if taps:
                for fname in os.listdir(tap_dir):
                    layer = fname[len("tap_00_"):-len(".txt")]
                    with open(os.path.join(tap_dir, fname)) as fh:
                        lines["tap " + layer] = fh.read().splitlines()[row]

    def reference(self, state):
        for i in (0, self.chunks):  # chunk 0 without and with --taps
            self.op(state, i)
            self.verify(state, i)
        return {"model": _sha(state["doc"].encode()), **state["seen"][0]}

    def after(self, state, tally):
        """Check the seeded rows against the exact-rational reference."""
        reference = ReferenceModel(state["doc"])
        for chunk, lines in sorted(state["lines"].items()):
            row = state["check"][chunk]
            want = reference.forward(state["rows"][chunk * self.rows_per_chunk + row])
            want["inputs_raw"] = want[reference.layers[0]["name"]]
            want["outputs"] = want[reference.layers[-1]["name"]]
            for key, got in lines.items():
                if got.strip() != want[key.replace("tap ", "")]:
                    tally.fail(state["ops_per_chunk"][chunk],
                               f"chunk {chunk} row {row}: {key} differs from the reference")
                    break

    def compile_and_compare(self, state):
        """Build the emitted project; its testbench must match the emulator."""
        compiler = shutil.which("g++") or shutil.which("c++") or shutil.which("clang++")
        if compiler is None:
            print(NO_COMPILER)
            return
        work = state["work"]
        project = os.path.join(work, "project")
        _fixflow(["codegen", "--model", state["model"], "--out", project, "--name", "jet"])
        tmp = os.path.join(work, "tmp")  # the compiler's scratch files stay in the checkout
        os.makedirs(tmp)
        subprocess.run(["sh", os.path.join(project, "build.sh")], check=True, capture_output=True,
                       timeout=60, env={**os.environ, "CXX": compiler, "TMPDIR": tmp})
        rows_path = os.path.join(work, "compare_rows.txt")
        _write_rows(rows_path, state["rows"][:self.compared_rows])
        out = os.path.join(work, "compare")
        _fixflow(["emulate", "--model", state["model"], "--data", rows_path, "--out", out,
                  "--taps"])
        got_path = os.path.join(out, "testbench.txt")
        subprocess.run([os.path.join(project, "build", "testbench"),
                        os.path.join(out, "inputs_raw.txt"), got_path],
                       check=True, capture_output=True, timeout=60)
        # The trailing softmax runs host-side: the firmware emits the logits,
        # which are the tap of the last fixed-point layer.
        taps = sorted(os.listdir(os.path.join(out, "taps")))
        logits = [t for t in taps if not t.endswith("_softmax.txt")][-1]
        with open(os.path.join(out, "taps", logits)) as fh:
            want = fh.read().split("\n")
        with open(got_path) as fh:
            got = fh.read().split("\n")
        if [line.strip() for line in got] != [line.strip() for line in want]:
            raise CheckFailed(f"compiled testbench differs from the emulator's {logits}")

    def named_metrics(self, times, passes):
        calls = list(times.values())
        return {
            "emulate_rows_per_s": (self.rows_per_chunk * len(calls) / sum(calls), "rows/s"),
            "emulate_call_p50_ms": (np.median(calls) * 1e3, "ms"),
            "emulate_call_p90_ms": (np.percentile(calls, 90) * 1e3, "ms"),
        }


class ScanJet:
    """PTQ-vs-QAT scans over widths 4..8 on the trained jet model.

    Each operation is one ``ptq_qat_scan`` call for one width, cycling 4..8,
    so a pass of five operations is a full scan. A call with one width does
    the work of that width's share of a five-width call, plus a real-valued
    baseline evaluation on the subset, which is negligible. Once the timed
    phase is over, each width's PTQ raws are checked against the
    exact-rational reference, one attempted operation per width, on two
    seeded held-out rows and on one of them scaled far out of range.
    """

    name = "scan-jet"
    bits = tuple(range(4, 9))
    stages = tuple(f"bits{b}" for b in bits)
    min_ops = 3 * len(stages)
    per_class = 2  # held-out rows per class in the fixed-point evaluation
    checked_rows = 2  # of those, rows checked against the exact-rational reference
    overdrive = 8.0  # a checked row scaled by this leaves the ranges seen in training

    def setup(self, seed, work):
        task, init, fit, train_draw, eval_draw, pick = _seeds(seed, 6)
        train = trainer.synthetic_task(seed=task, n_samples=1000, sample_seed=train_draw)
        held_out = trainer.synthetic_task(seed=task, n_samples=1000, sample_seed=eval_draw)
        rng = np.random.default_rng(pick)
        picked = np.sort(np.concatenate([
            rng.choice(np.flatnonzero(held_out.labels == c), self.per_class, replace=False)
            for c in range(held_out.class_count)
        ]))
        subset = trainer.Dataset(held_out.features[picked], held_out.labels[picked],
                                 held_out.class_count)
        picked = rng.choice(len(subset), self.checked_rows, replace=False)
        # The scaled copy drives inputs and activations into saturation.
        check = np.vstack([subset.features[picked], self.overdrive * subset.features[picked[:1]]])
        model, cfg = _jet_model(init, fit, epochs=20)
        model, _ = trainer.train(model, train, cfg)
        os.makedirs(work)
        doc = model_ir.serialize_model(model)
        paths = {key: os.path.join(work, name) for key, name in
                 (("model", "float.json"), ("train", "train.csv"), ("eval", "eval.csv"))}
        _write(paths["model"], doc)
        trainer.save_csv_dataset(train, paths["train"])
        trainer.save_csv_dataset(subset, paths["eval"])
        with open(paths["model"]) as fh:
            float_model = model_ir.parse_model(fh.read())
        return {
            "work": work, "doc": doc, "float_model": float_model,
            "train": trainer.load_csv_dataset(paths["train"]),
            "eval": trainer.load_csv_dataset(paths["eval"]),
            "cfg": replace(cfg, epochs=4), "seen": {}, "check": check,
        }

    def _csv(self, state, i):
        return os.path.join(state["work"], f"scan_{self.bits[i % len(self.bits)]}.csv")

    def op(self, state, i):
        _, rows = trainer.ptq_qat_scan(
            state["float_model"], state["train"], state["eval"],
            [self.bits[i % len(self.bits)]], state["cfg"],
            fixed_eval_limit=len(state["eval"]), float_model=state["float_model"])
        trainer.write_scan_csv(rows, self._csv(state, i))

    def verify(self, state, i):
        data = _read(self._csv(state, i))
        values = [float(v) for v in data.decode().splitlines()[1].split(",")[1:]]
        if len(values) != 2 or not all(0.0 <= v < 10.0 for v in values):
            raise CheckFailed(f"scan.csv holds unexpected relative accuracies {values}")
        _compare(state["seen"], {self.stages[i % len(self.stages)]: _sha(data)}, "scan")

    def _ptq_taps(self, state, bits):
        """The PTQ model at ``bits`` and every layer's line for each checked row."""
        model = trainer.scan_precisions(state["float_model"], state["train"].features, bits)
        rows = []
        for row in state["check"]:
            _, taps = kernels.run_inference(model, Tensor.from_numpy(row), tap_all=True)
            rows.append({tap.layer: _format_raws(tap.output.data) for tap in taps})
        return model, rows

    def _check_width(self, state, bits):
        model, rows = self._ptq_taps(state, bits)
        reference = ReferenceModel(model_ir.serialize_model(model))
        for r, (row, got) in enumerate(zip(state["check"], rows)):
            want = reference.forward(row)
            wrong = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            if wrong:
                raise CheckFailed(f"bits {bits} checked row {r}: {wrong} differ from the reference")

    def reference(self, state):
        lines = []
        for i in range(len(self.bits)):
            self.op(state, i)
            self.verify(state, i)
            lines += _read(self._csv(state, i)).decode().splitlines(keepends=True)[i > 0:]
        raws = hashlib.sha256()
        for bits in self.bits:
            raws.update(json.dumps(self._ptq_taps(state, bits)[1], sort_keys=True).encode())
        return {"model": _sha(state["doc"].encode()), "scan_csv": _sha("".join(lines).encode()),
                "ptq_raws": raws.hexdigest()}

    def after(self, state, tally):
        """Each width's saturating, round-half-up raws against the exact-rational reference."""
        for bits in self.bits:
            tally.run(f"reference check, bits {bits}", lambda b=bits: self._check_width(state, b))

    def named_metrics(self, times, passes):
        return {"scan_p50_s": (np.median(passes), "s")}


class CompileMnist:
    """Toolchain passes over the 784x128x64x10 MNIST architecture.

    A pass is five operations, one per stage: the four ``fixflow`` commands
    and the pruning step.
    """

    name = "compile-mnist"
    stages = ("convert", "profile", "estimate", "codegen", "prune")
    min_ops = 6 * len(stages)  # each stage's median rests on six samples or more
    reuse = "8,64"
    prune_fraction = 0.75
    artifacts = {
        "convert": ("model.json", "report.json"),
        "profile": ("profile.json", "coverage.json"),
        "estimate": ("report.json", "reuse_scan.csv"),
    }

    def setup(self, seed, work):
        (init,) = _seeds(seed, 1)
        model = trainer.build_classifier(784, [128, 64], 10, seed=init)
        os.makedirs(work)
        doc = model_ir.serialize_model(model)
        path = os.path.join(work, "mnist.json")
        _write(path, doc)
        return {"work": work, "doc": doc, "model": path, "seen": {}}

    def op(self, state, i):
        stage = self.stages[i % len(self.stages)]
        model, out = state["model"], os.path.join(state["work"], stage)
        if stage == "prune":
            with open(model) as fh:
                graph = model_ir.parse_model(fh.read())
            masks = pruning.rank_and_mask(graph, pruning.PruneState.fresh(graph),
                                          self.prune_fraction)
            state["pruned"] = (masks, pruning.apply_masks(graph, masks))
            return
        extra = {"estimate": ["--reuse", self.reuse], "codegen": ["--name", "mnist"]}
        _fixflow([stage, "--model", model, "--out", out] + extra.get(stage, []))

    def verify(self, state, i):
        stage = self.stages[i % len(self.stages)]
        out = os.path.join(state["work"], stage)
        if stage == "prune":
            masks, pruned = state.pop("pruned")
            h = hashlib.sha256()
            for node in pruned.nodes:
                if node.kind == "dense":
                    h.update(np.asarray(masks.masks[node.name], dtype=np.float64).tobytes())
                    h.update(np.asarray(node.param("weight").data, dtype=np.float64).tobytes())
            found = {"pruned": h.hexdigest()}
        elif stage == "codegen":
            found = {"codegen": _tree_digest(out)}
        else:
            found = {f"{stage}/{f}": _sha(_read(os.path.join(out, f)))
                     for f in self.artifacts[stage]}
        _compare(state["seen"], found, stage)

    def reference(self, state):
        for i in range(len(self.stages)):
            self.op(state, i)
            self.verify(state, i)
        return {"model": _sha(state["doc"].encode()), **state["seen"]}

    def after(self, state, tally):
        pass

    def named_metrics(self, times, passes):
        return {"compile_p50_s": (np.median(passes), "s")}


WORKLOADS = {w.name: w for w in (EmulateJet, ScanJet, CompileMnist)}
