"""Command-line entry point orchestrating the full workflow.

Subcommands: convert, profile, train, qat, prune, emulate, estimate,
scan, codegen. Heavy configuration can live in a JSON config document
passed with --config; explicit flags override config leaves, and a key
that no command reads is an error. Every subcommand honors --seed (else
the config's seed, else 0) and writes deterministic artifacts (the codegen
manifest timestamp is the one quarantined exception).

Exit codes: 0 success, 1 domain error, 2 usage error. Set FIXFLOW_LOG to
DEBUG/INFO/WARNING for log verbosity.

Model arguments accept either a model document path or the shorthand
``arch:IN x H1 x ... x OUT`` (no spaces, e.g. ``arch:16x64x32x32x5``)
for a freshly initialized dense/ReLU/softmax classifier. Dataset
arguments accept a CSV path or ``synthetic[:seed[:samples]]`` for the
bundled 16-feature 5-class task.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import hashlib
import io
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from collections import Counter
from dataclasses import fields, replace

import numpy as np

from . import codegen, estimator, kernels, passes, profiler, pruning, trainer
from .model_ir import ModelGraph, Tensor, format_rows, parse_model, serialize_model, validate, write_output

log = logging.getLogger("fixflow")

_METHODS = {"l1": "l1_retrain", "lt": "lt_rewind", "qap": "qap"}
MAX_RANGE_ITEMS = 1 << 16  # of an integer-list flag's lo..hi, refused before it is built


@functools.cache
def _config_keys() -> frozenset:
    """Every key some command reads from a config document, so one document can serve several
    commands: each settings field that is a flag (but ``method``, a flag and never a leaf), and
    the keys that ``_pick`` reads by name and no settings class holds."""
    commands = next(a.choices for a in build_parser()._actions if isinstance(a.choices, dict))
    flags = {a.dest for p in commands.values() for a in p._actions}
    return frozenset({"config_version", "clock_mhz", "fixed_eval_limit"} | {
        f.name for cls in (trainer.TrainingConfig, trainer.QuantizerSpec, pruning.PruneSchedule)
        for f in fields(cls) if f.name in flags and f.name != "method"})


@contextmanager
def timed(stage: str):
    """Log the wall time of ``stage`` at INFO; with INFO off it costs one level check."""
    start = time.perf_counter() if log.isEnabledFor(logging.INFO) else None
    yield
    if start is not None:
        log.info("%s: %.1f ms", stage, (time.perf_counter() - start) * 1e3)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    if str(doc.get("config_version", "1")) != "1":
        raise ValueError(f"{path}: unsupported config_version")
    unknown = [key for key in doc if key not in _config_keys()]
    if unknown:
        raise ValueError(f"{path}: unknown config key {unknown[0]!r}")
    return doc


def _pick(args, config, key, default):
    """Flag value if given, else config leaf read as the default's type, else default.
    A leaf that the cast changes (1.9 for an int, "5" for a number) or a bool is an error."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key not in config:
        return default
    leaf, kind = config[key], type(default)
    try:
        value = kind(leaf)
        if isinstance(leaf, bool) or (type(leaf) is not kind and value != leaf):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"config key {key!r}: {leaf!r} is not a {kind.__name__}") from None
    return value


def _load_model(spec: str, seed: int) -> ModelGraph:
    if spec.startswith("arch:"):
        widths = spec[len("arch:"):].replace(",", "x").split("x")
        if not all(w.isdecimal() and int(w) > 0 for w in widths):
            raise ValueError(f"{spec}: widths must be positive integers")
        dims = [int(w) for w in widths]
        if len(dims) < 2:
            raise ValueError(f"{spec}: need at least input and output widths")
        return trainer.build_classifier(dims[0], dims[1:-1], dims[-1], seed=seed)
    with timed(f"load {spec}"), open(spec, "rb") as fh:
        return parse_model(fh.read())


def _synthetic(spec: str, seed: int):
    """``(task seed, samples)`` of a ``synthetic[:seed[:samples]]`` dataset argument, else None."""
    if spec != "synthetic" and not spec.startswith("synthetic:"):
        return None
    given = spec.split(":")[1:]
    try:
        task, samples = [int(p) for p in given] + [seed, 2000][len(given):]
    except ValueError:  # a field that is not an integer, or a third field
        raise ValueError(f"--data {spec!r}: expected synthetic[:seed[:samples]] of integers") from None
    if samples < 1:
        raise ValueError(f"--data {spec!r} holds {samples} samples, a dataset needs at least 1")
    return task, samples


def _load_dataset(spec: str, seed: int) -> trainer.Dataset:
    synthetic = _synthetic(spec, seed)
    return trainer.load_csv_dataset(spec) if synthetic is None else trainer.synthetic_task(*synthetic)


def _load_input_rows(spec: str, seed: int) -> np.ndarray:
    """The rows of a dataset argument, or of a file of lines of whitespace-separated numbers,
    read once: through ``trainer._read_number_rows`` when one space separates the values
    (a comma of the file's own is no separator), else, and for every error, ``_rows_by_line``."""
    if _synthetic(spec, seed) is not None or spec.endswith(".csv"):
        return _load_dataset(spec, seed).features
    with open(spec) as fh:
        text = fh.read()
    fast = None if "," in text else trainer._read_number_rows(text.replace(" ", ","))
    return fast[0] if fast else _rows_by_line(text, spec)


def _rows_by_line(text: str, spec: str) -> np.ndarray:
    rows = []
    for number, line in enumerate(io.StringIO(text), 1):
        try:
            row = [float(v) for v in line.split()]
            if not all(map(math.isfinite, row)):
                raise ValueError(f"non-finite value in {line.strip()!r}")
            if rows and row and len(row) != len(rows[0]):
                raise ValueError(f"{len(row)} values, the first row has {len(rows[0])}")
        except ValueError as exc:
            raise ValueError(f"{spec}:{number}: {exc}") from None
        if row:  # blank lines are skipped
            rows.append(row)
    return np.array(rows, dtype=np.float64)


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_text(path, text: str | bytes):
    """Write a whole artifact, ``text`` as UTF-8 bytes."""
    with timed(f"write {path}"):
        write_output(path, text if isinstance(text, bytes) else text.encode())


def _write_json(path, doc):
    _write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _training_inputs(args, config):
    """(model, dataset, training config) of a training command. The labels are
    checked before any training: evaluation needs two or more, and rows of each
    label from 0 to the largest."""
    graph = _load_model(args.model, args.seed)
    data = _load_dataset(args.data, args.seed)
    trainer.check_labels(data, args.data)
    return graph, data, _settings(trainer.TrainingConfig, args, config)


def _settings(cls, args, config, **given):
    """``cls`` built from ``given`` and, for each other field that is also a flag,
    ``_pick`` with the field's own default."""
    for f in fields(cls):
        if f.name not in given and hasattr(args, f.name):
            given[f.name] = _pick(args, config, f.name, f.default)
    return cls(**given)


def _quantizer(args, config) -> trainer.QuantizerSpec:
    return _settings(trainer.QuantizerSpec, args, config, bits=_pick(args, config, "bits", 6))


def cmd_convert(args, config):
    graph = _load_model(args.model, args.seed)
    with timed("passes"):
        graph, reports = passes.run_standard_passes(graph)
        problems = validate(graph)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 1
    with timed("serialize"):
        data = serialize_model(graph).encode()
    out = _out_dir(args)
    _write_text(os.path.join(out, "model.json"), data)
    with timed("emit"):
        report = codegen.emit_report(graph, pass_reports=reports,
                                     source_hash=hashlib.sha256(data).hexdigest())
    _write_json(os.path.join(out, "report.json"), report)
    applied = sum(len(r.rewrites) for r in reports)
    print(f"converted: {len(graph.nodes)} layers, {applied} rewrites")
    return 0


def cmd_profile(args, config):
    graph = _load_model(args.model, args.seed)
    with timed("profile"):
        report = profiler.profile_weights(graph)
        coverage = profiler.check_coverage(report, graph)
    out = _out_dir(args)
    _write_json(os.path.join(out, "profile.json"), report.to_doc())
    _write_json(os.path.join(out, "coverage.json"),
                [dict(c.__dict__) for c in coverage])
    for entry in coverage:
        print(f"{entry.level}: [{entry.layer}.{entry.param}] {entry.message}")
    print(f"profiled {len(report.rows)} tensors, {len(coverage)} findings")
    return 0


def cmd_train(args, config):
    graph, data, cfg = _training_inputs(args, config)
    trained, trace = trainer.train(graph, data, cfg)
    report = trainer.evaluate(trained, data)  # refuses outputs past the floats, before any write
    out = _out_dir(args)
    _write_text(os.path.join(out, "model.json"), serialize_model(trained))
    trainer.write_loss_trace(trace, os.path.join(out, "loss_trace.csv"))
    print(f"trained {cfg.epochs} epochs: loss {trace[-1].loss:.4f}, "
          f"accuracy {report.accuracy:.4f}, mean AUC {report.mean_auc:.4f}")
    return 0


def cmd_qat(args, config):
    graph, data, cfg = _training_inputs(args, config)
    quantizer = _quantizer(args, config)
    cfg = replace(cfg, quantizers=quantizer)
    trained, trace = trainer.train_qat(graph, data, cfg)
    deployed = trainer.quantize_model_weights(trained, quantizer)
    texts = serialize_model(trained), serialize_model(deployed)  # both, before a file is written
    report = trainer.evaluate(deployed, data)
    out = _out_dir(args)
    _write_text(os.path.join(out, "model.json"), texts[0])
    _write_text(os.path.join(out, "model_quantized.json"), texts[1])
    trainer.write_loss_trace(trace, os.path.join(out, "loss_trace.csv"))
    print(f"qat({quantizer.bits} bits) {cfg.epochs} epochs: loss {trace[-1].loss:.4f}, "
          f"accuracy {report.accuracy:.4f}")
    return 0


def cmd_prune(args, config):
    graph, data, cfg = _training_inputs(args, config)
    quantizer = _quantizer(args, config)  # checked under every method, used under qap
    method = _METHODS[args.method]
    schedule = _settings(pruning.PruneSchedule, args, config, method=method,
                         target_fraction=_pick(args, config, "target_fraction", 0.8))
    if method == "qap":
        cfg = replace(cfg, quantizers=quantizer)
    model, state, history = pruning.prune_iterative(graph, data, schedule, cfg)
    out = _out_dir(args)
    _write_text(os.path.join(out, "model.json"), serialize_model(model))
    pruning.write_prune_history(history, os.path.join(out, "prune_history.csv"))
    final = history[-1]
    print(f"pruned to {final.fraction:.2f}: accuracy {final.accuracy:.4f}, BOPs {final.bops:.0f}")
    return 0


def cmd_emulate(args, config):
    graph = _load_model(args.model, args.seed)
    if "value" in graph.nodes[0].params:
        raise ValueError(f"input layer {graph.nodes[0].name!r} carries a constant value, "
                         "so emulation would ignore the input rows")
    with timed(f"load {args.data}"):
        rows = _load_input_rows(args.data, args.seed)
    if not len(rows):
        raise ValueError(f"{args.data}: no input rows")
    if rows.shape[1] != graph.input_width:
        raise ValueError(f"inputs have {rows.shape[1]} values per row, model expects {graph.input_width}")
    with timed("materialize"):
        graph = kernels.materialize_quantized(graph)
        quantized = Tensor.from_numpy(rows).quantized(graph.nodes[0].precision.result)
    with timed("run_inference"):
        result, taps = kernels.run_inference(graph, quantized, tap_all=args.taps)
    out = _out_dir(args)
    texts = {}  # with --taps, the input and last taps are the tensors of these two files
    _write_rows(os.path.join(out, "outputs.txt"), result, texts)
    _write_rows(os.path.join(out, "inputs_raw.txt"), quantized, texts)
    tap_dir = os.path.join(out, "taps")
    names = [f"tap_{idx:02d}_{tap.layer}.txt" for idx, tap in enumerate(taps)]
    if taps:
        os.makedirs(tap_dir, exist_ok=True)
    for name, tap in zip(names, taps):
        _write_rows(os.path.join(tap_dir, name), tap.output, texts)
    listed = os.listdir(tap_dir) if taps or os.path.isdir(tap_dir) else []
    for stale in set(fnmatch.filter(listed, "tap_*.txt")) - set(names):
        os.remove(os.path.join(tap_dir, stale))  # an earlier run's tap; a run without --taps writes none
    print(f"emulated {len(rows)} inputs")
    return 0


def _write_rows(path, t: Tensor, texts: dict):
    """Write the raws of a quantized block of rows, or the reals of a real one, one line per row
    of values joined by spaces, as ``str`` and ``repr`` write them (``format_rows``). ``texts``
    maps each tensor formatted before to its bytes, so no tensor is formatted twice.
    """
    with timed(f"format {path}"):
        if t not in texts:
            texts[t] = b"\n".join(format_rows(t.array.reshape(-1, t.shape[-1]), b" ") + [b""])
    _write_text(path, texts[t])


def cmd_estimate(args, config):
    graph = _load_model(args.model, args.seed)
    clock = _pick(args, config, "clock_mhz", estimator.CLOCK_MHZ)
    factors = _parse_int_list(args.reuse, "--reuse", 2**63 - 1) if args.reuse else []
    if args.reuse and not factors:
        raise ValueError(f"--reuse {args.reuse!r} holds no reuse factor")
    if factors and min(factors) < 1:
        raise ValueError(f"--reuse {args.reuse!r} holds {min(factors)}, a reuse factor must be at least 1")
    # One quantized copy serves the estimates and the sweep. It is dropped
    # before the real-valued graph is profiled and serialized, which keeps
    # peak memory at that of the other commands.
    with timed("estimate"):
        quantized = graph if args.assume_dense else kernels.materialize_quantized(graph)
        estimates = estimator.estimate_model(quantized, clock_mhz=clock,
                                             assume_dense=args.assume_dense)
        sweep = estimator.reuse_sweep(quantized, factors, clock_mhz=clock,
                                      assume_dense=args.assume_dense)
    del quantized
    out = _out_dir(args)
    with timed("profile"):
        profile = profiler.profile_weights(graph)
    with timed("emit"):
        report = codegen.emit_report(graph, estimates, profile)
    _write_json(os.path.join(out, "report.json"), report)
    resource, timing = estimates
    if factors:
        _write_sweep_csv(sweep, os.path.join(out, "reuse_scan.csv"))
        print(f"swept {len(factors)} reuse factors")
    print(f"DSP {resource.dsp_total}, BOPs {resource.bops_total:.0f}, "
          f"II {timing.model_ii_cycles} cycles at {clock:g} MHz")
    return 0


def _write_sweep_csv(rows, path):
    trainer._write_csv(path, ["reuse_factor", "ii_cycles", "latency_cycles", "dsp_total",
                              "n_mult_total", "throughput_hz"], (
        [row["reuse_factor"], row["model_ii_cycles"], row["total_latency_cycles"], row["dsp_total"],
         row["n_mult_total"], repr(row["throughput_hz"])] for row in rows))


def cmd_scan(args, config):
    graph, data, cfg = _training_inputs(args, config)
    synthetic = _synthetic(args.data, args.seed)
    eval_data = data if synthetic is None else trainer.synthetic_task(
        seed=synthetic[0], sample_seed=synthetic[0] + 10_000)
    bits = _parse_int_list(args.bits, "--bits", trainer.MAX_SPEC_WIDTH)
    try:  # raised on the evaluation rows' labels, before any training, or on a baseline of accuracy 0
        baseline, rows = trainer.ptq_qat_scan(
            graph, data, eval_data, bits, cfg,
            fixed_eval_limit=_pick(args, config, "fixed_eval_limit", trainer.FIXED_EVAL_LIMIT),
        )
    except trainer.EvaluationError as exc:
        raise ValueError(f"{args.data}: {exc}") from None
    out = _out_dir(args)
    trainer.write_scan_csv(rows, os.path.join(out, "scan.csv"))
    print(f"baseline accuracy {baseline.accuracy:.4f}")
    for row in rows:
        print(f"bits {row.bits}: PTQ {row.ptq_rel_acc:.4f}  QAT {row.qat_rel_acc:.4f}")
    return 0


def cmd_codegen(args, config):
    graph = _load_model(args.model, args.seed)
    with timed("emit"):
        tree = codegen.emit_project(graph, codegen.CodegenConfig(project_name=args.name))
    out = _out_dir(args)
    with timed(f"write {out}"):
        tree.write_to(out)
    print(f"emitted {len(tree.files) + 1} files to {out}")
    return 0


def _parse_int_list(text: str, flag: str, most: int):
    """Accepts '14,28,98' of items at most 2**63-1, or an inclusive range '3..16' whose ends lie
    in 1..``most`` and that spans at most ``MAX_RANGE_ITEMS`` items, checked before the range is
    built; ValueError names ``flag``, also for an item given twice. The caller checks the items
    against its own domain."""
    try:
        ends = [int(v) for v in text.split("..", 1)] if ".." in text else []
        values = [] if ends else [int(v) for v in text.strip().split(",") if v]
    except ValueError:
        raise ValueError(f"{flag} {text!r}: expected a comma list or lo..hi of integers") from None
    if ends:
        for end in ends:
            if not 1 <= end <= most:
                raise ValueError(f"{flag} {text!r} holds {end}, a range end must be in 1..{most}")
        count = ends[1] - ends[0] + 1
        if count > MAX_RANGE_ITEMS:
            raise ValueError(f"{flag} {text!r} spans {count} items, a range may span at most {MAX_RANGE_ITEMS}")
        return list(range(ends[0], ends[1] + 1))
    for value in values:
        if value > 2**63 - 1:
            raise ValueError(f"{flag} {text!r} holds {value}, an item must be at most {2**63 - 1}")
    repeated = [v for v, count in Counter(values).items() if count > 1]
    if repeated:
        raise ValueError(f"{flag} {text!r} repeats {repeated[0]}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fixflow",
        description="Compile trained MLPs to bit-accurate fixed-point implementations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(handler, help, *flag_groups, data=False):
        """Add the sub-command ``<name>`` that runs ``handler`` (``cmd_<name>``), with the shared flags."""
        p = sub.add_parser(handler.__name__[len("cmd_"):], help=help)
        p.add_argument("--model", required=True, help="model document path or arch:INxH1x...xOUT")
        if data:
            p.add_argument("--data", required=True,
                           help="dataset CSV path or synthetic[:seed[:samples]]")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config document; flags override leaves")
        p.add_argument("--seed", type=int)
        for flags in flag_groups:
            flags(p)
        p.set_defaults(handler=handler)
        return p

    command(cmd_convert, "parse, optimize, validate, write canonical model")
    command(cmd_profile, "weight distribution and precision coverage")
    command(cmd_train, "float training", _train_flags, data=True)
    command(cmd_qat, "quantization-aware training", _train_flags, _quant_flags, data=True)

    p = command(cmd_prune, "iterative pruning driver", _train_flags, _quant_flags, data=True)
    p.add_argument("--method", choices=sorted(_METHODS), default="l1")
    p.add_argument("--target-fraction", dest="target_fraction", type=float)
    p.add_argument("--increment", type=float)
    p.add_argument("--retrain-epochs", dest="retrain_epochs", type=int)

    p = command(cmd_emulate, "bit-accurate batch inference", data=True)
    p.add_argument("--taps", action="store_true", help="write every layer output")

    p = command(cmd_estimate, "resource and timing estimates")
    p.add_argument("--clock-mhz", dest="clock_mhz", type=float)
    p.add_argument("--reuse", help="comma list or lo..hi of reuse factors to sweep")
    p.add_argument("--assume-dense", dest="assume_dense", action="store_true",
                   help="count every weight as a multiplier (architecture study)")

    p = command(cmd_scan, "PTQ vs QAT bit-width sweep", _train_flags, data=True)
    p.add_argument("--bits", required=True, help="comma list or lo..hi, e.g. 3..16")
    p.add_argument("--fixed-eval-limit", dest="fixed_eval_limit", type=int,
                   help="samples used for the bit-accurate evaluations")

    p = command(cmd_codegen, "emit the HLS-style C++ project")
    p.add_argument("--name", default="model", help="project / entry-point name")
    return parser


def _train_flags(p):
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--l1-lambda", dest="l1_lambda", type=float)
    p.add_argument("--optimizer", choices=("sgd", "adam"))


def _quant_flags(p):
    p.add_argument("--bits", type=int)
    p.add_argument("--integer-bits", dest="integer_bits", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mode", choices=("fixed", "binary", "ternary"))


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    level = getattr(logging, os.environ.get("FIXFLOW_LOG", "WARNING").upper(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = _load_config(args.config)
        args.seed = _pick(args, config, "seed", 0)
        return args.handler(args, config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        log.debug("failure detail", exc_info=True)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
