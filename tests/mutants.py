"""Mutation harness: each listed mutant of ``src/fixflow`` must fail the tests named for it.

    python tests/mutants.py [NAME ...]

A mutant is one exact source fragment of one file, which must occur there
exactly once, and its replacement. For each mutant the harness copies
``src/fixflow`` to a temporary directory, applies the mutant and runs the
mutant's test node ids with ``PYTHONPATH`` pointing at the copy. The mutant
is killed when pytest reports failed tests, and survives when they all pass.
Before any mutant, the same node ids must pass on an unmutated copy.

Anything else fails loudly: a fragment that no longer occurs, or occurs more
than once (a refactor has to re-state its mutant, not drop it silently), a
replacement that does not compile, a collection error or a node id that is
not found. The exit status is 0 only when every mutant is killed. Standard
library only; run from anywhere.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fixflow")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/fixflow
    fragment: str
    replacement: str
    killers: tuple  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant("half_up_as_floor_of_y_plus_half", "fixed_point.py",
           "    raws = np.multiply(y, 2.0)\n    np.floor(raws, out=raws)\n    raws -= np.floor(y, out=y)\n"
           "    return raws\n",
           "    return np.floor(y + 0.5)\n",
           ("tests/test_trainer.py::TestQat::test_alpha_rescales_fixed_grid",)),
    Mutant("sign_band_strict", "kernels.py",
           "out = np.where(d >= half, 1.0,", "out = np.where(d > half, 1.0,",
           ("tests/test_kernels.py::TestRunInference::test_binary_tanh_threshold_and_modes",)),
    Mutant("mac_final_wrap_dropped", "kernels.py",
           "    if not saturate:\n        acc = apply_overflow_array(acc, acc_spec)\n", "",
           ("tests/test_kernels.py::TestDenseMv::test_matches_rational_oracle_randomized",
            "tests/test_kernels.py::TestBlockPath::test_random_blocks_match_oracle_and_per_add_reference")),
    Mutant("saturating_sum_clamped_once", "kernels.py",
           "            for term in formed:\n                acc = apply_overflow_array(acc + term, acc_spec)\n",
           "            acc = apply_overflow_array(acc + formed.sum(axis=0), acc_spec)\n",
           ("tests/test_kernels.py::TestBlockPath::test_random_blocks_match_oracle_and_per_add_reference",)),
    Mutant("mac_dtype_forced_to_int64", "kernels.py",
           "dtype = int_dtype(wlo, whi,", "dtype = np.int64 or int_dtype(wlo, whi,",
           ("tests/test_codegen.py::TestBatchParity::test_products_beyond_int64",)),
    Mutant("prune_cut_takes_every_tie", "pruning.py",
           "pruned = ratio < kth", "pruned = ratio <= kth",
           ("tests/test_pruning.py::TestPartitionCut",)),
    Mutant("quant_relu_keeps_clamped_zeros", "trainer.py",
           "        self._mask &= values > 0\n", "",
           ("tests/test_trainer.py::TestQuantRelu::test_equals_unfused_layers_on_edge_inputs",)),
    Mutant("quant_relu_ignores_input_limit", "trainer.py",
           "        self._mask &= x <= self._hi_in\n", "",
           ("tests/test_trainer.py::TestQuantRelu::test_equals_unfused_layers_on_edge_inputs",)),
    Mutant("tensor_values_indented_10", "model_ir.py",
           'sep = b",\\n" + b" " * 12', 'sep = b",\\n" + b" " * 10',
           ("tests/test_model_ir.py::TestSerializeText::test_splice_matches_stdlib_on_random_graphs",)),
    Mutant("orjson_range_open_at_1e-4", "model_ir.py",
           "(mag >= 1e-4)", "(mag > 1e-4)",
           ("tests/test_model_ir.py::TestSerializeText::test_orjson_writes_every_run_inside_its_range",)),
    Mutant("csv_writer_ignores_repr_rule", "model_ir.py",
           "for i in np.flatnonzero(~_orjson_is_repr(block).all(axis=1)):", "for i in []:",
           ("tests/test_trainer.py::TestDataPlumbing::test_csv_writer_matches_csv_module_on_each_edge_value",)),
    Mutant("real_rows_without_repr_fallback", "model_ir.py",
           '    if block.dtype.kind == "f":\n', "    if False:\n",
           ("tests/test_cli.py::TestRowWriter::test_bytes_equal_the_per_row_join[reals]",)),
    Mutant("object_raws_down_the_numpy_path", "model_ir.py",
           "data = block.tolist() if block.dtype == object else np.ascontiguousarray(block)",
           "data = np.ascontiguousarray(block)",
           ("tests/test_cli.py::TestRowWriter::test_bytes_equal_the_per_row_join[object_u64]",)),
    Mutant("whole_file_writer_never_cuts", "model_ir.py",
           "            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))\n", "            pass\n",
           ("tests/test_model_ir.py::TestWriteOutput::test_shorter_rewrite_leaves_exactly_the_new_bytes",)),
    Mutant("whole_file_writer_stops_at_a_short_write", "model_ir.py",
           "        while written < len(data):\n", "        while False:\n",
           ("tests/test_model_ir.py::TestWriteOutput::test_short_writes_are_continued",)),
    Mutant("model_hash_skips_a_part", "model_ir.py",
           "    for part in _document_parts(graph):\n        digest.update(part)\n",
           "    for part in list(_document_parts(graph))[1:]:\n        digest.update(part)\n",
           ("tests/test_model_ir.py::TestSerializeText::test_model_hash_is_that_of_the_document_bytes",)),
    Mutant("int64_min_literal_reverted", "codegen.py",
           '_INT64_MIN, _INT64_MIN_CXX = str(-(1 << 63)), "(-9223372036854775807LL - 1)"',
           "_INT64_MIN = _INT64_MIN_CXX = str(-(1 << 63))",
           ("tests/test_codegen.py::TestInt64MinLiterals",)),
    # The low extreme alone, shifted, is max(W, W + s) bits: what the other
    # extremes add is the right shift's half unit and distance.
    Mutant("cast_bits_without_right_shift", "codegen.py",
           "for v in extremes)", "for v in extremes[:1])",
           ("tests/test_codegen.py::TestProjectStructure::test_cast_beyond_the_wide_type_rejected[right_shift]",)),
    Mutant("cast_bits_bound_inclusive", "codegen.py",
           "if bits > _WIDE_BITS:", "if bits >= _WIDE_BITS:",
           ("tests/test_codegen.py::TestWideSpecsCompile::test_cast_of_exactly_127_bits_bit_matches_emulator",)),
    Mutant("result_cast_from_result_width", "codegen.py",
           "result = _cast_args(node, acc.width_bits,", "result = _cast_args(node, prec.result.width_bits,",
           ("tests/test_codegen.py::TestProjectStructure::test_cast_beyond_the_wide_type_rejected[result]",)),
    Mutant("relu_cast_from_result_fraction", "codegen.py",
           "in_spec.width_bits, in_spec.fraction_bits, res)", "in_spec.width_bits, res.fraction_bits, res)",
           ("tests/test_codegen.py::TestEveryKindCompiles::test_compiled_project_bit_matches_emulator",)),
    Mutant("cast_half_constant_dropped", "fixed_point.py",
           "    return lo, hi + half, half\n", "    return lo, hi + half\n",
           ("tests/test_kernels.py::TestCastShiftsAroundInt64::test_dense_product_cast[-64-round_half_up-16]",)),
    Mutant("storage_check_always_passes", "codegen.py",
           "        if spec.raw_dtype is not np.int64:\n", "        if False:\n",
           ("tests/test_codegen.py::TestProjectStructure::test_unsigned_64_bit_storage_rejected",)),
    Mutant("sign_levels_unchecked", "model_ir.py",
           '            bad("precision", f"result {res} cannot tell +1 from -1")\n', "            pass\n",
           ("tests/test_model_ir.py::TestValidate::test_sign_levels_must_differ",
            "tests/test_cli.py::TestMalformedDocuments::test_layer_rule_broken")),
    Mutant("settings_ignore_config_leaf", "cli.py",
           "given[f.name] = _pick(args, config, f.name, f.default)", "given[f.name] = f.default",
           ("tests/test_cli.py::TestSettings::test_config_leaves_reach_every_field_and_flags_win",)),
    Mutant("prune_schedule_default_30", "pruning.py",
           "    retrain_epochs: int = 20\n", "    retrain_epochs: int = 30\n",
           ("tests/test_cli.py::TestSettings::test_prune_defaults_are_the_library_ones",)),
    Mutant("repeated_int_list_item_accepted", "cli.py",
           "    if repeated:\n        raise ValueError(", "    if False:\n        raise ValueError(",
           ("tests/test_cli.py::TestEstimate::test_bad_integer_argument_names_it",
            "tests/test_cli.py::TestEmulate::test_scan_rejects_no_widths_and_limits_below_one")),
    Mutant("seed_flag_defaults_to_zero", "cli.py",
           '        p.add_argument("--seed", type=int)\n', '        p.add_argument("--seed", type=int, default=0)\n',
           ("tests/test_cli.py::TestConfigKeys::test_seed_leaf_is_the_seed_flag_and_the_flag_wins",)),
    Mutant("unknown_config_key_accepted", "cli.py",
           "    if unknown:\n", "    if False:\n",
           ("tests/test_cli.py::TestConfigKeys::test_unknown_key_names_path_and_key",)),
    Mutant("synthetic_samples_unchecked", "cli.py",
           "    if samples < 1:\n", "    if False:\n",
           ("tests/test_cli.py::TestEmulate::test_scan_rejects_no_widths_and_limits_below_one",)),
    Mutant("adam_second_moment_of_g_squared", "trainer.py",
           "        s[1] *= g\n", "        s[1] = self._gains[1] * (g * g)\n",
           ("tests/test_trainer.py::TestStep::test_step_equals_copying_step[adam]",)),
    Mutant("relu_writes_callers_rows", "trainer.py",
           "out=x if owned else None)", "out=x)",
           ("tests/test_trainer.py::TestStep::test_relu_after_the_input_leaves_the_callers_rows",)),
    Mutant("quantizer_alpha_may_be_infinite", "trainer.py",
           "if not (math.isfinite(self.alpha) and self.alpha > 0):", "if not self.alpha > 0:",
           ("tests/test_cli.py::TestStrictValues::test_quantizer_outside_the_floats_names_the_flag",)),
    Mutant("quantizer_grid_unchecked", "trainer.py",
           "            if not (sys.float_info.min <= step and", "            if False and not (sys.float_info.min <= step and",
           ("tests/test_cli.py::TestStrictValues::test_quantizer_outside_the_floats_names_the_flag",)),
    Mutant("clock_unchecked", "estimator.py",
           "    if not (clock_mhz > 0 and math.isfinite(clock_mhz * 1e6)):\n", "    if False:\n",
           ("tests/test_cli.py::TestStrictValues::test_clock_without_a_finite_rate_names_the_flag",
            "tests/test_cli.py::TestStrictValues::test_reuse_sweep_checks_the_clock")),
    Mutant("config_leaf_cast_may_change_it", "cli.py",
           "(type(leaf) is not kind and value != leaf)", "False",
           ("tests/test_cli.py::TestStrictValues::test_leaf_its_cast_would_change_names_the_key",)),
    Mutant("config_leaf_may_be_bool", "cli.py",
           "isinstance(leaf, bool) or ", "",
           ("tests/test_cli.py::TestStrictValues::test_leaf_its_cast_would_change_names_the_key",)),
    Mutant("config_keys_take_method", "cli.py",
           ' and f.name != "method"', "",
           ("tests/test_cli.py::TestConfigKeys",)),
    # The orjson reader takes a file only where float() reads it bit for bit.
    Mutant("csv_reader_accepts_minus_zero", "trainer.py",
           "or kinds.count(float) != len(rows) * (width - labelled)):",
           "or kinds.count(float) + kinds.count(int) != len(rows) * width):",
           ("tests/test_readers.py::TestFastPath::test_minus_zero_feature_is_minus_zero",)),
    Mutant("csv_reader_skips_field_count", "trainer.py",
           "set(map(len, rows)) != {width}", "False",
           ("tests/test_readers.py::TestFastPath::test_ragged_rows_name_the_line",)),
    Mutant("csv_reader_splits_like_splitlines", "trainer.py",
           '.replace("\\r", "\\n").split("\\n")', ".splitlines()",
           ("tests/test_readers.py::TestFastPath::test_form_feed_stays_inside_a_field",)),
    Mutant("csv_label_past_int64_unchecked", "trainer.py",
           "            if label >= 2**63:\n", "            if False:\n",
           ("tests/test_readers.py::TestFastPath::test_label_past_int64_names_the_line",)),
    Mutant("learning_rate_may_be_nan", "trainer.py",
           "if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):", "if self.learning_rate <= 0:",
           ("tests/test_flag_fuzz.py::test_found_value_exits_1_naming_the_flag[train---learning-rate-nan]",)),
    Mutant("l1_lambda_may_be_nan", "trainer.py",
           "if not (math.isfinite(self.l1_lambda) and self.l1_lambda >= 0):", "if self.l1_lambda < 0:",
           ("tests/test_flag_fuzz.py::test_found_value_exits_1_naming_the_flag[train---l1-lambda-nan]",)),
    Mutant("batch_size_unchecked", "trainer.py",
           "        if self.batch_size < 1:\n", "        if False:\n",
           ("tests/test_flag_fuzz.py::test_found_value_exits_1_naming_the_flag[train---batch-size-0]",)),
    Mutant("epochs_past_int64", "trainer.py",
           "if not 1 <= self.epochs <= MAX_EPOCHS:", "if self.epochs < 1:",
           ("tests/test_flag_fuzz.py::test_found_value_exits_1_naming_the_flag[train---epochs-9223372036854775809]",)),
    Mutant("increment_may_be_nan", "pruning.py",
           "        if not self.increment > 0:\n", "        if self.increment <= 0:\n",
           ("tests/test_flag_fuzz.py::test_found_value_exits_1_naming_the_flag[prune---increment-nan]",)),
    Mutant("retrain_epochs_unchecked", "pruning.py",
           "        if not 1 <= self.retrain_epochs <= _trainer.MAX_EPOCHS:\n", "        if False:\n",
           ("tests/test_flag_fuzz.py::test_found_value_exits_1_naming_the_flag[prune---retrain-epochs-0]",)),
    Mutant("increment_below_one_weight", "pruning.py",
           "    if schedule.target_fraction > 0 and schedule.increment * state.total_weights < 1:", "    if False:",
           ("tests/test_flag_fuzz.py::test_found_value_exits_1_naming_the_flag[prune---increment-1e-320]",)),
    Mutant("scan_range_may_be_infinite", "trainer.py",
           "            if not math.isfinite(peak):\n", "            if False:\n",
           ("tests/test_flag_fuzz.py::test_scan_of_a_model_whose_outputs_leave_the_floats_exits_1",)),
    Mutant("trained_model_may_hold_nan", "model_ir.py",
           "            if not np.isfinite(data).all():\n", "            if False:\n",
           ("tests/test_flag_fuzz.py::test_qat_deployment_past_the_quantizer_grid_writes_no_nan",
            "tests/test_model_ir.py::TestSerializeText::test_a_value_that_is_not_finite_is_refused",
            "tests/test_cli.py::TestConvert::test_fusion_that_overflows_writes_nothing")),
    Mutant("convert_makes_out_before_serializing", "cli.py",
           '    with timed("serialize"):\n        data = serialize_model(graph).encode()\n    out = _out_dir(args)\n',
           '    out = _out_dir(args)\n    with timed("serialize"):\n        data = serialize_model(graph).encode()\n',
           ("tests/test_cli.py::TestConvert::test_fusion_that_overflows_writes_nothing",)),
    Mutant("report_json_may_hold_nan", "cli.py",
           "allow_nan=False", "allow_nan=True",
           ("tests/test_cli.py::TestConvert::test_report_holding_nan_is_not_written",)),
    Mutant("scan_baseline_may_be_zero", "trainer.py",
           "    if baseline.accuracy == 0:\n", "    if False:\n",
           ("tests/test_cli.py::TestTrainAndScan::test_scan_refuses_a_baseline_of_accuracy_zero",)),
    Mutant("list_items_past_int64_unchecked", "cli.py",
           "        if value > 2**63 - 1:\n", "        if False:\n",
           ("tests/test_flag_fuzz.py::test_reuse_item_past_int64_exits_1_naming_the_flag",)),
    Mutant("fusion_overflow_warns", "passes.py",
           'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():",
           ("tests/test_cli.py::TestConvert::test_fusion_that_overflows_prints_only_the_error",
            "tests/test_cli.py::TestConvert::test_fusion_that_overflows_writes_nothing")),
    Mutant("range_ends_unchecked", "cli.py",
           "            if not 1 <= end <= most:\n", "            if False:\n",
           ("tests/test_cli.py::TestEstimate::test_bad_integer_argument_names_it",
            "tests/test_cli.py::TestEmulate::test_scan_rejects_no_widths_and_limits_below_one")),
    Mutant("prune_fraction_zero_returns_untrained", "pruning.py",
           '    if schedule.method == "qap" and cfg.quantizers is None:\n',
           '    if schedule.target_fraction == 0.0:\n        return model, PruneState.fresh(model), []\n'
           '    if schedule.method == "qap" and cfg.quantizers is None:\n',
           ("tests/test_pruning.py::TestPruneIterative::test_target_zero_trains_the_baseline",
            "tests/test_cli.py::TestTrainAndScan::test_prune_to_fraction_zero_trains_the_baseline")),
    Mutant("increment_checked_at_fraction_zero", "pruning.py",
           "schedule.target_fraction > 0 and schedule.increment", "schedule.increment",
           ("tests/test_pruning.py::TestPruneIterative::test_target_zero_trains_the_baseline",)),
]


def _pytest(src_dir, node_ids):
    env = {**os.environ, "PYTHONPATH": src_dir, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def _copy(tmp):
    src_dir = os.path.join(tmp, "src")
    shutil.copytree(PACKAGE, os.path.join(src_dir, "fixflow"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src_dir


def run_mutant(mutant):
    """True when killed, False when it survives; raises RuntimeError on anything else."""
    with tempfile.TemporaryDirectory(prefix="fixflow-mutant-") as tmp:
        src_dir = _copy(tmp)
        path = os.path.join(src_dir, "fixflow", mutant.file)
        with open(path) as fh:
            source = fh.read()
        count = source.count(mutant.fragment)
        if count != 1:
            raise RuntimeError(f"{mutant.name}: fragment occurs {count} times in {mutant.file}")
        source = source.replace(mutant.fragment, mutant.replacement)
        try:
            compile(source, path, "exec")
        except SyntaxError as exc:
            raise RuntimeError(f"{mutant.name}: replacement does not compile: {exc}") from None
        with open(path, "w") as fh:
            fh.write(source)
        done = _pytest(src_dir, mutant.killers)
    if done.returncode not in (0, 1):  # 2: collection error, 4: node id not found, 5: no tests
        raise RuntimeError(f"{mutant.name}: pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return done.returncode == 1


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fixflow-mutant-") as tmp:
        baseline = _pytest(_copy(tmp), sorted({k for m in chosen for k in m.killers}))
    if baseline.returncode != 0:
        raise SystemExit(f"the killing tests fail without a mutant:\n{baseline.stdout}{baseline.stderr}")
    survivors = []
    for mutant in chosen:
        killed = run_mutant(mutant)
        print(f"{'killed' if killed else 'SURVIVED'}  {mutant.name}", flush=True)
        if not killed:
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
