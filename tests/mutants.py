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
