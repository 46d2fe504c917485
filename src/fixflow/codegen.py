"""Backend writer emitting a self-contained HLS-style C++ project.

The emitted kernels mirror the emulator's frozen cast-point and
accumulation-order conventions exactly, and weights are emitted as raw
integer literals on the same quantization grid, so a compiled project
bit-matches the emulator. Arithmetic rides on a generated minimal
fixed-point header (128-bit intermediates) instead of any vendor type,
which keeps the compile-and-compare test toolchain-portable.

A trailing softmax layer is evaluated host-side (it is monotone, so the
classification argmax is unchanged); the firmware ends at the last
fixed-point layer, and the testbench exchanges raw integer vectors, one
whitespace-separated vector per line.

Generation is pure and deterministic given (graph, config, tool
version); only the manifest carries a timestamp. Writing files to disk
is the caller's concern.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np
import orjson

from . import __version__
from .fixed_point import ROUND_HALF_UP, SATURATE, FixedPointSpec, cast_extremes
from .kernels import compress_coo, materialize_quantized, sign_levels
from .model_ir import ModelGraph, model_hash, walk, write_output

TOOL_VERSION = __version__

# The most bits a cast's shifted raw, or its right shift, may take in 128-bit arithmetic.
_WIDE_BITS = 127


class CodegenError(ValueError):
    pass


@dataclass(frozen=True)
class CodegenConfig:
    project_name: str = "model"


@dataclass(frozen=True)
class ProjectTree:
    """Generated files plus a manifest; only the manifest carries a timestamp."""

    files: tuple  # ((relative path, text), ...)
    manifest: dict

    def __post_init__(self):
        paths = [p for p, _ in self.files]
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate paths in project tree")
        object.__setattr__(self, "files", tuple(self.files))

    def file(self, path: str) -> str:
        for p, text in self.files:
            if p == path:
                return text
        raise KeyError(path)

    def write_to(self, out_dir):
        files = self.files + (("manifest.json", json.dumps(self.manifest, indent=2) + "\n"),)
        for folder in {os.path.dirname(path) for path, _ in files}:
            os.makedirs(os.path.join(out_dir, folder), exist_ok=True)
        for path, text in files:
            full = os.path.join(out_dir, path)
            write_output(full, text.encode())
            if path.endswith(".sh"):
                os.chmod(full, 0o755)


FIXED_OPS_HEADER = """\
#pragma once
// Minimal exact fixed-point raw-integer operations.
// Semantics: truncate rounds toward negative infinity, round-half-up adds
// half a unit then floors; wrap reduces modulo 2^width in two's complement,
// saturate clamps. 128-bit intermediates hold every exact product.

typedef __int128 ff_wide_t;

static inline ff_wide_t ff_shift_round(ff_wide_t v, int shift, int round_half_up) {
    if (shift >= 0) return v << shift;
    int s = -shift;
    if (round_half_up) return (v + (((ff_wide_t)1) << (s - 1))) >> s;
    return v >> s;  // arithmetic shift floors
}

static inline ff_wide_t ff_overflow(ff_wide_t v, int width, int is_signed, int saturate) {
    ff_wide_t max_raw = is_signed ? ((((ff_wide_t)1) << (width - 1)) - 1)
                                  : ((((ff_wide_t)1) << width) - 1);
    ff_wide_t min_raw = is_signed ? -(((ff_wide_t)1) << (width - 1)) : (ff_wide_t)0;
    if (v >= min_raw && v <= max_raw) return v;
    if (saturate) return v > max_raw ? max_raw : min_raw;
    ff_wide_t wrapped = v & ((((ff_wide_t)1) << width) - 1);
    if (is_signed && wrapped > max_raw) wrapped -= ((ff_wide_t)1) << width;
    return wrapped;
}

static inline ff_wide_t ff_cast(ff_wide_t raw, int from_frac, int to_frac, int round_half_up,
                                int width, int is_signed, int saturate) {
    return ff_overflow(ff_shift_round(raw, to_frac - from_frac, round_half_up),
                       width, is_signed, saturate);
}
"""

TESTBENCH = """\
// Generated testbench: one whitespace-separated raw-integer vector per line.
// Inputs are raws on the model's input grid; outputs are the final
// fixed-point layer's raws in the same exchange format.
#include <cstdio>
#include "{name}.h"

int main(int argc, char **argv) {{
    if (argc != 3) {{
        std::fprintf(stderr, "usage: %s <input.txt> <output.txt>\\n", argv[0]);
        return 2;
    }}
    std::FILE *in = std::fopen(argv[1], "r");
    if (!in) {{ std::fprintf(stderr, "cannot open %s\\n", argv[1]); return 1; }}
    std::FILE *out = std::fopen(argv[2], "w");
    if (!out) {{ std::fprintf(stderr, "cannot open %s\\n", argv[2]); return 1; }}

    long long x[FF_INPUT_WIDTH];
    long long y[FF_OUTPUT_WIDTH];
    for (;;) {{
        int got = 0;
        for (; got < FF_INPUT_WIDTH; ++got) {{
            if (std::fscanf(in, "%lld", &x[got]) != 1) break;
        }}
        if (got == 0) break;
        if (got != FF_INPUT_WIDTH) {{
            std::fprintf(stderr, "truncated input vector (%d of %d values)\\n",
                         got, FF_INPUT_WIDTH);
            return 1;
        }}
        {name}_forward(x, y);
        for (int i = 0; i < FF_OUTPUT_WIDTH; ++i)
            std::fprintf(out, i + 1 == FF_OUTPUT_WIDTH ? "%lld\\n" : "%lld ", y[i]);
    }}
    std::fclose(in);
    std::fclose(out);
    return 0;
}}
"""

BUILD_SH = """\
#!/bin/sh
# Build the generated testbench; needs a C++17 compiler with __int128.
set -e
cd "$(dirname "$0")"
mkdir -p build
${{CXX:-g++}} -O2 -std=c++17 -I firmware -o build/testbench \\
    firmware/{name}.cpp tb/testbench.cpp
echo "built build/testbench"
"""


def _spec_comment(spec: FixedPointSpec) -> str:
    return f"{spec.to_string()}  value = raw * 2^-{spec.fraction_bits}"


def _cast_args(node, width: int, from_frac: int, spec: FixedPointSpec) -> str:
    """The arguments of an ``ff_cast`` of a ``width``-bit raw on ``from_frac`` fraction bits
    into ``spec``: every integer the cast forms from such a raw must fit the 128-bit type."""
    extremes = cast_extremes(-1 << width - 1, (1 << width - 1) - 1, from_frac, spec)
    bits = max(abs(v).bit_length() for v in extremes)
    if bits > _WIDE_BITS:
        raise CodegenError(f"layer {node.name!r}: intermediate needs {bits} bits, "
                           f"generated arithmetic supports {_WIDE_BITS}")
    return (f"{from_frac}, {spec.fraction_bits}, {int(spec.rounding == ROUND_HALF_UP)}, "
            f"{spec.width_bits}, {int(spec.signed)}, {int(spec.overflow == SATURATE)}")


def _overflow_args(spec: FixedPointSpec) -> str:
    return f"{spec.width_bits}, {int(spec.signed)}, {int(spec.overflow == SATURATE)}"


def _check_storage(node, specs):
    """Every spec in ``specs`` is one the firmware stores in long long; accumulators are not."""
    for spec in specs:
        if spec.raw_dtype is not np.int64:
            raise CodegenError(
                f"layer {node.name!r}: unsigned width {spec.width_bits} does not fit the "
                "generated 64-bit storage"
            )


def _mac_exprs(node, in_spec):
    """The MAC's C++ text: (bias_cast(bias), add(acc) of the product p, result_cast(acc))."""
    prec, acc = node.precision, node.precision.accumulator
    product = _cast_args(node, prec.weight.width_bits + in_spec.width_bits,
                         prec.weight.fraction_bits + in_spec.fraction_bits, acc)
    bias = _cast_args(node, prec.bias.width_bits, prec.bias.fraction_bits, acc)
    result = _cast_args(node, acc.width_bits, acc.fraction_bits, prec.result)
    return (lambda b: f"ff_cast((ff_wide_t){b}, {bias})",
            lambda a: f"{a} = ff_overflow({a} + ff_cast(p, {product}), {_overflow_args(acc)});",
            lambda a: f"(long long)ff_cast({a}, {result})")


# C++ reads -9223372036854775808 as the negation of a constant too large for long long.
_INT64_MIN, _INT64_MIN_CXX = str(-(1 << 63)), "(-9223372036854775807LL - 1)"


def _literal_rows(raws):
    """int64 raws as initializer rows of 12 literals: orjson writes the full
    rows as one nested array and the tail as another, and the brackets
    become the separators."""
    raws = np.ascontiguousarray(raws)
    full = raws.size - raws.size % 12
    head = orjson.dumps(raws[:full].reshape(-1, 12), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    tail = orjson.dumps(raws[full:], option=orjson.OPT_SERIALIZE_NUMPY) if full < raws.size else b""
    text = b",".join(part for part in (head, tail) if part).decode()
    text = text.replace(",", ", ").replace("], [", ",\n    ").replace("[", "    ").replace("]", "")
    return text.replace(_INT64_MIN, _INT64_MIN_CXX)


def _weight_header(index: int, title: str, comments: list, arrays: list) -> str:
    guard = f"FF_W{index}_H"
    lines = [f"#ifndef {guard}", f"#define {guard}", f"// {title}"]
    lines += [f"// {c}" for c in comments]
    lines.append("")
    for name, values in arrays:
        lines += [f"static const long long {name}[] = {{", _literal_rows(values), "};"]
    lines += ["", f"#endif  // {guard}", ""]
    return "\n".join(lines)


def _emit_dense(node, in_spec, index):
    weight, bias = node.param("weight"), node.param("bias")
    m, n = weight.shape
    bias_cast, add, result_cast = _mac_exprs(node, in_spec)
    nz = np.count_nonzero(weight.array)
    comments = [
        f"weight {_spec_comment(node.precision.weight)}",
        f"bias   {_spec_comment(node.precision.bias)}",
        f"nonzero weights: {nz} of {m * n}",
    ]
    kernel = [
        f"// {node.name}: dense {n} -> {m}",
        f"// reuse_factor={node.reuse_factor}"
        f"  (#pragma HLS PIPELINE II={node.reuse_factor};"
        f" {math.ceil(nz / node.reuse_factor)} multipliers)",
    ]
    if node.compression:
        coo = compress_coo(weight)
        comments.append(
            f"COO records: packed index = out * {n} + in ({coo.index_bits} index bits)"
        )
        arrays = [
            (f"coo_index_{index}", coo.packed),
            (f"coo_weight_{index}", coo.raws),
            (f"bias_{index}", bias.array),
        ]
        kernel += [
            "// compression=true: coordinate-list sparse kernel",
            f"static void {node.name}_kernel(const long long x[{n}], long long y[{m}]) {{",
            f"    ff_wide_t acc[{m}];",
            f"    for (int i = 0; i < {m}; ++i)",
            f"        acc[i] = {bias_cast(f'bias_{index}[i]')};",
            f"    for (int e = 0; e < {coo.packed.size}; ++e) {{",
            f"        int i = (int)(coo_index_{index}[e] / {n});",
            f"        int j = (int)(coo_index_{index}[e] % {n});",
            f"        ff_wide_t p = (ff_wide_t)coo_weight_{index}[e] * (ff_wide_t)x[j];",
            f"        {add('acc[i]')}",
            "    }",
            f"    for (int i = 0; i < {m}; ++i)",
            f"        y[i] = {result_cast('acc[i]')};",
            "}",
        ]
    else:
        arrays = [(f"weight_{index}", weight.array), (f"bias_{index}", bias.array)]
        kernel += [
            f"static void {node.name}_kernel(const long long x[{n}], long long y[{m}]) {{",
            f"    for (int i = 0; i < {m}; ++i) {{",
            f"        ff_wide_t acc = {bias_cast(f'bias_{index}[i]')};",
            f"        for (int j = 0; j < {n}; ++j) {{",
            f"            if (weight_{index}[i * {n} + j] == 0) continue;  // zero weights skipped",
            f"            ff_wide_t p = (ff_wide_t)weight_{index}[i * {n} + j] * (ff_wide_t)x[j];",
            f"            {add('acc')}",
            "        }",
            f"        y[i] = {result_cast('acc')};",
            "    }",
            "}",
        ]
    header = _weight_header(index, f"layer {node.name}: dense {n} -> {m}", comments, arrays)
    return header, kernel


def _emit_batch_norm(node, in_spec, index, width):
    scale, shift = node.param("scale"), node.param("shift")
    bias_cast, add, result_cast = _mac_exprs(node, in_spec)
    header = _weight_header(
        index,
        f"layer {node.name}: batch_norm over {width} channels (folded scale/shift)",
        [f"scale {_spec_comment(node.precision.weight)}", f"shift {_spec_comment(node.precision.bias)}"],
        [(f"scale_{index}", scale.array), (f"shift_{index}", shift.array)],
    )
    kernel = [
        f"// {node.name}: batch_norm, one multiply per channel",
        f"static void {node.name}_kernel(const long long x[{width}], long long y[{width}]) {{",
        f"    for (int i = 0; i < {width}; ++i) {{",
        f"        ff_wide_t acc = {bias_cast(f'shift_{index}[i]')};",
        f"        ff_wide_t p = (ff_wide_t)scale_{index}[i] * (ff_wide_t)x[i];",
        f"        {add('acc')}",
        f"        y[i] = {result_cast('acc')};",
        "    }",
        "}",
    ]
    return header, kernel


def _emit_relu(node, in_spec, width):
    res = node.precision.result
    return [
        f"// {node.name}: relu, max(0, x) exact in fixed point",
        f"static void {node.name}_kernel(const long long x[{width}], long long y[{width}]) {{",
        f"    for (int i = 0; i < {width}; ++i)",
        f"        y[i] = (long long)ff_cast(x[i] < 0 ? (ff_wide_t)0 : (ff_wide_t)x[i], "
        f"{_cast_args(node, in_spec.width_bits, in_spec.fraction_bits, res)});",
        "}",
    ]


def _emit_sign_activation(node, in_spec, index, width, ternary: bool):
    res = node.precision.result
    half, plus, zero, minus = sign_levels(node)
    header = _weight_header(
        index,
        f"layer {node.name}: {node.kind} thresholds on the incoming grid",
        [f"threshold {_spec_comment(in_spec)}",
         "mode: 0 = +1 iff x >= t, 1 = +1 iff x <= t, 2/3 = constant +1/-1"],
        # Mode codes are integral floats; a braced long long initializer
        # rejects the narrowing 1.0.
        [(f"threshold_{index}", node.param("threshold").array),
         (f"mode_{index}", node.param("mode").array.astype(np.int64))],
    )
    lines = [
        f"// {node.name}: {node.kind} (XNOR-friendly +/-1 encoding in {res.to_string()})",
        f"static void {node.name}_kernel(const long long x[{width}], long long y[{width}]) {{",
        f"    for (int i = 0; i < {width}; ++i) {{",
        f"        int mode = (int)mode_{index}[i];",
        f"        if (mode == 2) {{ y[i] = {plus}; continue; }}",
        f"        if (mode == 3) {{ y[i] = {minus}; continue; }}",
    ]
    if ternary:
        lines += [
            f"        ff_wide_t d = (ff_wide_t)x[i] - (ff_wide_t)threshold_{index}[i];",
            "        if (mode == 1) d = -d;",
            f"        y[i] = d >= {half} ? {plus}LL : (d <= -({half}) ? {minus}LL : {zero}LL);",
        ]
    else:
        lines += [
            f"        int hot = mode == 1 ? (x[i] <= threshold_{index}[i]) : (x[i] >= threshold_{index}[i]);",
            f"        y[i] = hot ? {plus}LL : {minus}LL;",
        ]
    lines += ["    }", "}"]
    return header, [line.replace(_INT64_MIN + "LL", _INT64_MIN_CXX).replace(_INT64_MIN, _INT64_MIN_CXX)
                    for line in lines]


def emit_project(graph: ModelGraph, config: CodegenConfig = CodegenConfig()) -> ProjectTree:
    """Emit the full project tree for a validated, pass-optimized graph."""
    source_hash = model_hash(graph)
    graph = materialize_quantized(graph)
    steps = walk(graph)
    name = config.project_name

    kernels, headers, stages = [], [], []
    header_paths = []
    weight_index = 0
    notes = []
    for node, in_spec, _, width in steps:
        kind = node.kind
        if kind == "input":
            input_spec = node.precision.result
            if "value" in node.params:
                notes.append(f"input {node.name!r} carries a constant value; testbench inputs override it")
            continue
        if kind == "softmax":
            notes.append("trailing softmax is evaluated host-side; firmware emits the logits")
            continue
        prec = node.precision
        _check_storage(node, (in_spec, prec.result, prec.weight, prec.bias)
                       if kind in ("dense", "batch_norm") else (in_spec, prec.result))
        if kind == "dense":
            header, kernel = _emit_dense(node, in_spec, weight_index)
        elif kind == "batch_norm":
            header, kernel = _emit_batch_norm(node, in_spec, weight_index, width)
        elif kind == "relu":
            header, kernel = None, _emit_relu(node, in_spec, width)
        else:  # binary_tanh / ternary_tanh
            header, kernel = _emit_sign_activation(node, in_spec, weight_index, width,
                                                   ternary=kind == "ternary_tanh")
        if header is not None:
            headers.append((f"firmware/weights/w{weight_index}.h", header))
            header_paths.append(f"weights/w{weight_index}.h")
            weight_index += 1
        kernels.append(kernel)
        stages.append((node.name, width))

    if not stages:
        raise CodegenError("graph has no fixed-point compute layers to emit")
    out_width = stages[-1][1]

    model_h = "\n".join([
        "#pragma once",
        f"// {name}: generated inference entry point.",
        f"// Input: {graph.input_width} raws on {_spec_comment(input_spec)}",
        f"#define FF_INPUT_WIDTH {graph.input_width}",
        f"#define FF_OUTPUT_WIDTH {out_width}",
        f"void {name}_forward(const long long x[FF_INPUT_WIDTH], long long y[FF_OUTPUT_WIDTH]);",
        "",
    ])

    cpp = [
        f"// {name}: generated fully-connected inference kernels.",
        "// Convention: exact product -> cast into the accumulator spec -> add",
        "// (accumulator overflow applied per add, ascending input index);",
        "// one final cast into the result spec. Bit-exact with the emulator.",
        '#include "fixed_ops.h"',
        '#include "parameters.h"',
        f'#include "{name}.h"',
    ]
    cpp += [f'#include "{p}"' for p in header_paths]
    cpp.append("")
    for kernel in kernels:
        cpp.extend(kernel)
        cpp.append("")
    cpp.append(f"void {name}_forward(const long long x[FF_INPUT_WIDTH], long long y[FF_OUTPUT_WIDTH]) {{")
    prev = "x"
    for i, (layer_name, width) in enumerate(stages):
        buf = f"t{i}"
        cpp.append(f"    long long {buf}[{width}];")
        cpp.append(f"    {layer_name}_kernel({prev}, {buf});")
        prev = buf
    cpp.append(f"    for (int i = 0; i < FF_OUTPUT_WIDTH; ++i) y[i] = {prev}[i];")
    cpp.append("}")
    cpp.append("")

    files = [
        ("firmware/fixed_ops.h", FIXED_OPS_HEADER),
        ("firmware/parameters.h", _parameters_header(steps)),
        (f"firmware/{name}.h", model_h),
        (f"firmware/{name}.cpp", "\n".join(cpp)),
    ]
    files += headers
    files += [
        ("tb/testbench.cpp", TESTBENCH.format(name=name)),
        ("build.sh", BUILD_SH.format(name=name)),
    ]
    manifest = {
        "project": name,
        "model_hash": source_hash,
        "tool_version": TOOL_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "notes": notes,
    }
    return ProjectTree(tuple(files), manifest)


def _parameters_header(steps) -> str:
    lines = [
        "#pragma once",
        "// Per-layer configuration summary (informational).",
        "//",
        "// layer | kind | width | reuse | compression | weight/bias/acc/result",
    ]
    for node, _, _, width in steps:
        prec = node.precision
        lines.append(
            f"// {node.name} | {node.kind} | {width} | {node.reuse_factor} | "
            f"{str(node.compression).lower()} | "
            f"{prec.weight} / {prec.bias} / {prec.accumulator} / {prec.result}"
        )
    lines.append("")
    return "\n".join(lines)


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "model", "passes", "resources", "timing",
                 "profile", "prune_history"],
    "properties": {
        "schema_version": {"const": "1"},
        "model": {
            "type": "object",
            "required": ["hash", "input_shape", "layers"],
            "properties": {
                "hash": {"type": "string"},
                "input_shape": {"type": "array", "items": {"type": "integer"}},
                "layers": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "kind", "output_width"],
                    },
                },
            },
        },
        "passes": {"type": "array", "items": {"type": "object"}},
        "resources": {
            "type": ["object", "null"],
            "properties": {
                "dsp_total": {"type": "integer", "minimum": 0},
                "lut_estimate": {"type": "number", "minimum": 0},
                "bops_total": {"type": "number", "minimum": 0},
                "per_layer": {"type": "array"},
            },
        },
        "timing": {"type": ["object", "null"]},
        "profile": {"type": ["object", "null"]},
        "prune_history": {"type": "array"},
    },
}


def emit_report(graph: ModelGraph, estimates=None, profile=None, pass_reports=None,
                source_hash: str = None) -> dict:
    """One structured document aggregating everything the pipeline measured.

    The model hash is sha256 of the canonical document, ``serialize_model(graph).encode()``;
    a caller that has written that text passes its hash as ``source_hash``.
    """
    doc = {
        "schema_version": "1",
        "model": {
            "hash": source_hash or model_hash(graph),
            "input_shape": list(graph.input_shape),
            "layers": [
                {"name": node.name, "kind": node.kind, "output_width": width}
                for node, _, _, width in walk(graph)
            ],
        },
        "passes": [r.to_doc() for r in (pass_reports or [])],
        "resources": None,
        "timing": None,
        "profile": profile.to_doc() if profile is not None else None,
        "prune_history": [],
    }
    if estimates is not None:
        resource, timing = estimates
        doc["resources"] = {
            "dsp_total": resource.dsp_total,
            "lut_estimate": resource.lut_estimate,
            "bops_total": resource.bops_total,
            "per_layer": [asdict(r) for r in resource.per_layer],
        }
        doc["timing"] = {
            "clock_mhz": timing.clock_mhz,
            "model_ii_cycles": timing.model_ii_cycles,
            "total_latency_cycles": timing.total_latency_cycles,
            "throughput_inferences_per_second": timing.throughput_inferences_per_second,
            "per_layer": [asdict(t) for t in timing.per_layer],
        }
    return doc
