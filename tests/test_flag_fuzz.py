"""Seeded fuzzing of numeric flags and config leaves, one value changed at a time.

Over train, qat, prune, scan, estimate and emulate on tiny data, each numeric
flag takes each of ``FLAG_VALUES`` and each config leaf it backs each of
``LEAF_VALUES``, then ``DRAWS`` values drawn from a generator seeded by the
command and flag. Every run must exit 0 or 1, or 2 where argparse refuses the
spelling for the flag's type, and print no traceback. On exit 0 every written
``.json`` must be RFC 8259 JSON (no ``NaN`` or ``Infinity``). A value outside
its setting's domain (``DOMAIN``), and a leaf that its cast would change, must
exit 1 with a message that names the flag or the key. A run that lasts past
``RUN_LIMIT_S`` fails.
"""

import contextlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys

import pytest

import fixflow
from fixflow import cli

FLAG_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "2.5", "true", "abc", str(2**63 + 1)]
LEAF_VALUES = [0, -1, math.nan, math.inf, -math.inf, 1e308, 1e-320, 2.5, True, False, "abc", 2**63 + 1]

TRAINING = {"--model": "arch:16x3x5", "--data": "synthetic:7:20", "--epochs": "1"}
BASE = {
    "train": TRAINING,
    "qat": TRAINING,
    "prune": {**TRAINING, "--target-fraction": "0.5", "--increment": "0.5", "--retrain-epochs": "1"},
    "scan": {**TRAINING, "--bits": "4"},
    "estimate": {"--model": "arch:4x3x2", "--reuse": "2"},
    "emulate": {"--model": "arch:16x3x5", "--data": "synthetic:7:4"},
}
LIST_FLAGS = {("scan", "--bits"), ("estimate", "--reuse")}  # str flags of comma-listed integers

# Each setting's domain, on the value the flag or leaf reads as, for the other
# settings of BASE: a quantizer of 6 bits, 1 integer bit and alpha 1 (5
# fraction bits), a target fraction and an increment of 0.5.
DOMAIN = {
    "seed": lambda v: True,
    "epochs": lambda v: 1 <= v < 2**63,
    "retrain_epochs": lambda v: 1 <= v < 2**63,
    "batch_size": lambda v: v >= 1,
    "learning_rate": lambda v: math.isfinite(v) and v > 0,
    "l1_lambda": lambda v: math.isfinite(v) and v >= 0,
    "bits": lambda v: 1 <= v <= 64,
    "integer_bits": lambda v: -1016 <= v <= 1024,  # the grid's step a normal float, its limits finite
    "alpha": lambda v: math.isfinite(v) and math.ldexp(v, -5) >= sys.float_info.min,
    "target_fraction": lambda v: v == 0 or 0.5 <= v <= 1,
    "increment": lambda v: 1 / 63 <= v <= 0.5,  # at least one of the 63 weights of arch:16x3x5
    "fixed_eval_limit": lambda v: v >= 1,
    "clock_mhz": lambda v: v > 0 and math.isfinite(v * 1e6),
    "reuse": lambda v: 1 <= v < 2**63,
}


def _numeric_flags():
    """``(command, flag, dest, type)`` of every int, float and integer-list flag of the six commands."""
    commands = next(a.choices for a in cli.build_parser()._actions if isinstance(a.choices, dict))
    for command in BASE:
        for action in commands[command]._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if action.type in (int, float) or (command, flag) in LIST_FLAGS:
                yield command, flag, action.dest, action.type or int


FLAGS = list(_numeric_flags())


RUN_LIMIT_S = 10


class Overran(BaseException):
    """Raised in a run past ``RUN_LIMIT_S``; ``cli.run`` catches only Exceptions."""


def _run(tmp_path, command, flags, config=None):
    """Exit code and console text of one ``cli.run``; the output directory is ``tmp_path/o``."""
    argv = [command, *(f"{k}={v}" for k, v in flags.items()), "--out", str(tmp_path / "o")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]

    def overran(signum, frame):
        raise Overran(f"{argv} {config} ran past {RUN_LIMIT_S} s")

    console, previous = io.StringIO(), signal.signal(signal.SIGALRM, overran)
    signal.alarm(RUN_LIMIT_S)
    try:
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = cli.run(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, console.getvalue()


def _refuse(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


def _check(tmp_path, code, text, rejected, names):
    assert "Traceback" not in text, text
    if rejected:
        assert code == 1 and any(name in text for name in names), (code, text)
    assert code in (0, 1), (code, text)
    if code == 0:
        for root, _, files in os.walk(tmp_path / "o"):
            for name in files:
                if name.endswith(".json"):
                    with open(os.path.join(root, name)) as fh:
                        json.loads(fh.read(), parse_constant=_refuse)


def test_every_numeric_flag_has_a_domain():
    assert {dest for _, _, dest, _ in FLAGS} == set(DOMAIN)


DRAWS = 4


def _drawn(command, flag, kind):
    """``DRAWS`` values seeded by the command and flag: for an int setting in -2..66 (counts
    that end quickly, bit widths either side of 1..64), else of random sign and magnitude."""
    rng = random.Random(f"{command}{flag}")
    if kind is int:
        return [rng.randint(-2, 66) for _ in range(DRAWS)]
    return [rng.choice((-1, 1)) * 10.0 ** rng.uniform(-320, 308) for _ in range(DRAWS)]


@pytest.mark.parametrize("command, flag, dest, kind", FLAGS, ids=[f"{c}{f}" for c, f, _, _ in FLAGS])
def test_flag_values(tmp_path, command, flag, dest, kind):
    for value in FLAG_VALUES + [repr(v) for v in _drawn(command, flag, kind)]:
        code, text = _run(tmp_path, command, {**BASE[command], flag: value})
        try:
            read = kind(value)
        except ValueError:
            read = None
        if read is None and (command, flag) not in LIST_FLAGS:  # argparse refuses the spelling
            assert code == 2 and "Traceback" not in text, (value, code, text)
            continue
        _check(tmp_path, code, text, read is None or not DOMAIN[dest](read), [flag])


LEAVES = [(command, flag, dest, kind) for command, flag, dest, kind in FLAGS if (command, flag) not in LIST_FLAGS]


def _leaf_read(leaf, kind):
    """The value a leaf reads as, or None when its cast would change it (or it is a bool)."""
    if isinstance(leaf, bool) or isinstance(leaf, str):
        return None
    try:
        value = kind(leaf)
    except (ValueError, OverflowError):
        return None
    return value if type(leaf) is kind or value == leaf else None


@pytest.mark.parametrize("command, flag, dest, kind", LEAVES, ids=[f"{c}-{d}" for c, _, d, _ in LEAVES])
def test_config_leaf_values(tmp_path, command, flag, dest, kind):
    flags = {k: v for k, v in BASE[command].items() if k != flag}  # a flag would win over the leaf
    for leaf in LEAF_VALUES + _drawn(command, dest, kind):
        read = _leaf_read(leaf, kind)
        code, text = _run(tmp_path, command, flags, {dest: leaf})
        _check(tmp_path, code, text, read is None or not DOMAIN[dest](read), [flag, repr(dest)])


# The faults this harness found, each as the case that showed it.
@pytest.mark.parametrize("command, flag, value", [
    ("train", "--learning-rate", "nan"),  # exit 0 with NaN in model.json
    ("train", "--learning-rate", "inf"),  # exit 0 with NaN in model.json
    ("train", "--l1-lambda", "nan"),  # exit 1: "loss became nan at epoch 0"
    ("train", "--batch-size", "0"),  # exit 0, trained at batch 1
    ("train", "--batch-size", "-1"),  # exit 0, trained at batch 1
    ("prune", "--increment", "nan"),  # exit 1 after the baseline trained: "fraction must be in [0, 1], got nan"
    ("prune", "--target-fraction", "nan"),  # exit 1 naming the field target_fraction
    ("prune", "--retrain-epochs", "0"),  # exit 1 naming --epochs: "epochs must be >= 1"
    ("prune", "--increment", "1e-320"),  # 5e319 iterations: prunes for ever
    ("train", "--epochs", str(2**63 + 1)),  # trains for ever
    ("prune", "--retrain-epochs", str(2**63 + 1)),  # retrains for ever
    ("train", "--learning-rate", "1e308"),  # exit 0, the last update sent the weights near +-1e308
    ("prune", "--learning-rate", "1e308"),  # exit 1 after the baseline trained: "loss became nan at epoch 0"
])
def test_found_value_exits_1_naming_the_flag(tmp_path, command, flag, value):
    code, text = _run(tmp_path, command, {**BASE[command], flag: value})
    assert code == 1 and text.startswith("error: ") and f"({flag})" in text, text
    assert not (tmp_path / "o").exists()


def test_reuse_item_past_int64_exits_1_naming_the_flag(tmp_path):
    # exit 0, the factor swept into reuse_scan.csv, where the same value as a range end exits 1
    value = "99999999999999999999"
    code, text = _run(tmp_path, "estimate", {**BASE["estimate"], "--reuse": value})
    assert code == 1 and text == f"error: --reuse {value!r} holds {value}, an item must be at most {2**63 - 1}\n"
    assert not (tmp_path / "o").exists()


def test_epochs_leaf_as_a_float_past_int64_exits_1(tmp_path):
    # 1e308 is an integral float, so the cast keeps it; it would train for ever.
    code, text = _run(tmp_path, "train", {k: v for k, v in TRAINING.items() if k != "--epochs"}, {"epochs": 1e308})
    assert code == 1 and "(--epochs)" in text, text



def test_scan_of_a_model_whose_outputs_leave_the_floats_exits_1(tmp_path):
    # The last step of the float training sends the weights past the float range.
    code, text = _run(tmp_path, "scan", {**BASE["scan"], "--learning-rate": "1e308"})
    assert code == 1 and "the float model's outputs on the training rows reach inf" in text, text


def test_qat_deployment_past_the_quantizer_grid_writes_no_nan(tmp_path):
    # A master weight near 1e308 over the grid's step is inf; the deployed weight is NaN.
    code, text = _run(tmp_path, "qat", {**BASE["qat"], "--learning-rate": "1e308"})
    assert code == 1 and "holds nan, a model document holds finite numbers" in text, text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("train", BASE["train"], "error: the model's outputs on the 20 evaluation rows are not finite: "
     "a smaller learning rate (--learning-rate) keeps the trained weights inside the floats\n"),
    ("prune", BASE["prune"], "error: the model's outputs on the 20 evaluation rows are not finite: "
     "a smaller learning rate (--learning-rate) keeps the trained weights inside the floats\n"),
    ("scan", {**BASE["scan"], "--data": "synthetic:7:40"}, "error: layer 'dense0': the float model's outputs "
     "on the training rows reach inf, so they give the scan no range\n"),
], ids=["train", "prune", "scan"])
def test_outputs_past_the_floats_print_only_the_error(tmp_path, command, flags, message):
    # numpy's overflow warnings, with their source lines, came before the error on standard error.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fixflow.__file__))}
    env.pop("PYTHONWARNINGS", None)
    argv = [f"{k}={v}" for k, v in {**flags, "--learning-rate": "1e308"}.items()] + ["--out", str(tmp_path / "o")]
    done = subprocess.run([sys.executable, "-m", "fixflow.cli", command, *argv], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    assert not (tmp_path / "o").exists()


# Range ends either side of each domain's edges and of the span limit, and drawn ones.
RANGE_ENDS = [-1, 0, 1, 2, 63, 64, 65, cli.MAX_RANGE_ITEMS, 2**63 - 1, 2**63]
RANGE_MOST = {"--bits": 64, "--reuse": 2**63 - 1}
SHORT_RANGE = 3  # items of the longest range run through a command; longer ones are parsed only


def _range_cases(command, flag):
    """``(lo, hi)`` pairs: each end with hi just below, at and above lo, and either side of the span limit."""
    rng = random.Random(f"{command}{flag}..")
    ends = RANGE_ENDS + [rng.randint(-2, 66) for _ in range(DRAWS)] + [rng.randrange(1, 2**63) for _ in range(DRAWS)]
    return sorted({(lo, hi) for lo in ends for hi in (
        lo - 1, lo, lo + SHORT_RANGE - 1, lo + cli.MAX_RANGE_ITEMS - 1, lo + cli.MAX_RANGE_ITEMS, rng.choice(ends))})


@pytest.mark.parametrize("command, flag", sorted(LIST_FLAGS), ids=[f"{c}{f}" for c, f in sorted(LIST_FLAGS)])
def test_ranges(tmp_path, command, flag):
    base = {**BASE[command], "--fixed-eval-limit": "50"} if command == "scan" else BASE[command]
    ran = 0
    for lo, hi in _range_cases(command, flag):
        text, count = f"{lo}..{hi}", hi - lo + 1
        valid = 1 <= lo and hi <= RANGE_MOST[flag] and 1 <= count <= cli.MAX_RANGE_ITEMS
        if valid and count > SHORT_RANGE:
            assert cli._parse_int_list(text, flag, RANGE_MOST[flag]) == list(range(lo, hi + 1)), text
            continue
        code, out = _run(tmp_path, command, {**base, flag: text})
        _check(tmp_path, code, out, not valid, [flag])
        assert code == (0 if valid else 1), (text, code, out)
        ran += valid
    assert ran >= 4, ran
