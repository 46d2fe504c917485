"""A fixed unit of pure-Python work that measures how fast the host runs now.

The machine the benchmark runs on is shared, and its speed drifts by a
quarter or more over tens of seconds. ``unit()`` does the same work on
every call and touches no fixflow code, so its time changes only with the
host and the interpreter. The benchmark times one unit just before and
one just after every set-up and operation, and scales that set-up's or
operation's wall time by ``REFERENCE_S`` over the mean of the two units.
A scaled time reads as the wall time on a host on which one unit takes
``REFERENCE_S``. A change to fixflow moves it in proportion; a host that
slows everything down moves both the operation and the units, and the
ratio stays.

The unit mixes what the program's hot paths do in Python: frozen
dataclass objects, big-integer shifts and masks, exact ``Fraction``
arithmetic, float formatting, JSON and dict/list traffic.
"""

import gc
import json
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# About the median time of one unit on a shared 2-vCPU Xeon VM at 2.1 GHz
# with Python 3.11; fixed, so scaled times compare across runs and commits.
REFERENCE_S = 0.005


@dataclass(frozen=True)
class _Value:
    raw: int
    bits: int


def _work():
    acc = 0
    items = {}
    parts = []
    for i in range(1500):
        v = _Value((i * 2654435761) & 0xFFFF, 6 + i % 11)
        wrapped = ((v.raw << 3) + (v.raw >> 2)) & 0xFFFF
        if wrapped & 0x8000:
            wrapped -= 0x10000
        acc += wrapped * v.bits
        items[i & 63] = v
        if i % 8 == 0:
            acc += int(Fraction(v.raw, 1 << v.bits) * 3)
        parts.append(repr(v.raw / (1 << v.bits)))
    doc = json.dumps({"values": parts, "acc": acc})
    return len(json.loads(doc)["values"]) + len(items)


def unit():
    """Seconds taken by one fixed unit of work, with the collector off."""
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        gc.enable()
