"""Exact two's-complement fixed-point arithmetic.

A value is an integer ``raw`` interpreted as ``raw * 2**-fraction_bits``
under a :class:`FixedPointSpec`. All operations are pure integer
arithmetic, so results are exact and platform independent:

* ``truncate`` rounds toward negative infinity (HLS ``AP_TRN``).
* ``round_half_up`` rounds to nearest, ties toward positive infinity
  (HLS ``AP_RND``).
* ``wrap`` reduces the raw integer modulo ``2**width`` and reinterprets
  it in two's complement; ``saturate`` clamps to the representable range.

``integer_bits`` may be negative or exceed ``width_bits`` (pure-fraction
and pure-integer formats), following the ``ap_fixed`` convention.
No spec is wider than 64 bits; exact products of two raws, up to 128
bits wide, stay exact as Python ints. ``apply_overflow_array`` and
``cast_raw_array`` state the overflow and cast rules once, for a Python
int or for every element of an int64 or object (Python int) array of
raws; ``round_scaled`` states the rounding rule on float64 reals already
scaled onto the raw grid. The scalar API is ``quantize`` and
``FixedPointValue`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

TRUNCATE = "truncate"
ROUND_HALF_UP = "round_half_up"
WRAP = "wrap"
SATURATE = "saturate"

MAX_SPEC_WIDTH = 64


def int_dtype(*bounds):
    """int64 when every bound fits it, else object (Python ints)."""
    return np.int64 if all(-(1 << 63) <= b < (1 << 63) for b in bounds) else object


@dataclass(frozen=True)
class FixedPointSpec:
    """Shape of a fixed-point format: ``fixed<width, integer_bits>``."""

    width_bits: int
    integer_bits: int
    signed: bool = True
    rounding: str = TRUNCATE
    overflow: str = WRAP

    def __post_init__(self):
        if not 1 <= self.width_bits <= MAX_SPEC_WIDTH:
            raise ValueError(f"width_bits must be in 1..{MAX_SPEC_WIDTH}, got {self.width_bits}")
        if self.rounding not in (TRUNCATE, ROUND_HALF_UP):
            raise ValueError(f"unknown rounding mode {self.rounding!r}")
        if self.overflow not in (WRAP, SATURATE):
            raise ValueError(f"unknown overflow mode {self.overflow!r}")

    @cached_property
    def fraction_bits(self) -> int:
        return self.width_bits - self.integer_bits

    @cached_property
    def min_raw(self) -> int:
        return -(1 << (self.width_bits - 1)) if self.signed else 0

    @cached_property
    def max_raw(self) -> int:
        if self.signed:
            return (1 << (self.width_bits - 1)) - 1
        return (1 << self.width_bits) - 1

    @cached_property
    def raw_dtype(self):
        """The dtype of a ``Tensor`` holding raws of this spec."""
        return int_dtype(self.min_raw, self.max_raw)

    @property
    def min_value(self) -> Fraction:
        """Smallest representable real value."""
        return _raw_to_real(self.min_raw, self.fraction_bits)

    @property
    def max_value(self) -> Fraction:
        """Largest representable real value."""
        return _raw_to_real(self.max_raw, self.fraction_bits)

    @property
    def resolution(self) -> Fraction:
        """Spacing of the representable grid, ``2**-fraction_bits``."""
        return _raw_to_real(1, self.fraction_bits)

    @classmethod
    def from_string(cls, text: str) -> "FixedPointSpec":
        """Parse the precision grammar ``fixed<W,I[,u][,rnd][,sat]>``."""
        s = text.strip()
        if not (s.startswith("fixed<") and s.endswith(">")):
            raise ValueError(f"bad precision string {text!r}: expected fixed<W,I,...>")
        parts = [p.strip() for p in s[len("fixed<"):-1].split(",")]
        if len(parts) < 2:
            raise ValueError(f"bad precision string {text!r}: need width and integer bits")
        try:
            width = int(parts[0])
            integer = int(parts[1])
        except ValueError:
            raise ValueError(f"bad precision string {text!r}: W and I must be integers") from None
        signed, rounding, overflow = True, TRUNCATE, WRAP
        for flag in parts[2:]:
            if flag == "u":
                signed = False
            elif flag == "rnd":
                rounding = ROUND_HALF_UP
            elif flag == "sat":
                overflow = SATURATE
            else:
                raise ValueError(f"bad precision string {text!r}: unknown flag {flag!r}")
        if not 1 <= width <= MAX_SPEC_WIDTH:
            raise ValueError(f"bad precision string {text!r}: width must be 1..{MAX_SPEC_WIDTH}")
        return cls(width, integer, signed=signed, rounding=rounding, overflow=overflow)

    def to_string(self) -> str:
        flags = ""
        if not self.signed:
            flags += ",u"
        if self.rounding == ROUND_HALF_UP:
            flags += ",rnd"
        if self.overflow == SATURATE:
            flags += ",sat"
        return f"fixed<{self.width_bits},{self.integer_bits}{flags}>"

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class FixedPointValue:
    """An integer ``raw`` carrying its interpretation spec."""

    raw: int
    spec: FixedPointSpec

    def __post_init__(self):
        if not self.spec.min_raw <= self.raw <= self.spec.max_raw:
            raise ValueError(
                f"raw {self.raw} outside range of {self.spec}"
            )

    def to_fraction(self) -> Fraction:
        """Exact real value, ``raw * 2**-fraction_bits``."""
        return _raw_to_real(self.raw, self.spec.fraction_bits)

    def to_float(self) -> float:
        return float(self.to_fraction())

    def __str__(self) -> str:
        return f"{self.to_float()} ({self.raw} @ {self.spec})"


def _raw_to_real(raw: int, fraction_bits: int) -> Fraction:
    if fraction_bits >= 0:
        return Fraction(raw, 1 << fraction_bits)
    return Fraction(raw << (-fraction_bits))


def shift_round(raw: int, shift: int, rounding: str) -> int:
    """Scale ``raw`` (an int or integer array) by ``2**shift``, rounding when shift < 0.

    Right shifts of negative ints floor in Python and in numpy, which is
    exactly the truncate-toward-negative-infinity semantics.
    """
    if shift >= 0:
        return raw << shift
    if rounding == ROUND_HALF_UP:
        return (raw + (1 << (-shift - 1))) >> (-shift)
    return raw >> (-shift)


def round_scaled(y: np.ndarray, rounding: str) -> np.ndarray:
    """Integer-valued float64 raws of the float64 reals ``y`` scaled by ``2**frac``.

    Truncation is floor(y). Round-half-up is floor(y) plus 1 where
    y - floor(y) >= 0.5, computed as floor(2y) - floor(y), which is exact:
    2y is, and so is the difference of the two integer-valued floors.
    (floor(y + 0.5) is not: 0.5 - 2**-54 plus 0.5 rounds to 1.) Overflow
    is the caller's. Round-half-up overwrites ``y``.
    """
    if rounding != ROUND_HALF_UP:
        return np.floor(y)
    raws = np.multiply(y, 2.0)
    np.floor(raws, out=raws)
    raws -= np.floor(y, out=y)
    return raws


def apply_overflow_array(raws, spec: FixedPointSpec):
    """Reduce unbounded raws into the spec's range: wrap or saturate.

    ``raws`` is a Python int, or an int64 or object array reduced element
    by element. An int64 array moves to Python ints for a 64-bit spec,
    whose wrap mask and unsigned range int64 cannot hold; otherwise the
    caller keeps every value it passes, and their sums, inside int64.
    """
    scalar = not isinstance(raws, np.ndarray)
    if scalar or (spec.width_bits >= 64 and raws.dtype != object):
        raws = np.array([raws] if scalar else raws, dtype=object)
    if spec.overflow == SATURATE:
        out = np.minimum(np.maximum(raws, spec.min_raw), spec.max_raw)
    else:
        out = raws & ((1 << spec.width_bits) - 1)
        if spec.signed:
            half = 1 << (spec.width_bits - 1)
            out = (out ^ half) - half
    return int(out[0]) if scalar else out


def cast_raw_array(raws, fraction_bits: int, spec: FixedPointSpec):
    """Re-express ``raws * 2**-fraction_bits`` under ``spec`` (raws in, raws out).

    ``raws`` is a Python int or an int64 or object array, as for
    ``apply_overflow_array``.
    """
    shift = spec.fraction_bits - fraction_bits
    return apply_overflow_array(shift_round(raws, shift, spec.rounding), spec)


def quantize(x, spec: FixedPointSpec) -> FixedPointValue:
    """Round a finite real number onto the spec's grid.

    Overflow is defined behavior (wrap or saturate), never an error.
    Accepts float, int, or Fraction; conversion is exact in all cases.
    """
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
        if den & (den - 1):
            raise ValueError("quantize expects a dyadic rational Fraction")
    elif isinstance(x, int):
        num, den = x, 1
    else:
        x = float(x)
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"cannot quantize non-finite value {x}")
        num, den = x.as_integer_ratio()
    # num / den is the exact raw num at fraction bits log2(den).
    return FixedPointValue(cast_raw_array(num, den.bit_length() - 1, spec), spec)


# Binary networks encode the arithmetical value -1 as bit 0 and +1 as bit 1,
# so the sign product reduces to XNOR on the encodings.

def encode_binary(value: int) -> int:
    if value == 1:
        return 1
    if value == -1:
        return 0
    raise ValueError(f"binary encoding defined only for +1/-1, got {value}")


def decode_binary(bit: int) -> int:
    if bit not in (0, 1):
        raise ValueError(f"binary bit must be 0 or 1, got {bit}")
    return 1 if bit else -1


def xnor_product(a: int, b: int) -> int:
    """Product of two {-1,+1} values, computed as XNOR on their encodings."""
    return decode_binary(~(encode_binary(a) ^ encode_binary(b)) & 1)
