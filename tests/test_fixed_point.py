import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fixflow.fixed_point import (
    ROUND_HALF_UP,
    SATURATE,
    TRUNCATE,
    WRAP,
    FixedPointSpec,
    FixedPointValue,
    apply_overflow_array,
    cast_extremes,
    cast_raw_array,
    decode_binary,
    encode_binary,
    int_dtype,
    quantize,
    xnor_product,
)
from oracles import oracle_quantize_raw


def spec(text):
    return FixedPointSpec.from_string(text)


def random_spec(rng, min_width=4, max_width=32):
    width = rng.randint(min_width, max_width)
    return FixedPointSpec(
        width,
        rng.randint(-2, width + 2),
        signed=rng.random() < 0.8,
        rounding=rng.choice([TRUNCATE, ROUND_HALF_UP]),
        overflow=rng.choice([WRAP, SATURATE]),
    )


class TestGrammar:
    def test_basic(self):
        s = spec("fixed<16,6>")
        assert (s.width_bits, s.integer_bits, s.fraction_bits) == (16, 6, 10)
        assert s.signed and s.rounding == TRUNCATE and s.overflow == WRAP

    def test_flags(self):
        s = spec("fixed<6,1,sat>")
        assert s.overflow == SATURATE and s.rounding == TRUNCATE
        s = spec("fixed<8,2,u,rnd,sat>")
        assert not s.signed and s.rounding == ROUND_HALF_UP and s.overflow == SATURATE

    def test_roundtrip(self):
        for text in ["fixed<16,6>", "fixed<6,1,sat>", "fixed<8,2,u,rnd,sat>", "fixed<4,-2>",
                     "fixed<8,12>"]:
            assert spec(text).to_string() == text

    @pytest.mark.parametrize("bad", ["fixed<0,1>", "fixed<65,1>", "fixed<8>", "int<8,2>",
                                     "fixed<8,2,x>", "fixed<a,b>"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            spec(bad)

    @pytest.mark.parametrize("width", [0, 65, 128])
    def test_spec_width_outside_1_to_64_rejected(self, width):
        # The grammar's limit is the constructor's: no spec is wider.
        with pytest.raises(ValueError, match=f"width_bits must be in 1..64, got {width}"):
            FixedPointSpec(width, 1)
        assert FixedPointSpec(64, 1).max_raw == 2**63 - 1

    def test_negative_and_oversized_integer_bits(self):
        assert spec("fixed<4,-2>").fraction_bits == 6
        assert spec("fixed<4,8>").fraction_bits == -4


class TestQuantize:
    def test_zero_preserved(self):
        for text in ["fixed<8,4>", "fixed<16,6,rnd,sat>", "fixed<4,-2,u>"]:
            assert quantize(0.0, spec(text)).raw == 0

    def test_exact_value(self):
        assert quantize(0.75, spec("fixed<8,4>")).raw == 12

    def test_saturation(self):
        assert quantize(1000.0, spec("fixed<8,4,sat>")).raw == 127
        assert quantize(-1000.0, spec("fixed<8,4,sat>")).raw == -128

    def test_truncate_floors_toward_negative_infinity(self):
        s = spec("fixed<8,4>")
        assert quantize(0.7, s).raw == 11  # 11.2 floors to 11
        assert quantize(-0.7, s).raw == -12  # -11.2 floors to -12

    def test_round_half_up_ties(self):
        s = spec("fixed<8,4,rnd>")
        assert quantize(0.71875, s).raw == 12  # 11.5 rounds up
        assert quantize(-0.71875, s).raw == -11  # -11.5 rounds toward +inf

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize(float("nan"), spec("fixed<8,4>"))
        with pytest.raises(ValueError):
            quantize(float("inf"), spec("fixed<8,4>"))

    def test_matches_oracle_randomized(self):
        rng = random.Random(11)
        for _ in range(2000):
            s = random_spec(rng)
            x = rng.uniform(-4, 4) * 2.0 ** rng.randint(-6, 8)
            assert quantize(x, s).raw == oracle_quantize_raw(Fraction(x), s), (x, s)

    def test_roundtrip_error_bound(self):
        rng = random.Random(5)
        for _ in range(500):
            s = random_spec(rng)
            lo, hi = float(s.min_value), float(s.max_value)
            x = rng.uniform(lo, hi)
            err = abs(quantize(x, s).to_fraction() - Fraction(x))
            if s.rounding == TRUNCATE:
                assert err < s.resolution
            else:
                assert err <= s.resolution / 2

    def test_monotone_under_saturate(self):
        rng = random.Random(17)
        for _ in range(300):
            s = random_spec(rng)
            s = FixedPointSpec(s.width_bits, s.integer_bits, s.signed, s.rounding, SATURATE)
            a = rng.uniform(-1e6, 1e6)
            b = a + abs(rng.uniform(0, 1e6))
            assert quantize(a, s).raw <= quantize(b, s).raw


class TestWrap:
    def test_exhaustive_6bit_wrap_is_modular(self):
        # Raw-space oracle: wrap == two's-complement reduction of the ideal value.
        s6 = spec("fixed<6,3>")
        for raw_a in range(-32, 32):
            for raw_b in range(-32, 32):
                product = Fraction(raw_a * raw_b, 1 << 6)  # frac 3 + 3
                got = quantize(product, s6).raw
                ideal = math.floor(product * 8)
                want = ideal % 64
                if want > 31:
                    want -= 64
                assert got == want, (raw_a, raw_b)


class TestCast:
    """``cast_raw_array`` on a Python int and on an int64 array of raws."""

    def test_identity(self):
        s = spec("fixed<8,4>")
        assert cast_raw_array(12, s.fraction_bits, s) == 12
        raws = np.array([12, s.min_raw, s.max_raw], dtype=np.int64)
        assert cast_raw_array(raws, s.fraction_bits, s).tolist() == raws.tolist()

    def test_exact_widening(self):
        wide = spec("fixed<16,8>")
        assert cast_raw_array(12, 4, wide) == 192
        assert cast_raw_array(np.array([12, -12], dtype=np.int64), 4, wide).tolist() == [192, -192]
        assert FixedPointValue(192, wide).to_float() == 0.75

    def test_equals_quantize_of_exact_real(self):
        rng = random.Random(23)
        in_int64 = 0
        for _ in range(1500):
            src = random_spec(rng)
            dst = random_spec(rng)
            raws = [rng.randint(src.min_raw, src.max_raw), src.min_raw, src.max_raw]
            want = [oracle_quantize_raw(FixedPointValue(r, src).to_fraction(), dst) for r in raws]
            assert cast_raw_array(raws[0], src.fraction_bits, dst) == want[0]
            # An int64 array only where the left shift stays inside int64,
            # as the emulator chooses it.
            up = max(0, dst.fraction_bits - src.fraction_bits)
            dtype = int_dtype(src.min_raw << up, src.max_raw << up)
            in_int64 += dtype is np.int64
            got = cast_raw_array(np.array(raws, dtype=dtype), src.fraction_bits, dst)
            assert got.tolist() == want
        assert in_int64 > 1000

    def test_narrowing_wrap_against_big_integer_oracle(self):
        wide = spec("fixed<16,8>")
        narrow = spec("fixed<6,3>")
        raws = range(-32768, 32767, 97)
        want = [oracle_quantize_raw(Fraction(raw, 256), narrow) for raw in raws]
        assert [cast_raw_array(raw, 8, narrow) for raw in raws] == want
        assert cast_raw_array(np.array(raws, dtype=np.int64), 8, narrow).tolist() == want

    def test_extremes_of_left_and_right_shifts(self):
        dst = spec("fixed<8,8>")  # fraction 0: a raw on fraction f shifts by -f
        assert cast_extremes(-5, 7, -2, dst) == (-20, 28)
        assert cast_extremes(-5, 7, 3, dst) == (-5, 11, 4)  # the raws, plus and alone the half unit 4

    def test_extremes_of_a_width_need_the_documented_bits(self):
        # README: a W-bit raw shifted by s places needs max(W, W + s, -s) bits.
        dst = spec("fixed<8,8>")
        for width in range(1, 129):
            lo, hi = -1 << width - 1, (1 << width - 1) - 1
            for shift in range(-140, 141):
                bits = max(abs(v).bit_length() for v in cast_extremes(lo, hi, -shift, dst))
                assert bits == max(width, width + shift, -shift), (width, shift)


class TestMulAdd:
    """The accumulation rules behind ``kernels._mac``."""

    def test_add_chain_wrap_equals_rational_sum_with_single_cast(self):
        # One wrap of the exact sum equals wrapping after every add: the
        # identity behind the wrapping branch of _mac.
        rng = random.Random(41)
        for _ in range(200):
            s = random_spec(rng)
            s = FixedPointSpec(s.width_bits, s.integer_bits, s.signed, s.rounding, WRAP)
            raws = [rng.randint(s.min_raw, s.max_raw) for _ in range(12)]
            acc = raws[0]
            for raw in raws[1:]:
                acc = apply_overflow_array(acc + raw, s)
            exact = np.array(raws, dtype=np.int64).sum(keepdims=True)
            assert apply_overflow_array(exact, s).tolist() == [acc]
            assert acc == oracle_quantize_raw(sum(raws) * s.resolution, s)

    def test_add_rounds_once_when_narrowing(self):
        s = spec("fixed<8,4,rnd,sat>")
        a = quantize(0.5, spec("fixed<16,8>"))
        b = quantize(0.03125, spec("fixed<16,8>"))  # below the 8,4 resolution
        out = cast_raw_array(a.raw + b.raw, 8, s)
        assert out == oracle_quantize_raw(Fraction(0.53125), s)


class TestXnor:
    def test_truth_table(self):
        assert xnor_product(1, 1) == 1
        assert xnor_product(-1, -1) == 1
        assert xnor_product(-1, 1) == -1
        assert xnor_product(1, -1) == -1

    def test_equals_sign_multiplication(self):
        for a in (1, -1):
            for b in (1, -1):
                assert xnor_product(a, b) == a * b

    def test_encoding_convention(self):
        # -1 encodes as bit 0, +1 as bit 1.
        assert encode_binary(-1) == 0 and encode_binary(1) == 1
        assert decode_binary(0) == -1 and decode_binary(1) == 1
        with pytest.raises(ValueError):
            encode_binary(0)


class TestValueInvariants:
    def test_raw_range_enforced(self):
        s = spec("fixed<8,4>")
        with pytest.raises(ValueError):
            FixedPointValue(128, s)
        with pytest.raises(ValueError):
            FixedPointValue(-129, s)
        u = spec("fixed<8,4,u>")
        with pytest.raises(ValueError):
            FixedPointValue(-1, u)
        assert FixedPointValue(255, u).to_float() == 255 / 16
