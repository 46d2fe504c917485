import random

import numpy as np
import pytest

from fixflow import kernels, trainer
from fixflow.fixed_point import (
    ROUND_HALF_UP,
    SATURATE,
    TRUNCATE,
    WRAP,
    FixedPointSpec,
    FixedPointValue,
    apply_overflow_array,
    quantize,
)
from fixflow.kernels import (
    CooWeights,
    compress_coo,
    decompress_coo,
    dense_mv,
    run_inference,
    sparse_mv_coo,
)
from fixflow.model_ir import LayerNode, ModelGraph, PrecisionSet, Tensor, ValidationError

from oracles import oracle_dense_mv_raws


def uniform_precision(text):
    return PrecisionSet.uniform(text)


def qtensor(shape, reals, spec):
    return Tensor(shape, tuple(quantize(v, spec) for v in reals))


def random_spec(rng, min_width=4, max_width=16):
    width = rng.randint(min_width, max_width)
    return FixedPointSpec(
        width, rng.randint(0, width),
        signed=True,
        rounding=rng.choice([TRUNCATE, ROUND_HALF_UP]),
        overflow=rng.choice([WRAP, SATURATE]),
    )


def random_case(rng, max_dim=8, sparsity=None):
    m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
    wspec, bspec, xspec = random_spec(rng), random_spec(rng), random_spec(rng)
    prec = PrecisionSet(wspec, bspec, random_spec(rng, 8, 32), random_spec(rng))
    keep = 1.0 if sparsity is None else 1.0 - sparsity
    wraws = [rng.randint(wspec.min_raw, wspec.max_raw) if rng.random() < keep else 0
             for _ in range(m * n)]
    weights = Tensor((m, n), tuple(FixedPointValue(r, wspec) for r in wraws))
    bias = Tensor((m,), tuple(FixedPointValue(rng.randint(bspec.min_raw, bspec.max_raw), bspec)
                              for _ in range(m)))
    x = [FixedPointValue(rng.randint(xspec.min_raw, xspec.max_raw), xspec) for _ in range(n)]
    return weights, bias, x, prec


class TestDenseMv:
    def test_identity_matrix_passthrough(self):
        prec = uniform_precision("fixed<16,6>")
        spec = prec.weight
        weights = qtensor((3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 1], spec)
        bias = qtensor((3,), [0, 0, 0], spec)
        x = [quantize(v, spec) for v in (0.5, -1.25, 3.0)]
        y = dense_mv(weights, bias, x, prec)
        assert [v.to_float() for v in y.data] == [0.5, -1.25, 3.0]

    def test_one_by_one_hand_arithmetic(self):
        prec = uniform_precision("fixed<8,4>")
        weights = qtensor((1, 1), [0.5], prec.weight)
        bias = qtensor((1,), [0.25], prec.bias)
        y = dense_mv(weights, bias, [quantize(0.5, prec.weight)], prec)
        assert y.data[0].to_float() == 0.5

    def test_matches_rational_oracle_randomized(self):
        rng = random.Random(101)
        for _ in range(400):
            weights, bias, x, prec = random_case(rng)
            got = [v.raw for v in dense_mv(weights, bias, x, prec).data]
            assert got == oracle_dense_mv_raws(weights, bias, x, prec)

    def test_zero_weight_transparency(self):
        rng = random.Random(55)
        for _ in range(100):
            weights, bias, x, prec = random_case(rng, sparsity=0.5)
            dense = [v.raw for v in dense_mv(weights, bias, x, prec).data]
            explicit = Tensor(weights.shape, tuple(
                v if v.raw != 0 else FixedPointValue(0, v.spec) for v in weights.data))
            assert dense == [v.raw for v in dense_mv(explicit, bias, x, prec).data]

    def test_shape_mismatch(self):
        prec = uniform_precision("fixed<8,4>")
        weights = qtensor((2, 2), [1, 0, 0, 1], prec.weight)
        bias = qtensor((2,), [0, 0], prec.bias)
        with pytest.raises(ValueError):
            dense_mv(weights, bias, [quantize(1.0, prec.weight)], prec)


class TestCoo:
    def test_all_zero_matrix_empty_entries(self):
        spec = FixedPointSpec(8, 4)
        weights = Tensor((2, 2), tuple(FixedPointValue(0, spec) for _ in range(4)))
        coo = compress_coo(weights)
        assert coo.packed.size == coo.raws.size == 0

    def test_packing_formula(self):
        spec = FixedPointSpec(8, 4)
        weights = qtensor((2, 2), [0.0, 2.0, 3.0, 0.0], spec)
        coo = compress_coo(weights)
        assert coo.packed.tolist() == [1, 2]
        assert coo.raws.tolist() == [quantize(2.0, spec).raw, quantize(3.0, spec).raw]
        assert coo.weight_spec == spec
        assert coo.n_in == 2 and coo.n_out == 2
        assert coo.index_bits == 2

    def test_round_trip(self):
        rng = random.Random(7)
        weights, _, _, _ = random_case(rng, sparsity=0.6)
        coo = compress_coo(weights)
        back = decompress_coo(coo)
        assert [v.raw for v in back.data] == [v.raw for v in weights.data]
        assert back.shape == weights.shape

    def test_entry_count_matches_zero_fraction(self):
        rng = random.Random(8)
        weights, _, _, _ = random_case(rng, max_dim=8, sparsity=0.75)
        coo = compress_coo(weights)
        nonzero = sum(1 for v in weights.data if v.raw != 0)
        assert coo.packed.size == coo.raws.size == nonzero

    def test_unsorted_entries_rejected(self):
        spec = FixedPointSpec(8, 4)
        with pytest.raises(ValueError, match="sorted"):
            CooWeights([2, 1], [1, 1], n_in=2, n_out=2, weight_spec=spec)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^2 packed indices but 1 raws$"):
            CooWeights([0, 1], [1], n_in=2, n_out=2, weight_spec=FixedPointSpec(8, 4))

    @pytest.mark.parametrize("packed", [[0, 4], [-1, 0], [6]])
    def test_packed_index_out_of_range_rejected(self, packed):
        with pytest.raises(ValueError, match="^packed index out of range$"):
            CooWeights(packed, [1] * len(packed), n_in=2, n_out=2, weight_spec=FixedPointSpec(8, 4))

    def test_entries_off_weight_spec_rejected(self):
        with pytest.raises(ValueError, match="weight_spec"):
            CooWeights([0], [128], n_in=1, n_out=1, weight_spec=FixedPointSpec(8, 4))

    def test_arrays_are_read_only_copies(self):
        packed, raws = np.array([0, 3]), np.array([5, -7])
        coo = CooWeights(packed, raws, n_in=2, n_out=2, weight_spec=FixedPointSpec(8, 4))
        packed[0], raws[0] = 1, 0
        assert coo.packed.tolist() == [0, 3] and coo.raws.tolist() == [5, -7]
        with pytest.raises(ValueError):
            coo.raws[0] = 1


class TestSparseDenseEquivalence:
    def test_dense_weights_degenerate_sparsity(self):
        rng = random.Random(9)
        weights, bias, x, prec = random_case(rng, sparsity=0.0)
        dense = [v.raw for v in dense_mv(weights, bias, x, prec).data]
        sparse = [v.raw for v in sparse_mv_coo(compress_coo(weights), bias, x, prec).data]
        assert dense == sparse

    def test_heavily_pruned(self):
        rng = random.Random(10)
        weights, bias, x, prec = random_case(rng, sparsity=0.8)
        dense = [v.raw for v in dense_mv(weights, bias, x, prec).data]
        sparse = [v.raw for v in sparse_mv_coo(compress_coo(weights), bias, x, prec).data]
        assert dense == sparse

    def test_empty_coo_returns_cast_bias(self):
        prec = uniform_precision("fixed<8,4>")
        spec = prec.weight
        coo = CooWeights([], [], n_in=2, n_out=2, weight_spec=spec)
        bias = qtensor((2,), [0.25, -0.5], prec.bias)
        x = [quantize(1.0, spec)] * 2
        y = sparse_mv_coo(coo, bias, x, prec)
        assert [v.to_float() for v in y.data] == [0.25, -0.5]

    def test_property_across_sparsity_levels(self):
        rng = random.Random(11)
        for sparsity in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            for _ in range(40):
                weights, bias, x, prec = random_case(rng, sparsity=sparsity)
                dense = [v.raw for v in dense_mv(weights, bias, x, prec).data]
                sparse = [v.raw for v in sparse_mv_coo(compress_coo(weights), bias, x, prec).data]
                assert dense == sparse, sparsity

    def test_insertion_order_canonicalized(self):
        rng = random.Random(12)
        weights, bias, x, prec = random_case(rng, sparsity=0.4)
        coo = compress_coo(weights)
        order = list(range(coo.packed.size))
        rng.shuffle(order)
        shuffled = coo.packed[order]
        resort = np.argsort(shuffled)
        resorted = CooWeights(shuffled[resort], coo.raws[order][resort],
                              coo.n_in, coo.n_out, coo.weight_spec)
        assert ([v.raw for v in sparse_mv_coo(resorted, bias, x, prec).data]
                == [v.raw for v in sparse_mv_coo(coo, bias, x, prec).data])


class TestBlocks:
    def test_dense_and_coo_blocks_equal_rows(self):
        """A (B, n) block through dense_mv or sparse_mv_coo equals B one-row calls and the oracle."""
        rng = random.Random(13)
        for sparsity in (0.0, 0.5, 0.9, 1.0):
            for _ in range(10):
                weights, bias, x, prec = random_case(rng, sparsity=sparsity)
                xspec, n = x[0].spec, len(x)
                rows = [x] + [[FixedPointValue(rng.randint(xspec.min_raw, xspec.max_raw), xspec)
                               for _ in range(n)] for _ in range(4)]
                block = Tensor((len(rows), n), [v for row in rows for v in row])
                want = [[v.raw for v in dense_mv(weights, bias, row, prec).data] for row in rows]
                assert want == [oracle_dense_mv_raws(weights, bias, row, prec) for row in rows]
                for got in (dense_mv(weights, bias, block, prec),
                            sparse_mv_coo(compress_coo(weights), bias, block, prec)):
                    assert got.shape == (len(rows), weights.shape[0])
                    assert got.array.reshape(len(rows), -1).tolist() == want


def _cast(raw, fraction_bits, spec):
    """``raw * 2**-fraction_bits`` rounded and overflowed onto ``spec``, in Python ints."""
    shift = spec.fraction_bits - fraction_bits
    if shift >= 0:
        raw <<= shift
    else:
        raw = (raw + ((1 << (-shift - 1)) if spec.rounding == ROUND_HALF_UP else 0)) >> -shift
    return _overflow(raw, spec)


def _overflow(raw, spec):
    if spec.overflow == SATURATE:
        return min(max(raw, spec.min_raw), spec.max_raw)
    raw &= (1 << spec.width_bits) - 1
    return raw - (1 << spec.width_bits) if raw > spec.max_raw else raw


def sequential_raws(weights, bias, rows, precision, events):
    """Result raws of each row by the per-add rule, counting overflow events at the add.

    The accumulator starts at the cast bias; every product, zero weights
    included, is cast into the accumulator and added in ascending input
    index, and the accumulator's overflow applies after each add. An add
    whose exact sum leaves the accumulator's range counts one event of the
    accumulator's overflow mode.
    """
    acc_spec = precision.accumulator
    m, n = weights.shape
    prod_frac = weights.spec.fraction_bits + rows.spec.fraction_bits
    w = weights.array.reshape(m, n).tolist()
    out = []
    for x in rows.array.reshape(-1, n).tolist():
        row = []
        for i, b in enumerate(bias.array.tolist()):
            acc = _cast(b, bias.spec.fraction_bits, acc_spec)
            for j in range(n):
                total = acc + _cast(w[i][j] * x[j], prod_frac, acc_spec)
                if not acc_spec.min_raw <= total <= acc_spec.max_raw:
                    events[acc_spec.overflow] += 1
                acc = _overflow(total, acc_spec)
            row.append(_cast(acc, acc_spec.fraction_bits, precision.result))
        out.append(row)
    return out


class TestBlockPath:
    """Blocks of rows and columns through wide, sparse, unsigned and 64-bit layers."""

    def spec(self, rng, width, overflow=None):
        return FixedPointSpec(width, rng.randint(-2, width + 2), signed=rng.random() < 0.7,
                              rounding=rng.choice([TRUNCATE, ROUND_HALF_UP]),
                              overflow=overflow or rng.choice([WRAP, SATURATE]))

    def raws(self, rng, spec, count, keep=1.0):
        return [rng.randint(spec.min_raw, spec.max_raw) if rng.random() < keep else 0
                for _ in range(count)]

    def check(self, rng, weights, bias, rows, prec, events):
        got = dense_mv(weights, bias, rows, prec).array.reshape(rows.shape[0], -1).tolist()
        assert got == sequential_raws(weights, bias, rows, prec, events)
        for b in {0, rows.shape[0] - 1, rng.randrange(rows.shape[0])}:
            x = Tensor((rows.shape[1],), rows.array.reshape(rows.shape[0], -1)[b], rows.spec).data
            assert got[b] == oracle_dense_mv_raws(weights, bias, x, prec)
        if weights.size < 600:
            coo = sparse_mv_coo(compress_coo(weights), bias, rows, prec)
            assert coo.array.reshape(rows.shape[0], -1).tolist() == got

    def test_random_blocks_match_oracle_and_per_add_reference(self, monkeypatch):
        # A small element budget makes most calls span several column blocks,
        # from one column per block up, with a short last block.
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 48)
        rng = random.Random(808)
        events = {WRAP: 0, SATURATE: 0}
        for case in range(120):
            m, n, batch = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 12)
            wide = case % 6 == 0  # 64-bit weights and accumulator: the object path
            wspec = self.spec(rng, 64 if wide else rng.randint(2, 16))
            xspec, bspec = self.spec(rng, rng.randint(2, 16)), self.spec(rng, rng.randint(2, 24))
            acc = self.spec(rng, 64 if wide else rng.randint(4, 24))
            prec = PrecisionSet(wspec, bspec, acc, self.spec(rng, rng.randint(2, 24)))
            keep = rng.choice([1.0, 0.6, 0.2])
            wraws = self.raws(rng, wspec, m * n, keep)
            for j in rng.sample(range(n), rng.randint(0, n)):  # zero columns, up to all of them
                for i in range(m):
                    wraws[i * n + j] = 0
            weights = Tensor((m, n), wraws, wspec)
            bias = Tensor((m,), self.raws(rng, bspec, m), bspec)
            rows = Tensor((batch, n), self.raws(rng, xspec, batch * n), xspec)
            self.check(rng, weights, bias, rows, prec, events)
        assert events[WRAP] > 0 and events[SATURATE] > 0, events

    @pytest.mark.parametrize("overflow", [WRAP, SATURATE])
    def test_layer_wider_than_one_block(self, overflow):
        # 20 rows of a 64x64 layer: 6 columns per block of at most 2**13 products.
        rng = random.Random(809)
        m = n = 64
        assert kernels._BLOCK_ELEMENTS // (20 * m) < n // 2
        wspec, xspec = FixedPointSpec(8, 2), FixedPointSpec(8, 3, signed=False)
        prec = PrecisionSet(wspec, wspec, FixedPointSpec(12, 6, overflow=overflow),
                            FixedPointSpec(10, 5))
        weights = Tensor((m, n), self.raws(rng, wspec, m * n, keep=0.8), wspec)
        bias = Tensor((m,), self.raws(rng, wspec, m), wspec)
        rows = Tensor((20, n), self.raws(rng, xspec, 20 * n), xspec)
        events = {WRAP: 0, SATURATE: 0}
        self.check(rng, weights, bias, rows, prec, events)
        assert events[overflow] > 0

    def test_saturating_clamps_do_not_grow_with_rows(self, monkeypatch):
        # One clamp per add and at most one per block of products: a long
        # block of rows costs k adds, not k per block of rows.
        calls = []
        monkeypatch.setattr(kernels, "apply_overflow_array",
                            lambda raws, spec: calls.append(1) or apply_overflow_array(raws, spec))
        spec = FixedPointSpec(8, 3)
        prec = PrecisionSet(spec, spec, FixedPointSpec(10, 6, overflow=SATURATE), spec)
        weights = Tensor((64, 16), [1 + i % 5 for i in range(64 * 16)], spec)
        for batch in (1, 40, 2000):
            calls.clear()
            dense_mv(weights, Tensor((64,), [0] * 64, spec),
                     Tensor((batch, 16), [100] * (batch * 16), spec), prec)
            assert 16 < len(calls) <= 2 * 16, (batch, len(calls))

    def test_saturating_sum_in_bounds_is_exact(self, monkeypatch):
        # Weight raws in [-3, 3] and input raws in [-5, 5], on an accumulator
        # with the products' fraction bits: a bias raw of max_raw - 15k takes
        # the worst-case sum of row 0 to max_raw exactly. No clamp can fire,
        # and the layer is one exact sum with the same number of overflow
        # calls whatever k is. One raw more and the last add clamps.
        calls = []
        monkeypatch.setattr(kernels, "apply_overflow_array",
                            lambda raws, spec: calls.append(1) or apply_overflow_array(raws, spec))
        spec, bspec = FixedPointSpec(8, 4), FixedPointSpec(16, 8)
        acc = FixedPointSpec(12, 4, overflow=SATURATE)
        prec = PrecisionSet(spec, bspec, acc, FixedPointSpec(10, 6, overflow=SATURATE))
        in_bound_calls = set()
        for k in (2, 16, 128):
            weights = Tensor((3, k), [3] * k + [-3] * k + [(-3, 1, 3)[j % 3] for j in range(k)], spec)
            rows = Tensor((2, k), [5] * k + [-5] * k, spec)
            for past in (0, 1):
                bias = Tensor((3,), [acc.max_raw - 15 * k + past, -5, 0], bspec)
                calls.clear()
                dense_mv(weights, bias, rows, prec)
                if past:
                    assert len(calls) > k, (k, len(calls))
                else:
                    in_bound_calls.add(len(calls))
                events = {WRAP: 0, SATURATE: 0}
                self.check(random.Random(k), weights, bias, rows, prec, events)
                assert events[SATURATE] == past, (k, events)
        assert len(in_bound_calls) == 1, in_bound_calls

    @pytest.mark.parametrize("sign, want", [(1, -126), (-1, 125)])
    def test_bias_cast_towards_zero_keeps_the_bound(self, sign, want):
        # The bias raw 64 with four fraction bits more than the accumulator
        # casts to 4: its bound on the cast value is 0, not 64. Fourteen
        # products of -10 then pass min_raw, and two of +1 follow, so the
        # per-add clamp gives -126 where the exact sum would give -128; the
        # mirror image clamps at 127 and ends at 125.
        spec, acc = FixedPointSpec(8, 8), FixedPointSpec(8, 8, overflow=SATURATE)
        prec = PrecisionSet(spec, FixedPointSpec(12, 8), acc, spec)
        weights = Tensor((1, 16), [-10 * sign] * 14 + [sign] * 2, spec)
        bias = Tensor((1,), [64 * sign], prec.bias)
        rows = Tensor((1, 16), [1] * 16, spec)
        events = {WRAP: 0, SATURATE: 0}
        self.check(random.Random(0), weights, bias, rows, prec, events)
        assert dense_mv(weights, bias, rows, prec).array.tolist() == [want]

    def test_wide_wrapping_sum_stays_int64(self):
        # A 60-bit accumulator adding 32 products of 16-bit raws: the exact
        # sum is bounded by 2**59 + 32 * 2**30 and needs no Python ints.
        rng = random.Random(810)
        wspec = FixedPointSpec(16, 4)
        acc = FixedPointSpec(60, 36)  # 24 fraction bits, as the products
        prec = PrecisionSet(wspec, wspec, acc, FixedPointSpec(32, 24))
        weights = np.array(self.raws(rng, wspec, 4 * 32), dtype=np.int64).reshape(4, 32)
        x = np.array(self.raws(rng, wspec, 3 * 32), dtype=np.int64).reshape(3, 32)
        bias = np.array(self.raws(rng, wspec, 4), dtype=np.int64)
        out = kernels._mac(bias, 12, weights, x, 24, prec)
        assert out.dtype == np.int64
        want = sequential_raws(Tensor((4, 32), weights.reshape(-1).tolist(), wspec),
                               Tensor((4,), bias.tolist(), wspec),
                               Tensor((3, 32), x.reshape(-1).tolist(), wspec), prec,
                               {WRAP: 0, SATURATE: 0})
        assert out.tolist() == want

    def test_all_zero_matrix_gives_cast_bias(self):
        spec = FixedPointSpec(8, 4)
        prec = PrecisionSet(spec, spec, FixedPointSpec(6, 3), FixedPointSpec(5, 2, overflow=SATURATE))
        bias = Tensor((3,), [127, -128, 9], spec)
        rows = Tensor((4, 2), list(range(8)), spec)
        got = dense_mv(Tensor((3, 2), [0] * 6, spec), bias, rows, prec)
        want = [oracle_dense_mv_raws(Tensor((3, 2), [0] * 6, spec), bias,
                                     [FixedPointValue(0, spec)] * 2, prec)] * 4
        assert got.array.reshape(4, 3).tolist() == want


class TestRunInference:
    def test_no_input_on_a_non_constant_graph(self):
        g = ModelGraph.chain([LayerNode("input", "input"), LayerNode("r", "relu")], (3,))
        with pytest.raises(ValueError, match="^graph input is not constant and no input tensor was provided$"):
            run_inference(g)

    def test_2d_constant_input_runs_as_one_row(self):
        prec = uniform_precision("fixed<8,4>")
        values = np.array([[-1.0, 0.5, 2.0], [0.25, -0.75, 3.0]])
        relu = LayerNode("r", "relu", precision=prec)
        constant = ModelGraph.chain([LayerNode("input", "input", {"value": Tensor.from_numpy(values)},
                                               precision=prec), relu], (2, 3))
        out, taps = run_inference(constant, tap_all=True)
        assert out.shape == taps[0].output.shape == (6,)
        fed = ModelGraph.chain([LayerNode("input", "input", precision=prec), relu], (6,))
        want, _ = run_inference(fed, Tensor.from_numpy(values.reshape(-1)))
        assert out.array.tolist() == want.array.tolist() == [0, 8, 32, 4, 0, 48]

    def test_relu_zeroes_negatives(self):
        prec = uniform_precision("fixed<8,4>")
        g = ModelGraph.chain([
            LayerNode("input", "input", precision=prec),
            LayerNode("r", "relu", precision=prec),
        ], (3,))
        out, _ = run_inference(g, Tensor((3,), (-1.0, -0.25, 0.5)))
        assert [v.to_float() for v in out.data] == [0.0, 0.0, 0.5]

    def test_taps_count_equals_layer_count(self, jet_float_model):
        x = Tensor((16,), tuple(0.1 * i for i in range(16)))
        _, taps = run_inference(jet_float_model, x, tap_all=True)
        assert len(taps) == len(jet_float_model.nodes)
        assert [t.layer for t in taps] == [n.name for n in jet_float_model.nodes]

    def test_wide_spec_matches_real_forward(self, jet_float_model, jet_eval_data):
        from dataclasses import replace

        wide = PrecisionSet.uniform("fixed<32,16>")
        nodes = [replace(n, precision=wide) for n in jet_float_model.nodes]
        g = jet_float_model.replace_nodes(nodes)
        x = jet_eval_data.features[0]
        out, _ = run_inference(g, Tensor.from_numpy(x))
        want = trainer.forward_real(jet_float_model, x)
        got = np.array([float(v) for v in out.data])
        assert np.abs(got - want).max() < 1e-3

    def test_unsupported_kind(self):
        bad = ModelGraph.chain([
            LayerNode("input", "input"),
            LayerNode("mystery", "conv2d"),
        ], (2,))
        with pytest.raises(ValidationError):
            run_inference(bad, Tensor((2,), (0.0, 0.0)))

    def test_binary_tanh_threshold_and_modes(self):
        prec = uniform_precision("fixed<8,4>")
        g = ModelGraph.chain([
            LayerNode("input", "input", precision=prec),
            LayerNode("bt", "binary_tanh", {
                "threshold": Tensor((4,), (0.5, 0.5, 0.0, 0.0)),
                "mode": Tensor((4,), (0.0, 1.0, 2.0, 3.0)),
            }, precision=prec),
        ], (4,))
        out, _ = run_inference(g, Tensor((4,), (0.5, 0.5, -3.0, 3.0)))
        # mode 0: 0.5 >= 0.5 -> +1; mode 1: 0.5 <= 0.5 -> +1; modes 2/3 constant
        assert [v.to_float() for v in out.data] == [1.0, 1.0, 1.0, -1.0]

    def test_ternary_tanh_band(self):
        prec = uniform_precision("fixed<8,4>")
        g = ModelGraph.chain([
            LayerNode("input", "input", precision=prec),
            LayerNode("tt", "ternary_tanh", precision=prec),
        ], (3,))
        out, _ = run_inference(g, Tensor((3,), (1.0, 0.25, -1.0)))
        assert [v.to_float() for v in out.data] == [1.0, 0.0, -1.0]

    def test_pure_function_of_inputs(self, jet_float_model):
        x = Tensor((16,), tuple(0.05 * i for i in range(16)))
        a, _ = run_inference(jet_float_model, x)
        b, _ = run_inference(jet_float_model, x)
        assert [float(v) for v in a.data] == [float(v) for v in b.data]

    def test_compression_flag_matches_dense_path(self, jet_float_model):
        from dataclasses import replace

        nodes = [replace(n, compression=True) if n.kind == "dense" else n
                 for n in jet_float_model.nodes]
        g = jet_float_model.replace_nodes(nodes)
        x = Tensor((16,), tuple(0.1 * i for i in range(16)))
        got, _ = run_inference(g, x)
        want, _ = run_inference(jet_float_model, x)
        assert [float(v) for v in got.data] == [float(v) for v in want.data]


class TestMaterializeSign:
    def chain(self, in_spec):
        return ModelGraph.chain([
            LayerNode("input", "input", precision=uniform_precision(in_spec)),
            LayerNode("tt", "ternary_tanh", {"threshold": Tensor((2,), (0.3, 100.0))},
                      precision=uniform_precision("fixed<4,2>")),
        ], (2,))

    def test_thresholds_and_modes_filled_in_once(self):
        node = kernels.materialize_quantized(self.chain("fixed<8,4>")).node("tt")
        # Round half up on the incoming grid; 100 saturates to its largest raw.
        assert node.param("threshold").spec == FixedPointSpec(8, 4, rounding=ROUND_HALF_UP,
                                                              overflow=SATURATE)
        assert node.param("threshold").array.tolist() == [5, 127]
        assert node.param("mode").array.tolist() == [0.0, 0.0]
        again = kernels.materialize_quantized(
            ModelGraph.chain([self.chain("fixed<8,4>").nodes[0], node], (2,))).node("tt")
        assert again.param("threshold") is node.param("threshold")
        assert kernels.sign_levels(node) == (8, 4, 0, -4)

    def test_threshold_on_another_grid_names_layer(self):
        node = kernels.materialize_quantized(self.chain("fixed<8,4>")).node("tt")
        regridded = ModelGraph.chain([self.chain("fixed<10,4>").nodes[0], node], (2,))
        with pytest.raises(ValueError, match="'tt'"):
            kernels.materialize_quantized(regridded)
