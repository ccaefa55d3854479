"""Decoder behavior: permutation invariance, pruning inertness, persistence."""

import numpy as np
import pytest

from voxloc import diffcore as dc
from voxloc.containers import FormatError
from voxloc.decoder import (DecoderParams, attention_scores, bank_keys,
                            block_keys, cross_attention_block, decode,
                            encode_feature, params_from_bytes,
                            params_to_bytes, route_scores, save_params)
from voxloc.diffcore import DTensor, DimensionError, NumericError, Tape
from voxloc.pipeline import _float32_state
from voxloc.scene import (CodeBank, SceneRepresentation, Voxel, VoxelId,
                          scene_to_bytes, size_bytes)

T, N, D, DRAW = 3, 5, 16, 24


def make_params(seed=0, num_blocks=T, d=D, d_raw=DRAW):
    return DecoderParams.init(np.random.default_rng(seed), d_raw=d_raw, d=d,
                              num_blocks=num_blocks, block_hidden=8,
                              head_hidden=8)


def make_bank(seed=1, t=T, n=N, d=D, scale_std=0.3):
    rng = np.random.default_rng(seed)
    bank = CodeBank.init(t, n, d, rng, "v")
    for bt in range(t):
        bank.codes[bt].values[...] = rng.normal(size=(n, d))
        bank.scales[bt].values[...] = 1.0 + rng.normal(size=(n, 1)) * scale_std
    return bank


def float32_copy(obj):
    """The float32 copy of params or a bank that localize decodes with."""
    return _float32_state(obj)[0]


def run_decode(params, bank, feats_raw):
    feats = encode_feature(None, params, dc.DTensor(feats_raw))
    return decode(None, params, feats, bank_keys(None, params, bank))


class TestPermutationInvariance:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_decode_bit_identical_under_row_permutation(self, dtype):
        # float32 runs on the copies localize decodes with
        cast = float32_copy if dtype == np.float32 else (lambda obj: obj)
        params = cast(make_params())
        bank = make_bank()
        raw = np.random.default_rng(2).normal(size=(7, DRAW)).astype(dtype)
        local, conf = run_decode(params, cast(bank), raw)
        assert local.values.dtype == dtype
        for seed in range(3):
            rng = np.random.default_rng(seed + 10)
            shuffled = make_bank()
            for bt in range(T):
                perm = rng.permutation(N)
                shuffled.codes[bt].values[...] = bank.codes[bt].values[perm]
                shuffled.scales[bt].values[...] = bank.scales[bt].values[perm]
            out_local, out_conf = run_decode(params, cast(shuffled), raw)
            assert np.array_equal(local.values, out_local.values)
            assert np.array_equal(conf.values, out_conf.values)

    def test_gradients_follow_the_permutation(self):
        params = make_params()
        raw = np.random.default_rng(3).normal(size=(4, DRAW))
        perm = np.random.default_rng(4).permutation(N)

        def grads(bank):
            tape = Tape()
            feats = encode_feature(tape, params, dc.DTensor(raw))
            local, _ = decode(tape, params, feats,
                              bank_keys(tape, params, bank))
            loss = dc.sum_all(tape, local)
            return tape.backward(loss, bank.named_parameters())

        a = make_bank()
        b = make_bank()
        for bt in range(T):
            b.codes[bt].values[...] = a.codes[bt].values[perm]
            b.scales[bt].values[...] = a.scales[bt].values[perm]
        ga, gb = grads(a), grads(b)
        for bt in range(T):
            for t in (a.codes[bt], a.scales[bt]):
                assert np.array_equal(ga[t.name][perm], gb[t.name])


def permuted(bank, seed):
    """A copy of bank with each block's code rows in a random order."""
    rng = np.random.default_rng(seed)
    out = make_bank()
    for bt in range(T):
        perm = rng.permutation(N)
        out.codes[bt].values[...] = bank.codes[bt].values[perm]
        out.scales[bt].values[...] = bank.scales[bt].values[perm]
    return out


class TestRouting:
    """route_scores gates voxels by block 0's logits; localize decodes the
    routed rows only, which must match the full decode's rows."""

    @staticmethod
    def queries(params, raw):
        feats = encode_feature(None, params, dc.DTensor(raw))
        return feats.values @ params.blocks[0].wq.values

    def test_is_the_largest_active_block0_logit(self):
        params, bank = make_params(), make_bank()
        bank.scales[0].values[[1, 3]] = 0.0
        q = self.queries(params, np.random.default_rng(20).normal(
            size=(6, DRAW)))
        rows = bank.active_rows(0)
        keys = (bank.codes[0].values[rows] * bank.scales[0].values[rows]) \
            @ params.blocks[0].wk.values
        want = (q @ keys.T / np.sqrt(D)).max(axis=1)
        np.testing.assert_allclose(
            route_scores(params, q, block_keys(None, params, bank, 0)), want,
            rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_unchanged_under_row_permutation(self, dtype):
        cast = float32_copy if dtype == np.float32 else (lambda obj: obj)
        params, bank = cast(make_params()), make_bank()
        bank.scales[0].values[2] = 0.0
        q = self.queries(params, np.random.default_rng(21).normal(
            size=(9, DRAW)).astype(dtype))
        scores = route_scores(params, q, block_keys(None, params, cast(bank),
                                                    0))
        assert scores.dtype == dtype
        for seed in range(3):
            again = route_scores(params, q, block_keys(
                None, params, cast(permuted(bank, seed + 30)), 0))
            assert np.array_equal(scores, again)

    def test_no_active_block0_code_gives_no_score(self):
        params, bank = make_params(), make_bank()
        bank.scales[0].values[:] = 0.0
        q = self.queries(params, np.zeros((2, DRAW)))
        kv0 = block_keys(None, params, bank, 0)
        assert kv0 is None and route_scores(params, q, kv0) is None

    def test_non_finite_logit_raises(self):
        params, bank = float32_copy(make_params()), float32_copy(make_bank())
        # finite float32 queries and keys whose logits overflow
        params.blocks[0].wq.values[...] = 1e20
        params.blocks[0].wk.values[...] = 1e20
        q = self.queries(params, np.random.default_rng(22).normal(
            size=(3, DRAW)).astype(np.float32))
        with pytest.raises(NumericError, match="routing logits"):
            route_scores(params, q, block_keys(None, params, bank, 0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_decode_reuses_the_routing_keys_bit_for_bit(self, dtype):
        cast = float32_copy if dtype == np.float32 else (lambda obj: obj)
        params, bank = cast(make_params()), cast(make_bank())
        bank.scales[0].values[1] = 0.0
        raw = np.random.default_rng(25).normal(size=(12, DRAW)).astype(dtype)
        feats = encode_feature(None, params, dc.DTensor(raw))
        blocks = bank_keys(None, params, bank)
        route_scores(params, feats.values @ params.blocks[0].wq.values,
                     blocks[0])
        want = decode(None, params, feats, bank_keys(None, params, bank))
        got = decode(None, params, feats, blocks)
        for a, b in zip(got, want):
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_decoding_a_row_subset_matches_the_full_decode(self, dtype):
        # two or more rows: BLAS may multiply a lone row as a vector, which
        # can round differently
        cast = float32_copy if dtype == np.float32 else (lambda obj: obj)
        params, bank = cast(make_params()), cast(make_bank())
        raw = np.random.default_rng(23).normal(size=(40, DRAW)).astype(dtype)
        feats = encode_feature(None, params, dc.DTensor(raw))
        blocks = bank_keys(None, params, bank)
        local, conf = decode(None, params, feats, blocks)
        rng = np.random.default_rng(24)
        for size in (2, 3, 7, 39):
            rows = np.sort(rng.choice(40, size=size, replace=False))
            sub_local, sub_conf = decode(None, params,
                                         DTensor(feats.values[rows]), blocks)
            assert np.array_equal(sub_local.values, local.values[rows])
            assert np.array_equal(sub_conf.values, conf.values[rows])


class TestPrunedCodes:
    def test_zero_scale_row_is_inert(self):
        params = make_params()
        raw = np.random.default_rng(5).normal(size=(6, DRAW))
        bank = make_bank()
        for bt in range(T):
            bank.scales[bt].values[2, 0] = 0.0
        # physically removing the row must give bit-identical outputs
        smaller = make_bank(n=N - 1)
        keep = [i for i in range(N) if i != 2]
        for bt in range(T):
            smaller.codes[bt].values[...] = bank.codes[bt].values[keep]
            smaller.scales[bt].values[...] = bank.scales[bt].values[keep]
        a_local, a_conf = run_decode(params, bank, raw)
        b_local, b_conf = run_decode(params, smaller, raw)
        assert np.array_equal(a_local.values, b_local.values)
        assert np.array_equal(a_conf.values, b_conf.values)

    def test_pruned_mask_excludes_rows(self):
        params = make_params()
        raw = np.random.default_rng(6).normal(size=(6, DRAW))
        a = make_bank()
        a.scales[0].values[3, 0] = 0.0
        b = make_bank()
        b.scales[0].values[3, 0] = 0.0
        vid = VoxelId(0, 0, 0)
        scene = SceneRepresentation(
            4.0, b.dims, {vid: Voxel(vid, np.zeros(3), np.arange(1), b)})
        saved, size = scene_to_bytes(scene), size_bytes(scene, 4)
        b.codes[0].values[3] = 1e3  # a pruned code's values are never read
        local_a, _ = run_decode(params, a, raw)
        local_b, _ = run_decode(params, b, raw)
        assert np.array_equal(local_a.values, local_b.values)
        # nor stored, nor counted in the map size
        assert scene_to_bytes(scene) == saved
        assert size_bytes(scene, 4) == size

    def test_fully_pruned_block_is_identity_skip(self):
        params = make_params()
        raw = np.random.default_rng(7).normal(size=(6, DRAW))
        bank = make_bank()
        bank.scales[1].values[:] = 0.0
        f = encode_feature(None, params, dc.DTensor(raw))
        kv = block_keys(None, params, bank, 1)
        out, attn = cross_attention_block(None, f, kv, 1, params)
        assert kv is None and out is f and attn is None

    def test_pruned_rows_get_no_gradient(self):
        params = make_params()
        raw = np.random.default_rng(8).normal(size=(4, DRAW))
        bank = make_bank()
        bank.scales[0].values[1] = 0.0
        tape = Tape()
        feats = encode_feature(tape, params, dc.DTensor(raw))
        local, _ = decode(tape, params, feats, bank_keys(tape, params, bank))
        grads = tape.backward(dc.sum_all(tape, local),
                              bank.named_parameters())
        code, scale = grads[bank.codes[0].name], grads[bank.scales[0].name]
        assert np.all(code[1] == 0.0)
        assert np.all(scale[1] == 0.0)
        assert np.any(code[0] != 0.0)


class TestDecodeShape:
    def test_output_shapes_and_ranges(self):
        params = make_params()
        raw = np.random.default_rng(9).normal(size=(11, DRAW))
        local, conf = run_decode(params, make_bank(), raw)
        assert local.shape == (11, 3)
        assert conf.shape == (11, 1)
        assert np.all((conf.values > 0) & (conf.values < 1))

    def test_dimension_mismatches_raise(self):
        params = make_params()
        with pytest.raises(DimensionError):
            encode_feature(None, params, dc.DTensor(np.zeros((2, DRAW + 1))))
        feats = dc.DTensor(np.zeros((2, D + 1)))
        with pytest.raises(DimensionError):
            decode(None, params, feats, bank_keys(None, params, make_bank()))
        feats = dc.DTensor(np.zeros((2, D)))
        with pytest.raises(DimensionError):
            decode(None, params, feats,
                   bank_keys(None, params, make_bank(d=D + 2)))
        with pytest.raises(DimensionError, match="2 key blocks"):
            decode(None, params, feats,
                   bank_keys(None, params, make_bank())[:2])

    def test_untaped_decode_allocates_no_gradient_buffers(self, monkeypatch):
        params, bank = make_params(), make_bank()
        raw = np.random.default_rng(11).normal(size=(5, DRAW))

        def spy(*args, **kwargs):
            raise AssertionError("np.zeros_like called")
        monkeypatch.setattr(np, "zeros_like", spy)
        local, _ = run_decode(params, bank, raw)
        assert local.shape == (5, 3)

    def test_attention_scale_is_a_python_float(self, monkeypatch):
        # an np.float64 scale would make NumPy 2 run float32 logits in float64
        scales = []

        def spy(tape, q, k, v, c):
            scales.append(c)
            return real(tape, q, k, v, c)

        real = dc.attention
        monkeypatch.setattr(dc, "attention", spy)
        run_decode(make_params(), make_bank(), np.ones((2, DRAW)))
        assert scales and all(type(c) is float for c in scales)


class TestLinearEncoder:
    def test_is_single_affine(self):
        params = make_params()
        assert len(params.encoder.weights) == 1
        raw = np.random.default_rng(11).normal(size=(5, DRAW))
        out = encode_feature(None, params, dc.DTensor(raw))
        ref = raw @ params.encoder.weights[0].values \
            + params.encoder.biases[0].values
        np.testing.assert_array_equal(out.values, ref)

    def test_roundtrips_through_bytes(self):
        # the header's fourth u32 (bytes 20-23) is reserved and written as 0
        blob = params_to_bytes(make_params())
        assert blob[20:24] == bytes(4)
        assert len(params_from_bytes(blob).encoder.weights) == 1


def test_weights_without_blocks_are_not_saved(tmp_path):
    # they were written, and params_from_bytes refused them on load
    params = make_params(num_blocks=0)
    with pytest.raises(ValueError, match="^num_blocks is 0"):
        params_to_bytes(params)
    with pytest.raises(ValueError, match="^num_blocks is 0"):
        save_params(params, tmp_path / "w.bin")
    assert not (tmp_path / "w.bin").exists()


class TestAttentionScores:
    def test_matches_manual_softmax_column(self):
        params = make_params()
        bank = make_bank()
        raw = np.random.default_rng(12).normal(size=(9, DRAW))
        feats = encode_feature(None, params, dc.DTensor(raw))
        s, s_norm = attention_scores(params, feats, bank, block=0, code=2)
        assert s.shape == (9,)
        assert abs(s_norm.min()) == 0.0 and s_norm.max() == 1.0
        # scores are probabilities from a softmax row: all in (0, 1)
        assert np.all((s > 0) & (s < 1))
        blk = params.blocks[0]
        rows = bank.active_rows(0)
        keys = (bank.codes[0].values[rows] * bank.scales[0].values[rows]) \
            @ blk.wk.values
        logits = (feats.values @ blk.wq.values) @ keys.T / np.sqrt(D)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(s, p[:, list(rows).index(2)], rtol=1e-12)

    def test_equals_the_blocks_attention_column_with_pruned_rows(self):
        params = make_params()
        bank = make_bank()
        bank.scales[0].values[[0, 3]] = 0.0
        bank.scales[1].values[[1, 4]] = 0.0
        raw = np.random.default_rng(14).normal(size=(8, DRAW))
        feats = encode_feature(None, params, dc.DTensor(raw))
        f, _ = cross_attention_block(None, feats,
                                     block_keys(None, params, bank, 0), 0,
                                     params)
        _, attn = cross_attention_block(None, f,
                                        block_keys(None, params, bank, 1), 1,
                                        params)
        # canonical order: active rows sorted by their (code, scale) values
        codes, scales = bank.codes[1].values, bank.scales[1].values
        order = sorted(bank.active_rows(1),
                       key=lambda i: tuple(codes[i]) + tuple(scales[i]))
        assert attn.shape == (8, len(order))
        for c in order:
            s, _ = attention_scores(params, feats, bank, block=1, code=c)
            assert np.array_equal(s, attn[:, order.index(c)])

    def test_block_out_of_range_rejected(self):
        params = make_params()
        bank = make_bank()
        feats = encode_feature(None, params, dc.DTensor(np.zeros((2, DRAW))))
        for block in (-1, T, 99):
            with pytest.raises(ValueError, match="out of range"):
                attention_scores(params, feats, bank, block=block, code=0)

    def test_pruned_code_rejected(self):
        params = make_params()
        bank = make_bank()
        bank.scales[0].values[2] = 0.0
        feats = encode_feature(None, params, dc.DTensor(
            np.zeros((2, DRAW))))
        with pytest.raises(ValueError, match="code 2 in block 0 is pruned"):
            attention_scores(params, feats, bank, block=0, code=2)

    def test_identical_rows_give_flat_normalization(self):
        params = make_params()
        bank = make_bank()
        raw = np.tile(np.random.default_rng(13).normal(size=(1, DRAW)), (4, 1))
        feats = encode_feature(None, params, dc.DTensor(raw))
        s, s_norm = attention_scores(params, feats, bank, block=0, code=1)
        assert np.allclose(s, s[0])
        np.testing.assert_array_equal(s_norm, np.zeros(4))


class TestWeightsPersistence:
    def test_roundtrip_byte_identical(self):
        params = make_params()
        blob = params_to_bytes(params)
        again = params_to_bytes(params_from_bytes(blob))
        assert blob == again

    def test_roundtrip_values_f32_quantized(self):
        params = make_params()
        loaded = params_from_bytes(params_to_bytes(params))
        for name, p in params.named_parameters().items():
            np.testing.assert_array_equal(
                p.values.astype("<f4"),
                loaded.named_parameters()[name].values.astype("<f4"))

    def test_load_draws_no_random_weights(self, monkeypatch):
        blob = params_to_bytes(make_params())

        def spy(*args, **kwargs):
            raise AssertionError("a generator was made")
        monkeypatch.setattr(np.random, "default_rng", spy)
        assert params_to_bytes(params_from_bytes(blob)) == blob

    def test_repeated_parameter_rejected(self):
        # two names of one length and shape: the gain is never written
        blob = params_to_bytes(make_params())
        assert blob.count(b"block.0.ln1.gain") == 1
        with pytest.raises(FormatError, match="repeated parameter "
                                              "'block.0.ln1.bias'"):
            params_from_bytes(blob.replace(b"block.0.ln1.gain",
                                           b"block.0.ln1.bias"))

    def test_bad_magic(self):
        blob = bytearray(params_to_bytes(make_params()))
        blob[:4] = b"ZZZZ"
        with pytest.raises(FormatError):
            params_from_bytes(bytes(blob))

    def test_truncated(self):
        blob = params_to_bytes(make_params())
        with pytest.raises(FormatError):
            params_from_bytes(blob[:-3])

    @pytest.mark.parametrize("at, value", [(8, 2 ** 31), (12, 0), (16, 0),
                                           (20, 8)])
    def test_bad_header_dims_rejected_before_init(self, monkeypatch, at,
                                                  value):
        # d_raw = 2**31 would allocate ~256 GiB; d = 0 divides by zero;
        # num_blocks = 0 leaves localize no block 0 to route with; the
        # reserved field must be 0
        blob = bytearray(params_to_bytes(make_params()))
        blob[at:at + 4] = value.to_bytes(4, "little")

        def spy(*args, **kwargs):
            raise AssertionError("DecoderParams.init reached")
        monkeypatch.setattr(DecoderParams, "init", spy)
        with pytest.raises(FormatError):
            params_from_bytes(bytes(blob))
