"""Tests of the shared NPB infrastructure (random stream, norms, records)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.npb import common


class TestRandlc:
    def test_returns_uniform_in_unit_interval(self):
        x = common.DEFAULT_SEED
        for _ in range(100):
            u, x = common.randlc(x, common.LCG_MULTIPLIER)
            assert 0.0 < u < 1.0

    def test_state_stays_in_46_bit_range(self):
        x = common.DEFAULT_SEED
        for _ in range(100):
            _, x = common.randlc(x, common.LCG_MULTIPLIER)
            assert 0.0 <= x < 2.0 ** 46
            assert x == float(int(x))  # exactly representable integer

    def test_deterministic(self):
        u1, x1 = common.randlc(common.DEFAULT_SEED, common.LCG_MULTIPLIER)
        u2, x2 = common.randlc(common.DEFAULT_SEED, common.LCG_MULTIPLIER)
        assert u1 == u2 and x1 == x2

    def test_matches_modular_arithmetic_reference(self):
        # the generator is x' = a * x mod 2**46 computed exactly
        x = common.DEFAULT_SEED
        a = common.LCG_MULTIPLIER
        for _ in range(50):
            expected = (int(a) * int(x)) % (2 ** 46)
            u, x = common.randlc(x, a)
            assert int(x) == expected
            assert u == pytest.approx(expected * 2.0 ** -46)


class TestVranlcAndStream:
    def test_vranlc_matches_sequential_randlc(self):
        seq, state = common.vranlc(32, common.DEFAULT_SEED,
                                   common.LCG_MULTIPLIER)
        x = common.DEFAULT_SEED
        expected = []
        for _ in range(32):
            u, x = common.randlc(x, common.LCG_MULTIPLIER)
            expected.append(u)
        assert np.allclose(seq, expected, rtol=0, atol=0)
        assert state == x

    def test_stream_matches_vranlc(self):
        stream = common.RandlcStream(block=64)
        got, got_state = stream.uniforms(common.DEFAULT_SEED)
        ref, ref_state = common.vranlc(64, common.DEFAULT_SEED,
                                       common.LCG_MULTIPLIER)
        np.testing.assert_array_equal(got, ref)
        assert got_state == ref_state

    def test_stream_partial_block(self):
        stream = common.RandlcStream(block=64)
        got, _ = stream.uniforms(common.DEFAULT_SEED, n=10)
        ref, _ = common.vranlc(10, common.DEFAULT_SEED,
                               common.LCG_MULTIPLIER)
        np.testing.assert_array_equal(got, ref)

    def test_stream_chaining_matches_one_shot(self):
        stream = common.RandlcStream(block=32)
        first, state = stream.uniforms(common.DEFAULT_SEED)
        second, _ = stream.uniforms(state)
        ref, _ = common.vranlc(64, common.DEFAULT_SEED,
                               common.LCG_MULTIPLIER)
        np.testing.assert_array_equal(np.concatenate([first, second]), ref)

    def test_stream_rejects_oversized_request(self):
        stream = common.RandlcStream(block=8)
        with pytest.raises(ValueError):
            stream.uniforms(common.DEFAULT_SEED, n=9)

    def test_stream_rejects_bad_block(self):
        with pytest.raises(ValueError):
            common.RandlcStream(block=0)


class TestExactStream:
    """The integer :class:`RandlcStream` equals sequential ``vranlc``."""

    def test_full_class_s_block(self):
        # EP class S draws 2 * 2**16 uniforms per batch
        block = 2 * 2 ** 16
        got, got_state = common.RandlcStream(block).uniforms(
            common.DEFAULT_SEED)
        ref, ref_state = common.vranlc(block, common.DEFAULT_SEED,
                                       common.LCG_MULTIPLIER)
        np.testing.assert_array_equal(got, ref)
        assert got_state == ref_state

    @pytest.mark.parametrize("block", [1, 2, 3, 15, 17, 127, 129, 1000,
                                       1023, 1025])
    def test_blocks_exercising_the_doubling_tail(self, block):
        stream = common.RandlcStream(block)
        assert stream._powers.dtype == np.uint64
        expected = [pow(int(common.LCG_MULTIPLIER), k, 2 ** 46)
                    for k in range(block)]
        assert stream._powers.tolist() == expected
        got, got_state = stream.uniforms(common.DEFAULT_SEED)
        ref, ref_state = common.vranlc(block, common.DEFAULT_SEED,
                                       common.LCG_MULTIPLIER)
        np.testing.assert_array_equal(got, ref)
        assert got_state == ref_state

    @pytest.mark.parametrize("seed", [2.0 ** 46 - 1, 2.0 ** 46 - 2,
                                      2.0 ** 46 - 12345, 2.0 ** 45 + 1])
    def test_seeds_where_the_product_wraps(self, seed):
        stream = common.RandlcStream(257)
        got, got_state = stream.uniforms(seed)
        ref, ref_state = common.vranlc(257, seed, common.LCG_MULTIPLIER)
        np.testing.assert_array_equal(got, ref)
        assert got_state == ref_state

    def test_empty_request_keeps_the_state(self):
        got, state = common.RandlcStream(4).uniforms(common.DEFAULT_SEED, 0)
        assert got.size == 0 and state == common.DEFAULT_SEED


class TestIpow46:
    def test_zero_exponent_is_identity(self):
        assert common.ipow46(common.LCG_MULTIPLIER, 0) == 1.0

    @pytest.mark.parametrize("exponent", [1, 2, 3, 7, 16, 33, 100])
    def test_matches_repeated_multiplication(self, exponent):
        a = common.LCG_MULTIPLIER
        expected = pow(int(a), exponent, 2 ** 46)
        assert int(common.ipow46(a, exponent)) == expected

    def test_jump_ahead_matches_sequential_stream(self):
        # advancing the seed by ipow46(a, n) equals n sequential draws
        n = 37
        t = common.ipow46(common.LCG_MULTIPLIER, n)
        _, jumped = common.randlc(common.DEFAULT_SEED, t)
        x = common.DEFAULT_SEED
        for _ in range(n):
            _, x = common.randlc(x, common.LCG_MULTIPLIER)
        assert jumped == x


class TestNorms:
    def test_rms_norm_of_constant_field(self):
        field = np.full((4, 4, 4), 2.0)
        # denominator is prod(n - 2) = 2*2*2 = 8
        value = common.rms_norm(field, (4, 4, 4))
        assert value == pytest.approx(np.sqrt(np.sum(field ** 2) / 8.0))

    def test_weighted_abs_sum(self):
        field = np.array([-1.0, 2.0, -3.0])
        weights = np.array([1.0, 0.5, 2.0])
        assert common.weighted_abs_sum(field, weights) == pytest.approx(8.0)


class TestVerificationResult:
    def test_bool_reflects_passed(self):
        good = common.VerificationResult("BT", True, 1e-8)
        bad = common.VerificationResult("BT", False, 1e-8)
        assert good and not bad

    def test_summary_mentions_status_and_details(self):
        result = common.VerificationResult("MG", False, 1e-8,
                                           {"rnm2": 0.5}, notes="blew up")
        text = result.summary()
        assert "UNSUCCESSFUL" in text
        assert "rnm2" in text
        assert "blew up" in text

    def test_relative_error_handles_zero_reference(self):
        assert common.relative_error(0.5, 0.0) == 0.5
        assert common.relative_error(1.0, 2.0) == pytest.approx(0.5)

    def test_within_epsilon(self):
        assert common.within_epsilon(1.0 + 1e-9, 1.0, 1e-8)
        assert not common.within_epsilon(1.1, 1.0, 1e-8)
