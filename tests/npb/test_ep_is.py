"""Tests of the EP (random deviates) and IS (integer sort) ports."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

import repro.npb.ep as ep_module
from repro.core.analysis import scrutinize
from repro.npb.base import concrete_state
from repro.npb.ep import EP
from repro.npb.is_ import IS
from repro.npb.params import CLASSES, params_for


@pytest.fixture(scope="module")
def ep():
    return EP(problem_class="T")


@pytest.fixture(scope="module")
def is_bench():
    return IS(problem_class="T")


class TestEPBatches:
    def test_batch_seed_zero_is_default_seed(self, ep):
        from repro.npb.common import DEFAULT_SEED

        assert ep._batch_seed(0) == DEFAULT_SEED

    def test_batch_seeds_match_sequential_stream(self, ep):
        # batch k's seed equals the state after k * batch_draws draws
        from repro.npb.common import DEFAULT_SEED, LCG_MULTIPLIER, randlc

        x = DEFAULT_SEED
        for _ in range(ep._batch_draws):
            _, x = randlc(x, LCG_MULTIPLIER)
        assert ep._batch_seed(1) == x

    def test_batch_sums_are_deterministic(self, ep):
        a = ep._batch_sums(3)
        b = ep._batch_sums(3)
        assert a[0] == b[0] and a[1] == b[1]
        np.testing.assert_array_equal(a[2], b[2])

    def test_annulus_counts_do_not_exceed_pairs(self, ep):
        _, _, counts = ep._batch_sums(0)
        assert counts.sum() <= 2 ** ep.params.nk
        assert np.all(counts >= 0)

    def test_gaussian_sums_have_plausible_magnitude(self, ep):
        # the mean of ~0.78 * 2**nk standard normals is O(sqrt(n))
        sx, sy, counts = ep._batch_sums(0)
        n_accepted = counts.sum()
        assert abs(sx) < 10.0 * np.sqrt(n_accepted)
        assert abs(sy) < 10.0 * np.sqrt(n_accepted)


#: SHA-256 over every batch of ``EP._batch_sums`` per problem class, taken
#: from the float double-double generator before the stream moved to exact
#: integer arithmetic: for each batch in order, the little-endian float64
#: bytes of ``sx`` and ``sy`` followed by those of the ``q`` counts.
BATCH_SUM_DIGESTS = {
    "T": "969af3f4b442c17bf07bf7773d2491ff14386cdbf24459d917df2102f91ddd75",
    "S": "fd320bbb38918291206864f780763381d5e1480839ce3c3841ea7ab31add7e63",
    "A": "2a70aa97d47f73314943518b9feae6e444ea0db5fb3b05e34a8d4190ded07e43",
}


class TestEPExactStream:
    """EP's integer stream is bitwise the reference ``randlc`` stream."""

    @pytest.mark.parametrize("problem_class", ["T", "S"])
    def test_batch_seeds_match_ipow46_jump_ahead(self, problem_class):
        from repro.npb.common import (DEFAULT_SEED, LCG_MULTIPLIER, ipow46,
                                      randlc)

        bench = EP(problem_class=problem_class)
        for batch in range(64):
            offset = batch * bench._batch_draws
            if offset == 0:
                expected = DEFAULT_SEED
            else:
                _, expected = randlc(DEFAULT_SEED,
                                     ipow46(LCG_MULTIPLIER, offset))
            assert bench._batch_seed(batch) == expected

    @pytest.mark.parametrize("problem_class", sorted(BATCH_SUM_DIGESTS))
    def test_batch_sums_digest(self, problem_class):
        """Every batch's sums and counts, bit for bit.

        The digests were generated with the pre-integer implementation (the
        double-double ``_mod_mul`` stream, ``ipow46`` seeds and boolean-mask
        compression) by hashing exactly as below over
        ``range(params.n_batches)``.
        """
        bench = EP(problem_class=problem_class)
        digest = hashlib.sha256()
        for batch in range(bench.params.n_batches):
            sx, sy, counts = bench._batch_sums(batch)
            digest.update(struct.pack("<dd", sx, sy))
            digest.update(np.ascontiguousarray(counts, dtype="<f8").tobytes())
        assert digest.hexdigest() == BATCH_SUM_DIGESTS[problem_class]


class TestEPBatchCache:
    """One module-level cache serves every EP instance's batches."""

    def test_second_instance_recomputes_nothing(self):
        ep_module._batch_sums.cache_clear()
        first = EP(problem_class="T")
        first.verify(first.run_full())
        assert ep_module._batch_sums.cache_info().misses \
            == first.params.n_batches
        second = EP(problem_class="T")
        second.verify(second.run(second.checkpoint_state(5),
                                 second.total_steps - 5))
        info = ep_module._batch_sums.cache_info()
        assert info.misses == first.params.n_batches
        assert info.hits > 0

    def test_bound_holds_every_registered_class(self):
        total = sum(params_for("EP", c).n_batches for c in CLASSES)
        assert ep_module._batch_sums.cache_info().maxsize >= total

    def test_cached_counts_are_read_only(self, ep):
        _, _, counts = ep._batch_sums(0)
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0] = 1.0

    @pytest.mark.parametrize("problem_class,splits", [
        ("T", None), ("S", (0, 1, 128, 255, 256))])
    def test_restart_matches_an_uncached_run(self, monkeypatch,
                                             problem_class, splits):
        bench = EP(problem_class=problem_class)
        monkeypatch.setattr(ep_module, "_batch_sums",
                            ep_module._batch_sums.__wrapped__)
        uncached = concrete_state(bench.run_full())
        monkeypatch.undo()
        steps = bench.total_steps
        for k in splits or range(steps + 1):
            final = concrete_state(bench.run(bench.checkpoint_state(k),
                                             steps - k))
            for key, value in uncached.items():
                assert np.asarray(final[key]).tobytes() \
                    == np.asarray(value).tobytes(), f"k={k} {key}"


class TestEPDynamics:
    def test_total_steps_is_batch_count(self, ep):
        assert ep.total_steps == ep.params.n_batches

    def test_accumulators_are_additive_across_a_checkpoint(self, ep):
        # run all batches in one go vs. restart from a mid-run checkpoint
        full = ep.run_full()
        mid = ep.checkpoint_state(ep.total_steps // 2)
        resumed = ep.run(mid, ep.total_steps - ep.total_steps // 2)
        assert resumed["sx"] == pytest.approx(full["sx"], rel=1e-12)
        assert resumed["sy"] == pytest.approx(full["sy"], rel=1e-12)
        np.testing.assert_allclose(resumed["q"], full["q"])

    def test_run_and_verify_passes(self, ep):
        assert ep.run_and_verify().passed

    def test_verification_fails_on_corrupted_sums(self, ep):
        final = ep.run_full()
        final["sx"] = float(final["sx"]) * 1.01
        assert not ep.verify(final).passed

    def test_all_elements_critical(self, ep):
        result = scrutinize(ep, step=ep.total_steps // 2)
        for crit in result.variables.values():
            assert crit.n_uncritical == 0


class TestISRanking:
    def test_bucket_pointers_are_exclusive_prefix_sums(self, is_bench):
        keys = is_bench.initial_state()["key_array"]
        ptrs = is_bench._bucket_pointers(keys)
        buckets = keys >> is_bench._shift
        counts = np.bincount(buckets, minlength=is_bench.params.num_buckets)
        np.testing.assert_array_equal(np.diff(ptrs), counts[:-1])
        assert ptrs[0] == 0

    def test_rank_counts_strictly_smaller_keys(self, is_bench, rng):
        keys = rng.integers(0, is_bench.params.max_key, size=200)
        ranks = is_bench._rank(keys)
        for idx in rng.choice(200, size=10, replace=False):
            assert ranks[idx] == np.count_nonzero(keys < keys[idx])

    def test_sorting_by_rank_orders_the_keys(self, is_bench):
        keys = is_bench.run_full()["key_array"]
        ranks = is_bench._rank(keys)
        ordered = keys[np.argsort(ranks, kind="stable")]
        assert np.all(np.diff(ordered) >= 0)


class TestISDynamics:
    def test_advance_updates_two_keys(self, is_bench):
        state = is_bench.initial_state()
        new = is_bench._advance(state)
        changed = np.flatnonzero(new["key_array"] != state["key_array"])
        assert changed.size <= 2
        assert new["iteration"] == 1

    def test_partial_verification_increments_every_iteration(self, is_bench):
        final = is_bench.run_full()
        assert final["passed_verification"] == is_bench.total_steps

    def test_run_and_verify_passes(self, is_bench):
        assert is_bench.run_and_verify().passed

    def test_verification_fails_if_partial_checks_missed(self, is_bench):
        final = is_bench.run_full()
        final["passed_verification"] = 0
        assert not is_bench.verify(final).passed

    def test_all_variables_rule_critical(self, is_bench):
        result = scrutinize(is_bench, step=is_bench.total_steps // 2)
        for crit in result.variables.values():
            assert crit.method == "rule"
            assert crit.n_uncritical == 0
