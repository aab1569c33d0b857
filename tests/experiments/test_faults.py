"""Fault-tolerance layer: policies, journal, retries, quarantine.

Unit-level coverage of :mod:`repro.experiments.faults` plus the
:class:`~repro.experiments.parallel.ParallelRunner` retry/quarantine
semantics on the in-process path (the pool path, worker kills and the
watchdog are exercised end-to-end in ``test_chaos.py``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.store import ResultStore
from repro.experiments.faults import (CHAOS_MODES, BatchJournal, ChaosConfig,
                                      ChaosError, FaultPolicy, FaultStats,
                                      JobFailure, JobPoisonedError,
                                      chaos_preamble, corrupt_file,
                                      failure_from_exception, parse_chaos)
from repro.experiments.parallel import (ParallelRunner, ScrutinyJob,
                                        job_token, run_job)


# ---------------------------------------------------------------------------
# FaultPolicy
# ---------------------------------------------------------------------------
class TestFaultPolicy:
    def test_delay_is_deterministic(self):
        policy = FaultPolicy(backoff=0.1, jitter=0.5)
        assert policy.delay("tok", 1) == policy.delay("tok", 1)

    def test_delay_decorrelates_jobs_and_attempts(self):
        policy = FaultPolicy(backoff=0.1, jitter=0.5)
        assert policy.delay("tok-a", 1) != policy.delay("tok-b", 1)
        assert policy.delay("tok-a", 1) != policy.delay("tok-a", 2)

    def test_delay_grows_exponentially_up_to_cap(self):
        policy = FaultPolicy(backoff=0.1, backoff_factor=2.0,
                             backoff_cap=0.3, jitter=0.0)
        assert policy.delay("t", 1) == pytest.approx(0.1)
        assert policy.delay("t", 2) == pytest.approx(0.2)
        assert policy.delay("t", 3) == pytest.approx(0.3)   # capped
        assert policy.delay("t", 9) == pytest.approx(0.3)

    def test_jitter_bounded_by_fraction(self):
        policy = FaultPolicy(backoff=1.0, backoff_factor=1.0, jitter=0.25)
        for attempt in range(1, 20):
            delay = policy.delay("t", attempt)
            assert 1.0 <= delay < 1.25

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1}, {"timeout": 0.0}, {"timeout": -1.0},
        {"backoff": -0.1}, {"backoff_factor": 0.5}, {"jitter": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)


# ---------------------------------------------------------------------------
# JobFailure
# ---------------------------------------------------------------------------
class TestJobFailure:
    def _failure(self) -> JobFailure:
        try:
            raise ValueError("boom")
        except ValueError as exc:
            return failure_from_exception(benchmark="CG", job_token="abc",
                                          exc=exc, attempts=3)

    def test_fields_from_exception(self):
        failure = self._failure()
        assert failure.exception_type == "ValueError"
        assert failure.message == "boom"
        assert failure.kind == "exception"
        assert failure.attempts == 3
        assert len(failure.traceback_digest) == 12

    def test_payload_roundtrip(self):
        failure = self._failure()
        assert JobFailure.from_payload(failure.to_payload()) == failure

    def test_describe_names_the_essentials(self):
        text = self._failure().describe()
        assert "CG" in text and "ValueError" in text and "boom" in text
        assert "3 failed attempt" in text

    def test_poisoned_error_wraps_failure(self):
        failure = self._failure()
        err = JobPoisonedError(failure)
        assert err.failure is failure
        assert "ValueError" in str(err)


# ---------------------------------------------------------------------------
# BatchJournal
# ---------------------------------------------------------------------------
class TestBatchJournal:
    def test_done_roundtrip_across_instances(self, tmp_path):
        journal = BatchJournal(tmp_path / "journal.jsonl")
        assert not journal.is_done("tok")
        journal.mark_done("tok", "CG")
        assert journal.is_done("tok")
        # a fresh instance reads the same file
        assert BatchJournal(tmp_path / "journal.jsonl").is_done("tok")

    def test_poisoned_roundtrip(self, tmp_path):
        journal = BatchJournal(tmp_path / "journal.jsonl")
        failure = failure_from_exception(
            benchmark="EP", job_token="tok", exc=ValueError("bad"),
            attempts=2)
        journal.mark_poisoned(failure)
        reread = BatchJournal(tmp_path / "journal.jsonl")
        assert reread.status("tok") == "poisoned"
        assert reread.failure_for("tok") == failure
        assert reread.failure_for("other") is None

    def test_torn_last_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = BatchJournal(path)
        journal.mark_done("a", "CG")
        journal.mark_done("b", "EP")
        with open(path, "a") as fh:
            fh.write('{"token": "c", "status": "do')   # torn append
        reread = BatchJournal(path)
        assert reread.is_done("a") and reread.is_done("b")
        assert reread.status("c") is None

    def test_later_entries_win(self, tmp_path):
        journal = BatchJournal(tmp_path / "journal.jsonl")
        failure = failure_from_exception(
            benchmark="CG", job_token="tok", exc=ValueError("flaky"),
            attempts=1)
        journal.mark_poisoned(failure)
        journal.mark_done("tok", "CG")  # a later run succeeded after all
        assert BatchJournal(tmp_path / "journal.jsonl").is_done("tok")

    def test_unwritable_journal_degrades_silently(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        journal = BatchJournal(blocker / "journal.jsonl")  # parent is a file
        journal.mark_done("tok", "CG")   # must not raise
        assert not journal.is_done("tok")

    def test_lines_are_valid_jsonl(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = BatchJournal(path)
        journal.mark_done("a", "CG")
        journal.mark_poisoned(failure_from_exception(
            benchmark="EP", job_token="b", exc=ValueError("x"), attempts=1))
        records = [json.loads(line) for line in
                   path.read_text().splitlines()]
        assert [r["status"] for r in records] == ["done", "poisoned"]


# ---------------------------------------------------------------------------
# ChaosConfig
# ---------------------------------------------------------------------------
class TestChaosConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosConfig(modes=("explode",))

    def test_parse_chaos(self):
        config = parse_chaos("worker-kill, corrupt-cache", seed=7)
        assert config.modes == ("worker-kill", "corrupt-cache")
        assert config.seed == 7

    def test_parse_chaos_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one mode"):
            parse_chaos(" , ")

    def test_targeting_is_deterministic(self):
        config = ChaosConfig(modes=CHAOS_MODES, rate=0.5, seed=3)
        draws = [config.wants("transient", f"tok{i}", 0) for i in range(32)]
        assert draws == [config.wants("transient", f"tok{i}", 0)
                         for i in range(32)]
        assert any(draws) and not all(draws)  # rate=0.5 splits the tokens

    def test_injections_stop_after_max_attempts(self):
        config = ChaosConfig(modes=("transient",), rate=1.0, max_attempts=1)
        assert config.wants("transient", "tok", 0)
        assert not config.wants("transient", "tok", 1)

    def test_disabled_mode_never_fires(self):
        config = ChaosConfig(modes=("transient",), rate=1.0)
        assert not config.wants("worker-kill", "tok", 0)

    def test_preamble_in_process_degrades_kill_and_hang(self):
        kill = ChaosConfig(modes=("worker-kill",), rate=1.0)
        with pytest.raises(ChaosError):
            chaos_preamble(kill, "tok", 0, in_worker=False)
        hang = ChaosConfig(modes=("hang",), rate=1.0)
        with pytest.raises(ChaosError):
            chaos_preamble(hang, "tok", 0, in_worker=False)
        chaos_preamble(hang, "tok", 5, in_worker=False)  # past max_attempts

    def test_corrupt_file_changes_content_deterministically(self, tmp_path):
        for token in ("a", "b", "c", "d"):
            path = tmp_path / f"{token}.bin"
            original = bytes(range(256)) * 8
            path.write_bytes(original)
            kind = corrupt_file(path, token, seed=0)
            assert kind in ("truncated", "garbled")
            assert path.read_bytes() != original
            # deterministic: same token+seed -> same damage
            path.write_bytes(original)
            assert corrupt_file(path, token, seed=0) == kind


# ---------------------------------------------------------------------------
# FaultStats
# ---------------------------------------------------------------------------
class TestFaultStats:
    def test_quiet_stats_are_uneventful(self):
        stats = FaultStats(jobs=5, completed=5, cache_hits=0)
        assert not stats.eventful()

    def test_retries_make_stats_eventful(self):
        assert FaultStats(retries=1).eventful()
        assert FaultStats(store_corrupt_entries=1).eventful()
        assert FaultStats(journal_skips=1).eventful()

    def test_summary_mentions_failures(self):
        stats = FaultStats(jobs=2, quarantined=1)
        stats.failures.append(failure_from_exception(
            benchmark="CG", job_token="t", exc=ValueError("dead"),
            attempts=3))
        text = stats.summary()
        assert "1 quarantined" in text and "ValueError" in text


# ---------------------------------------------------------------------------
# retry/quarantine semantics (in-process backend)
# ---------------------------------------------------------------------------
class TestInProcessRetries:
    def test_transient_chaos_recovers_and_matches(self, monkeypatch):
        job = ScrutinyJob("CG", "T")
        plain = run_job(job)
        engine = ParallelRunner(
            workers=1, chaos=ChaosConfig(modes=("transient",), rate=1.0),
            fault_policy=FaultPolicy(max_retries=2, backoff=0.0))
        result = engine.run_one(job)
        assert engine.stats.retries == 1
        assert engine.stats.transient_failures == 1
        assert engine.stats.completed == 1
        for name, crit in plain.variables.items():
            assert np.array_equal(crit.mask, result.variables[name].mask)

    def test_poisoned_job_raises_original_by_default(self):
        engine = ParallelRunner(
            workers=1, fault_policy=FaultPolicy(max_retries=1, backoff=0.0))
        with pytest.raises(KeyError):
            engine.run([ScrutinyJob("NOPE", "T")])
        assert engine.stats.quarantined == 1
        assert engine.stats.transient_failures == 2   # 1 + 1 retry

    def test_poisoned_job_recorded_when_asked(self):
        engine = ParallelRunner(
            workers=1, on_failure="record",
            fault_policy=FaultPolicy(max_retries=1, backoff=0.0))
        good = ScrutinyJob("CG", "T")
        bad = ScrutinyJob("NOPE", "T")
        results = engine.run([good, bad])
        assert results[0].ok and results[0].benchmark == "CG"
        assert not results[1].ok
        failure = results[1].failure
        assert failure.exception_type == "KeyError"
        assert failure.attempts == 2
        assert failure.kind == "exception"
        assert "ANALYSIS FAILED" in results[1].describe()
        assert engine.stats.quarantined == 1
        assert engine.stats.failures == [failure]

    def test_zero_retries_fails_fast(self):
        engine = ParallelRunner(
            workers=1, on_failure="record",
            fault_policy=FaultPolicy(max_retries=0))
        results = engine.run([ScrutinyJob("NOPE", "T")])
        assert results[0].failure.attempts == 1
        assert engine.stats.retries == 0

    def test_on_failure_validated(self):
        with pytest.raises(ValueError, match="on_failure"):
            ParallelRunner(on_failure="explode")

    def test_failure_marker_refused_by_store(self, tmp_path):
        engine = ParallelRunner(
            workers=1, on_failure="record",
            fault_policy=FaultPolicy(max_retries=0))
        marker = engine.run([ScrutinyJob("NOPE", "T")])[0]
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="failure-marker"):
            store.save("0" * 20, marker)


# ---------------------------------------------------------------------------
# journal integration (in-process backend, real store)
# ---------------------------------------------------------------------------
class TestJournalIntegration:
    JOBS = [ScrutinyJob("CG", "T"), ScrutinyJob("EP", "T")]

    def _engine(self, tmp_path, **kwargs):
        store = ResultStore(tmp_path / "cache")
        journal = BatchJournal(tmp_path / "cache" / "journal.jsonl")
        return ParallelRunner(workers=1, store=store, journal=journal,
                              **kwargs)

    def test_completions_are_journalled(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.run(self.JOBS)
        journal = BatchJournal(tmp_path / "cache" / "journal.jsonl")
        for job in self.JOBS:
            assert journal.is_done(job_token(job))

    def test_resume_recomputes_nothing(self, tmp_path, monkeypatch):
        self._engine(tmp_path).run(self.JOBS)
        calls: list[ScrutinyJob] = []
        import repro.experiments.parallel as parallel_mod
        real = parallel_mod.run_job
        monkeypatch.setattr(parallel_mod, "run_job",
                            lambda job: (calls.append(job), real(job))[1])
        engine = self._engine(tmp_path)
        results = engine.run(self.JOBS)
        assert calls == []                       # zero re-executions
        assert engine.stats.journal_skips == len(self.JOBS)
        assert all(result.ok for result in results)

    def test_stored_but_unjournalled_jobs_are_journalled_on_resume(
            self, tmp_path):
        # a batch killed between a job's store write and its journal line
        ParallelRunner(workers=1, store=ResultStore(tmp_path / "cache")
                       ).run(self.JOBS)
        engine = self._engine(tmp_path)
        engine.run(self.JOBS)
        assert engine.stats.cache_hits == len(self.JOBS)
        journal = BatchJournal(tmp_path / "cache" / "journal.jsonl")
        for job in self.JOBS:
            assert journal.is_done(job_token(job))

    def test_poisoned_jobs_are_journalled_and_skipped_on_resume(
            self, tmp_path):
        bad = ScrutinyJob("NOPE", "T")
        engine = self._engine(tmp_path, on_failure="record",
                              fault_policy=FaultPolicy(max_retries=0))
        engine.run([bad])
        journal = BatchJournal(tmp_path / "cache" / "journal.jsonl")
        assert journal.status(job_token(bad)) == "poisoned"
        resumed = self._engine(tmp_path, on_failure="record",
                               fault_policy=FaultPolicy(max_retries=0))
        results = resumed.run([bad])
        assert not results[0].ok
        assert resumed.stats.journal_poisoned_skips == 1
        assert resumed.stats.quarantined == 0    # not re-attempted

    def test_raise_mode_retries_poisoned_jobs_on_resume(self, tmp_path):
        # "raise" semantics never serve a failure from the journal: the
        # caller asked for an exception, and the fault may have been fixed
        bad = ScrutinyJob("NOPE", "T")
        record = self._engine(tmp_path, on_failure="record",
                              fault_policy=FaultPolicy(max_retries=0))
        record.run([bad])
        strict = self._engine(tmp_path,
                              fault_policy=FaultPolicy(max_retries=0))
        with pytest.raises(KeyError):
            strict.run([bad])
