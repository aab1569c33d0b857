"""Snapshot-schedule plumbing: jobs, store keys, runner and CLI.

The snapshot schedule is an execution strategy of the segmented sweep --
masks are bitwise-identical across policies -- but every layer must carry
the choice: the picklable job description, the persistent store key (so
cached artefacts of different schedules can never alias, mirroring the
``probe_scale`` regression of PR 3), the experiment runner and the
``--snapshot-schedule``/``--snapshot-budget``/``--spill-dir`` CLI flags.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.core.criticality import CriticalityAnalyzer, ExecutionConfig
from repro.core.store import ResultStore, cache_key
from repro.experiments.parallel import ParallelRunner, ScrutinyJob, run_job
from repro.experiments.runner import ExperimentRunner


def _segmented(**knobs) -> ExecutionConfig:
    return ExecutionConfig(sweep="segmented", **knobs)


class TestScrutinyJobSchedule:
    def test_schedule_defaults_to_all(self):
        job = ScrutinyJob("CG", "T")
        assert job.execution.snapshot_schedule == "all"
        assert job.execution.snapshot_budget is None
        assert job.key_params()["execution"].key_params()[
            "snapshot_schedule"] == "all"
        assert job.key_params()["execution"].key_params()[
            "snapshot_budget"] is None

    def test_jobs_differing_only_in_schedule_are_distinct(self):
        jobs = {ScrutinyJob("CG", "T", execution=_segmented()),
                ScrutinyJob("CG", "T", execution=_segmented(
                    snapshot_schedule="binomial")),
                ScrutinyJob("CG", "T", execution=_segmented(
                    snapshot_schedule="binomial", snapshot_budget=4)),
                ScrutinyJob("CG", "T", execution=_segmented(
                    snapshot_schedule="spill"))}
        assert len(jobs) == 4

    def test_spill_dir_is_not_analysis_identity(self):
        job = ScrutinyJob("CG", "T", execution=_segmented(
            snapshot_schedule="spill", spill_dir="/tmp/a"))
        assert "spill_dir" not in job.execution.key_params()
        # ... nor job identity: same analysis in a different scratch
        # location must deduplicate inside one batch
        other = ScrutinyJob("CG", "T", execution=_segmented(
            snapshot_schedule="spill", spill_dir="/tmp/b"))
        assert job == other
        assert len({job, other}) == 1

    @pytest.mark.parametrize("policy", ("binomial", "spill"))
    def test_run_job_matches_all_schedule(self, policy, tmp_path):
        knobs = {"snapshot_budget": 2} if policy == "binomial" \
            else {"spill_dir": str(tmp_path)}
        base = run_job(ScrutinyJob("FT", "T", execution=_segmented()))
        other = run_job(ScrutinyJob("FT", "T", execution=_segmented(
            snapshot_schedule=policy, **knobs)))
        for name, crit in base.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          other.variables[name].mask)
        assert list(tmp_path.iterdir()) == []


class TestStoreScheduleKey:
    PARAMS = dict(benchmark="CG", problem_class="T", method="ad", n_probes=1,
                  execution=_segmented())

    @staticmethod
    def _key(**knobs) -> str:
        params = dict(TestStoreScheduleKey.PARAMS,
                      execution=_segmented(**knobs))
        return cache_key(**params, version="1")

    def test_schedule_is_part_of_the_key(self):
        keys = {self._key(), self._key(snapshot_schedule="binomial"),
                self._key(snapshot_schedule="spill")}
        assert len(keys) == 3

    def test_budget_is_part_of_the_key(self):
        keys = {self._key(snapshot_schedule="binomial", snapshot_budget=b)
                for b in (None, 2, 3, 8)}
        assert len(keys) == 4

    def test_default_schedule_key_is_all(self):
        assert cache_key(**self.PARAMS, version="1") == \
            self._key(snapshot_schedule="all", snapshot_budget=None)

    def test_version_bumped_past_1_2_0(self):
        # the schedule/budget fields joined the key payload in 1.3.0 (and
        # trace_cache in 1.4.0); the version bumps guarantee no
        # pre-schedule entry can ever be read back under a newer key
        assert tuple(int(p) for p in repro.__version__.split(".")) >= (1, 3, 0)
        assert cache_key(**self.PARAMS) != cache_key(**self.PARAMS,
                                                     version="1.2.0")

    def test_put_fetch_roundtrip_under_schedule_key(self, tmp_path):
        store = ResultStore(tmp_path)
        binomial = _segmented(snapshot_schedule="binomial")
        result = run_job(ScrutinyJob("CG", "T", execution=binomial))
        store.put(result, n_probes=1, execution=binomial)
        params = dict(self.PARAMS, execution=binomial)
        assert store.fetch(**params) is not None
        assert store.fetch(**self.PARAMS) is None
        params["execution"] = _segmented(snapshot_schedule="spill")
        assert store.fetch(**params) is None

    def test_parallel_runner_persists_under_job_schedule(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        engine = ParallelRunner(workers=1, store=store)
        job = ScrutinyJob("CG", "T", execution=_segmented(
            snapshot_schedule="spill", spill_dir=str(tmp_path / "scratch")))
        engine.run([job])
        assert store.fetch(**job.key_params()) is not None
        before = store.hits
        engine.run([job])
        assert store.hits == before + 1


class TestAnalyzerSchedule:
    def test_analyzer_validates_schedule(self):
        with pytest.raises(ValueError, match="snapshot_schedule"):
            CriticalityAnalyzer(snapshot_schedule="fifo")

    def test_analyzer_validates_budget(self):
        with pytest.raises(ValueError, match="snapshot_budget"):
            CriticalityAnalyzer(snapshot_schedule="binomial",
                                snapshot_budget=1)

    def test_analyzer_rejects_schedule_without_segmented_sweep(self):
        # silently ignoring the knob would still fork the cache key; every
        # entry point (scrutinize, jobs, runner) inherits this check
        with pytest.raises(ValueError, match="require sweep='segmented'"):
            CriticalityAnalyzer(snapshot_schedule="binomial")
        with pytest.raises(ValueError, match="require sweep='segmented'"):
            CriticalityAnalyzer(spill_dir="/tmp/scratch")

    def test_analyzer_rejects_inapplicable_budget_and_spill_dir(self):
        with pytest.raises(ValueError, match="snapshot_budget requires"):
            CriticalityAnalyzer(sweep="segmented",
                                snapshot_schedule="spill",
                                snapshot_budget=8)
        with pytest.raises(ValueError, match="spill_dir requires"):
            CriticalityAnalyzer(sweep="segmented",
                                snapshot_schedule="binomial",
                                spill_dir="/tmp/scratch")

    def test_run_job_surfaces_inapplicable_schedule(self):
        # the job's config refuses the combination before anything runs
        with pytest.raises(ValueError, match="require sweep='segmented'"):
            run_job(ScrutinyJob("CG", "T", execution=ExecutionConfig(
                snapshot_schedule="binomial")))

    def test_analyzer_defaults(self):
        execution = CriticalityAnalyzer().execution
        assert execution.snapshot_schedule == "all"
        assert execution.snapshot_budget is None
        assert execution.spill_dir is None


class TestRunnerSchedule:
    def test_runner_forwards_schedule_to_jobs(self, tmp_path):
        base = ExperimentRunner(problem_class="T",
                                sweep="segmented").result("CG")
        got = ExperimentRunner(problem_class="T", sweep="segmented",
                               snapshot_schedule="spill",
                               spill_dir=str(tmp_path)).result("CG")
        for name, crit in base.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          got.variables[name].mask)
        assert list(tmp_path.iterdir()) == []

    def test_legacy_rng_path_accepts_schedule(self):
        runner = ExperimentRunner(problem_class="T",
                                  rng=np.random.default_rng(3),
                                  sweep="segmented",
                                  snapshot_schedule="binomial")
        assert runner.result("CG").benchmark == "CG"


class TestCliSchedule:
    def test_parser_accepts_schedule_flags(self):
        args = build_parser().parse_args(
            ["--sweep", "segmented", "--snapshot-schedule", "binomial",
             "--snapshot-budget", "4", "--spill-dir", "/tmp/scratch",
             "analyze", "CG"])
        assert args.snapshot_schedule == "binomial"
        assert args.snapshot_budget == 4
        assert args.spill_dir == "/tmp/scratch"

    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze", "CG"])
        assert args.snapshot_schedule == "all"
        assert args.snapshot_budget is None
        assert args.spill_dir is None

    def test_parser_rejects_unknown_schedule(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--snapshot-schedule", "fifo", "analyze", "CG"])

    def test_schedule_flags_require_segmented_sweep(self, capsys):
        # a non-default schedule under the monolithic sweep would silently
        # do nothing while forking the cache key
        for flags in (["--snapshot-schedule", "spill"],
                      ["--snapshot-budget", "4"],
                      ["--spill-dir", "/tmp/scratch"]):
            with pytest.raises(SystemExit):
                main([*flags, "analyze", "CG"])
            assert "error: snapshot_schedule/snapshot_budget/spill_dir " \
                "require sweep='segmented'\n" in capsys.readouterr().err
        # the explicit default is fine either way
        assert main(["--class", "T", "--snapshot-schedule", "all",
                     "analyze", "CG"]) == 0
        capsys.readouterr()

    def test_budget_lower_bound_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--sweep", "segmented", "--snapshot-schedule", "binomial",
                  "--snapshot-budget", "1", "analyze", "CG"])
        assert "error: snapshot_budget must be at least 2\n" \
            in capsys.readouterr().err

    def test_budget_and_spill_dir_require_their_schedules(self, capsys):
        with pytest.raises(SystemExit):
            main(["--sweep", "segmented", "--snapshot-schedule", "spill",
                  "--snapshot-budget", "8", "analyze", "CG"])
        assert "error: snapshot_budget requires " \
            "snapshot_schedule='binomial'\n" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--sweep", "segmented", "--snapshot-schedule", "binomial",
                  "--spill-dir", "/tmp/scratch", "analyze", "CG"])
        assert "error: spill_dir requires snapshot_schedule='spill'\n" \
            in capsys.readouterr().err

    def test_analyze_runs_under_binomial(self, capsys):
        code = main(["--class", "T", "--sweep", "segmented",
                     "--snapshot-schedule", "binomial",
                     "--snapshot-budget", "3", "analyze", "CG"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CG" in out and "uncritical" in out

    def test_analyze_runs_under_spill(self, capsys, tmp_path):
        code = main(["--class", "T", "--sweep", "segmented",
                     "--snapshot-schedule", "spill",
                     "--spill-dir", str(tmp_path), "analyze", "CG"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CG" in out and "uncritical" in out
        assert list(tmp_path.iterdir()) == []
