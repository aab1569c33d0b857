"""Sweep-strategy plumbing: jobs, store keys, runner and CLI.

The segmented reverse sweep is an execution strategy, not a different
analysis -- its masks are bitwise-identical to the monolithic ones -- but
every layer between the analyzer and the user must carry the choice: the
picklable job description, the persistent store key (so cached artefacts of
the two strategies can be compared instead of assumed equal), the experiment
runner and the ``--sweep`` CLI flag.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.criticality import ExecutionConfig
from repro.core.store import ResultStore, cache_key
from repro.experiments.parallel import ParallelRunner, ScrutinyJob, run_job
from repro.experiments.runner import ExperimentRunner


SEGMENTED = ExecutionConfig(sweep="segmented")


class TestScrutinyJobSweep:
    def test_sweep_defaults_to_monolithic(self):
        job = ScrutinyJob("CG", "T")
        assert job.execution.sweep == "monolithic"
        assert job.key_params()["execution"].sweep == "monolithic"

    def test_jobs_differing_only_in_sweep_are_distinct(self):
        mono = ScrutinyJob("CG", "T")
        seg = ScrutinyJob("CG", "T", execution=SEGMENTED)
        assert mono != seg
        assert len({mono, seg}) == 2

    def test_run_job_segmented_matches_monolithic(self):
        mono = run_job(ScrutinyJob("FT", "T"))
        seg = run_job(ScrutinyJob("FT", "T", execution=SEGMENTED))
        for name, crit in mono.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          seg.variables[name].mask)


class TestStoreSweepKey:
    PARAMS = dict(benchmark="CG", problem_class="T", method="ad", n_probes=1)

    def test_sweep_is_part_of_the_key(self):
        mono = cache_key(**self.PARAMS, execution=ExecutionConfig(),
                         version="1")
        seg = cache_key(**self.PARAMS, execution=SEGMENTED, version="1")
        assert mono != seg

    def test_default_sweep_key_is_monolithic(self):
        assert cache_key(**self.PARAMS, version="1") == \
            cache_key(**self.PARAMS,
                      execution=ExecutionConfig(sweep="monolithic"),
                      version="1")

    def test_put_fetch_roundtrip_under_segmented_key(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_job(ScrutinyJob("CG", "T", execution=SEGMENTED))
        store.put(result, n_probes=1, execution=SEGMENTED)
        assert store.fetch(**self.PARAMS, execution=SEGMENTED) is not None
        assert store.fetch(**self.PARAMS,
                           execution=ExecutionConfig()) is None

    def test_parallel_runner_persists_under_job_sweep(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ParallelRunner(workers=1, store=store)
        job = ScrutinyJob("CG", "T", execution=SEGMENTED)
        engine.run([job])
        assert store.fetch(**job.key_params()) is not None
        # a second run must be served from the store
        before = store.hits
        engine.run([job])
        assert store.hits == before + 1


class TestRunnerSweep:
    def test_runner_forwards_sweep_to_jobs(self):
        runner = ExperimentRunner(problem_class="T", sweep="segmented")
        result = runner.result("CG")
        mono = ExperimentRunner(problem_class="T").result("CG")
        for name, crit in mono.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          result.variables[name].mask)

    def test_legacy_rng_path_accepts_sweep(self):
        runner = ExperimentRunner(problem_class="T",
                                  rng=np.random.default_rng(3),
                                  sweep="segmented")
        assert runner.result("CG").benchmark == "CG"


class TestCliSweep:
    def test_parser_accepts_sweep_flag(self):
        args = build_parser().parse_args(
            ["--sweep", "segmented", "analyze", "CG"])
        assert args.sweep == "segmented"

    def test_parser_default_is_monolithic(self):
        args = build_parser().parse_args(["analyze", "CG"])
        assert args.sweep == "monolithic"

    def test_parser_rejects_unknown_sweep(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--sweep", "diagonal", "analyze", "CG"])

    def test_analyze_runs_under_segmented_sweep(self, capsys):
        code = main(["--class", "T", "--sweep", "segmented", "analyze", "CG"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CG" in out and "uncritical" in out
