"""Plumbing of ``trace_cache`` through analyzers, jobs, store and CLI."""

from __future__ import annotations

import pytest

import repro
from repro.cli import build_parser, main
from repro.core.criticality import CriticalityAnalyzer, ExecutionConfig
from repro.core.store import cache_key
from repro.experiments.parallel import ScrutinyJob
from repro.experiments.runner import ExperimentRunner


class TestAnalyzerValidation:
    def test_unknown_trace_cache_rejected(self):
        with pytest.raises(ValueError, match="trace_cache"):
            CriticalityAnalyzer(sweep="segmented", trace_cache="maybe")

    def test_off_requires_segmented(self):
        # silently accepting the flag would do nothing while forking the
        # result-cache key
        with pytest.raises(ValueError, match="segmented"):
            CriticalityAnalyzer(sweep="monolithic", trace_cache="off")

    def test_defaults_construct(self):
        analyzer = CriticalityAnalyzer(sweep="segmented")
        assert analyzer.execution.trace_cache == "plan"


def _segmented(trace_cache: str = "plan") -> ExecutionConfig:
    return ExecutionConfig(sweep="segmented", trace_cache=trace_cache)


class TestStoreKey:
    PARAMS = dict(benchmark="CG", problem_class="T", method="ad",
                  n_probes=1, execution=_segmented())

    def test_trace_cache_forks_the_key(self):
        on = cache_key(**self.PARAMS)
        off = cache_key(**dict(self.PARAMS, execution=_segmented("off")))
        assert on != off

    def test_default_matches_explicit_plan(self):
        params = dict(self.PARAMS,
                      execution=ExecutionConfig(sweep="segmented"))
        assert cache_key(**self.PARAMS) == cache_key(**params)

    def test_version_bumped_to_1_4(self):
        # trace_cache joined the key payload in 1.4.0; the bump guarantees
        # no pre-plan entry is ever read back under a post-plan key
        assert tuple(int(p) for p in
                     repro.__version__.split(".")) >= (1, 4, 0)
        assert cache_key(**self.PARAMS) != cache_key(**self.PARAMS,
                                                     version="1.3.0")


class TestJobAndRunner:
    def test_job_key_params_carry_trace_cache(self):
        job = ScrutinyJob(benchmark="cg", execution=_segmented("off"))
        assert job.key_params()["execution"].trace_cache == "off"
        # different policies are different analyses and must not dedupe
        assert job != ScrutinyJob(benchmark="cg", execution=_segmented())

    def test_runner_threads_trace_cache_through(self):
        runner = ExperimentRunner(problem_class="T", sweep="segmented",
                                  trace_cache="off")
        assert runner.execution.trace_cache == "off"
        result = runner.result("EP")
        assert result.benchmark == "EP"


class TestCLI:
    def test_flag_accepted_with_segmented(self):
        args = build_parser().parse_args(
            ["--sweep", "segmented", "--trace-cache", "off",
             "analyze", "CG"])
        assert args.trace_cache == "off"

    def test_off_requires_segmented_sweep(self, capsys):
        with pytest.raises(SystemExit):
            main(["--trace-cache", "off", "analyze", "CG"])
        assert "segmented" in capsys.readouterr().err

    def test_end_to_end_analyze_with_plan_off(self, capsys):
        code = main(["--class", "T", "--sweep", "segmented",
                     "--trace-cache", "off", "analyze", "EP"])
        assert code == 0
        assert "EP" in capsys.readouterr().out
