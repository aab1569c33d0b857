"""Probe-batching plumbing: jobs, store keys, runner and CLI.

The batched multi-probe sweep is an execution strategy (identical masks to
the per-probe loop), and ``probe_scale`` is a genuine analysis parameter;
every layer between the analyzer and the user must carry both: the
picklable job description, the persistent store key (``probe_scale`` keyed
so different perturbation magnitudes never alias; ``probe_batching`` keyed
so the equivalence can be checked from cached artefacts), the experiment
runner and the ``--probe-batching`` / ``--probe-scale`` CLI flags.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.criticality import ExecutionConfig
from repro.core.store import ResultStore, cache_key
from repro.experiments.parallel import ParallelRunner, ScrutinyJob, run_job
from repro.experiments.runner import ExperimentRunner


PER_PROBE = ExecutionConfig(probe_batching="per-probe")


class TestScrutinyJobProbes:
    def test_defaults(self):
        job = ScrutinyJob("CG", "T")
        assert job.execution.probe_batching == "batched"
        assert job.probe_scale == pytest.approx(1.0e-3)
        params = job.key_params()
        assert params["execution"].probe_batching == "batched"
        assert params["probe_scale"] == pytest.approx(1.0e-3)

    def test_jobs_differing_only_in_probe_knobs_are_distinct(self):
        base = ScrutinyJob("CG", "T", n_probes=3)
        looped = ScrutinyJob("CG", "T", n_probes=3, execution=PER_PROBE)
        wider = ScrutinyJob("CG", "T", n_probes=3, probe_scale=1.0e-2)
        assert len({base, looped, wider}) == 3

    def test_run_job_batched_matches_per_probe(self):
        batched = run_job(ScrutinyJob("CG", "T", n_probes=3))
        looped = run_job(ScrutinyJob("CG", "T", n_probes=3,
                                     execution=PER_PROBE))
        for name, crit in batched.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          looped.variables[name].mask)

    def test_run_job_batched_matches_per_probe_segmented(self):
        batched = run_job(ScrutinyJob(
            "FT", "T", n_probes=2,
            execution=ExecutionConfig(sweep="segmented")))
        looped = run_job(ScrutinyJob(
            "FT", "T", n_probes=2,
            execution=ExecutionConfig(sweep="segmented",
                                      probe_batching="per-probe")))
        for name, crit in batched.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          looped.variables[name].mask)


class TestStoreProbeKeys:
    PARAMS = dict(benchmark="CG", problem_class="T", method="ad", n_probes=2)

    def test_probe_knobs_are_part_of_the_key(self):
        base = cache_key(**self.PARAMS, version="1")
        assert base != cache_key(**self.PARAMS, probe_scale=5.0e-3,
                                 version="1")
        assert base != cache_key(**self.PARAMS, execution=PER_PROBE,
                                 version="1")

    def test_put_fetch_roundtrip_under_probe_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_job(ScrutinyJob("CG", "T", n_probes=2,
                                     probe_scale=5.0e-3))
        store.put(result, n_probes=2, probe_scale=5.0e-3)
        assert store.fetch(**self.PARAMS, probe_scale=5.0e-3) is not None
        assert store.fetch(**self.PARAMS) is None          # default scale
        assert store.fetch(**self.PARAMS, probe_scale=5.0e-3,
                           execution=PER_PROBE) is None

    def test_parallel_runner_persists_under_job_probe_knobs(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ParallelRunner(workers=1, store=store)
        job = ScrutinyJob("CG", "T", n_probes=2, probe_scale=2.0e-3,
                          execution=PER_PROBE)
        engine.run([job])
        assert store.fetch(**job.key_params()) is not None
        before = store.hits
        engine.run([job])
        assert store.hits == before + 1


class TestRunnerProbes:
    def test_runner_forwards_probe_knobs_to_jobs(self):
        batched = ExperimentRunner(problem_class="T", n_probes=3)
        looped = ExperimentRunner(problem_class="T", n_probes=3,
                                  probe_batching="per-probe")
        a = batched.result("CG")
        b = looped.result("CG")
        for name, crit in a.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          b.variables[name].mask)

    def test_legacy_rng_path_accepts_probe_knobs(self):
        runner = ExperimentRunner(problem_class="T",
                                  rng=np.random.default_rng(3),
                                  n_probes=2, probe_batching="batched",
                                  probe_scale=2.0e-3)
        assert runner.result("CG").benchmark == "CG"


class TestCliProbes:
    def test_parser_accepts_probe_flags(self):
        args = build_parser().parse_args(
            ["--probes", "4", "--probe-batching", "per-probe",
             "--probe-scale", "0.01", "analyze", "CG"])
        assert args.probes == 4
        assert args.probe_batching == "per-probe"
        assert args.probe_scale == pytest.approx(0.01)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze", "CG"])
        assert args.probe_batching == "batched"
        assert args.probe_scale == pytest.approx(1.0e-3)

    def test_parser_rejects_unknown_probe_batching(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--probe-batching", "vector", "analyze", "CG"])

    def test_analyze_runs_with_batched_probes(self, capsys):
        code = main(["--class", "T", "--probes", "3", "analyze", "CG"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CG" in out and "uncritical" in out
