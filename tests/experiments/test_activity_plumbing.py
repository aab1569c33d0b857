"""Activity-method plumbing: the sweep knobs must be honoured, not ignored.

Before repro 1.6.0 ``method="activity"`` silently ignored
``sweep="segmented"``, the snapshot schedules and ``trace_cache`` -- the
analysis always traced the monolithic tape, while the ignored knobs still
forked the result-cache key.  These are the regression tests: the knobs now
take effect (the segmented/chained path actually runs, with identical
masks), unsupported combinations raise instead of silently degrading, and
every layer -- analyzer, scrutinize, jobs, store key, CLI -- carries the
choice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import activity as activity_mod
from repro.cli import build_parser, main
from repro.core import criticality as criticality_mod
from repro.core.analysis import scrutinize
from repro.core.criticality import CriticalityAnalyzer, ExecutionConfig
from repro.core.store import ResultStore, cache_key
from repro.experiments.parallel import ScrutinyJob, run_job
from repro.npb import registry


SEGMENTED = ExecutionConfig(sweep="segmented")


class TestAnalyzerHonoursSweepKnobs:
    @pytest.mark.parametrize("name", ["CG", "MG", "LU", "IS"])
    def test_segmented_activity_masks_match_monolithic(self, name):
        mono = scrutinize(registry.create(name, "T"), method="activity")
        seg = scrutinize(registry.create(name, "T"), method="activity",
                         sweep="segmented")
        planned = scrutinize(registry.create(name, "T"), method="activity",
                             sweep="segmented", trace_cache="plan")
        for var, crit in mono.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          seg.variables[var].mask,
                                          err_msg=f"{name}.{var} segmented")
            np.testing.assert_array_equal(crit.mask,
                                          planned.variables[var].mask,
                                          err_msg=f"{name}.{var} planned")

    def test_segmented_route_actually_runs_the_chained_sweep(self, monkeypatch):
        """The knobs must reach the chained driver -- the original bug."""
        calls = []
        original = activity_mod.segmented_read_masks

        def spy(bench, state, **kwargs):
            calls.append(kwargs)
            return original(bench, state, **kwargs)

        monkeypatch.setattr(criticality_mod.activity_mod,
                            "segmented_read_masks", spy)
        analyzer = CriticalityAnalyzer(method="activity", sweep="segmented",
                                       snapshot_schedule="binomial",
                                       snapshot_budget=3,
                                       trace_cache="off")
        analyzer.analyze(registry.create("CG", "T"))
        assert len(calls) == 1
        assert calls[0]["snapshot_schedule"] == "binomial"
        assert calls[0]["snapshot_budget"] == 3
        assert calls[0]["trace_cache"] == "off"
        assert calls[0]["plan_cache"] is None

    def test_monolithic_route_does_not_run_the_chained_sweep(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("monolithic activity used the chained sweep")

        monkeypatch.setattr(criticality_mod.activity_mod,
                            "segmented_read_masks", boom)
        result = CriticalityAnalyzer(method="activity").analyze(
            registry.create("CG", "T"))
        assert result

    def test_activity_rejects_probes(self):
        with pytest.raises(ValueError, match="value-independent"):
            CriticalityAnalyzer(method="activity", n_probes=2)

    def test_activity_rejects_snapshot_knobs_without_segmented(self):
        with pytest.raises(ValueError, match="require sweep='segmented'"):
            CriticalityAnalyzer(method="activity",
                                snapshot_schedule="binomial")

    def test_activity_rejects_trace_cache_off_without_segmented(self):
        with pytest.raises(ValueError, match="segmented"):
            CriticalityAnalyzer(method="activity", trace_cache="off")


class TestActivityJobsAndStoreKeys:
    def test_segmented_activity_job_roundtrip(self):
        mono = run_job(ScrutinyJob("CG", "T", method="activity"))
        seg = run_job(ScrutinyJob("CG", "T", method="activity",
                                  execution=ExecutionConfig(
                                      sweep="segmented",
                                      snapshot_schedule="binomial",
                                      trace_cache="plan")))
        for name, crit in mono.variables.items():
            np.testing.assert_array_equal(crit.mask,
                                          seg.variables[name].mask)

    def test_activity_sweep_keys_never_alias(self):
        base = dict(benchmark="CG", problem_class="T", method="activity",
                    n_probes=1, version="1")
        mono = cache_key(**base, execution=ExecutionConfig())
        seg = cache_key(**base, execution=SEGMENTED)
        planned = cache_key(**base, execution=ExecutionConfig(
            sweep="segmented", trace_cache="off"))
        assert len({mono, seg, planned}) == 3

    def test_version_bump_invalidates_pre_refactor_entries(self):
        # entries written while the knobs were ignored carry the old
        # version; the 1.6.0 bump must address them differently
        base = dict(benchmark="CG", problem_class="T", method="activity",
                    n_probes=1, execution=SEGMENTED)
        old = cache_key(**base, version="1.5.0")
        new = cache_key(**base, version="1.6.0")
        assert old != new

    def test_store_roundtrip_under_segmented_activity_key(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_job(ScrutinyJob("CG", "T", method="activity",
                                     execution=SEGMENTED))
        store.put(result, n_probes=1, execution=SEGMENTED)
        assert store.fetch(benchmark="CG", problem_class="T",
                           method="activity", n_probes=1,
                           execution=SEGMENTED) is not None
        assert store.fetch(benchmark="CG", problem_class="T",
                           method="activity", n_probes=1,
                           execution=ExecutionConfig()) is None


class TestActivityCLI:
    def test_segmented_activity_smoke(self, capsys):
        code = main(["--class", "T", "--method", "activity",
                     "--sweep", "segmented", "--trace-cache", "plan",
                     "analyze", "CG"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CG" in out

    def test_activity_with_probes_is_a_parser_error(self):
        with pytest.raises(SystemExit):
            main(["--class", "T", "--method", "activity", "--probes", "2",
                  "analyze", "CG"])

    def test_activity_snapshot_schedule_without_segmented_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["--class", "T", "--method", "activity",
                  "--snapshot-schedule", "binomial", "analyze", "CG"])
