"""One validator for every execution knob and every analysis parameter.

:class:`ExecutionConfig` holds the allowed values and cross-knob rules of
the execution knobs; :func:`check_analysis` holds those of ``method``,
``n_probes`` and ``probe_scale``.  The tables below are the complete list
of rejected combinations: each row is checked against the validator
itself and against the CLI, which must exit 2 with exactly the
validator's message -- before any job is dispatched.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import build_parser, main
from repro.core.criticality import (CriticalityAnalyzer, ExecutionConfig,
                                    check_analysis)
from repro.experiments import ExperimentRunner
from repro.experiments.faults import FaultPolicy

_SEGMENTED_ONLY = ("snapshot_schedule/snapshot_budget/spill_dir "
                   "require sweep='segmented'")

#: (id, ExecutionConfig keywords, equivalent CLI flags, message)
EXECUTION_CASES = [
    ("unknown-sweep", dict(sweep="sideways"), None,
     "unknown sweep 'sideways'; choose from ('monolithic', 'segmented')"),
    ("unknown-probe-batching", dict(probe_batching="vectorised"), None,
     "unknown probe_batching 'vectorised'; choose from "
     "('batched', 'per-probe')"),
    ("unknown-schedule", dict(snapshot_schedule="fifo"), None,
     "unknown snapshot_schedule 'fifo'; choose from "
     "('all', 'binomial', 'spill')"),
    ("unknown-trace-cache", dict(sweep="segmented", trace_cache="maybe"),
     None, "unknown trace_cache 'maybe'; choose from ('plan', 'off')"),
    ("budget-below-2",
     dict(sweep="segmented", snapshot_schedule="binomial",
          snapshot_budget=1),
     ["--sweep", "segmented", "--snapshot-schedule", "binomial",
      "--snapshot-budget", "1"],
     "snapshot_budget must be at least 2"),
    ("budget-below-2-monolithic",
     dict(snapshot_schedule="binomial", snapshot_budget=1), None,
     "snapshot_budget must be at least 2"),
    ("trace-cache-off-monolithic", dict(trace_cache="off"),
     ["--trace-cache", "off"],
     "trace_cache='off' only affects sweep='segmented'"),
    ("schedule-monolithic", dict(snapshot_schedule="spill"),
     ["--snapshot-schedule", "spill"], _SEGMENTED_ONLY),
    ("binomial-monolithic", dict(snapshot_schedule="binomial"),
     ["--snapshot-schedule", "binomial"], _SEGMENTED_ONLY),
    ("budget-monolithic", dict(snapshot_budget=3),
     ["--snapshot-budget", "3"], _SEGMENTED_ONLY),
    ("spill-dir-monolithic", dict(spill_dir="/tmp/scratch"),
     ["--spill-dir", "/tmp/scratch"], _SEGMENTED_ONLY),
    ("budget-without-binomial",
     dict(sweep="segmented", snapshot_schedule="spill", snapshot_budget=8),
     ["--sweep", "segmented", "--snapshot-schedule", "spill",
      "--snapshot-budget", "8"],
     "snapshot_budget requires snapshot_schedule='binomial'"),
    ("spill-dir-without-spill",
     dict(sweep="segmented", snapshot_schedule="binomial",
          spill_dir="/tmp/scratch"),
     ["--sweep", "segmented", "--snapshot-schedule", "binomial",
      "--spill-dir", "/tmp/scratch"],
     "spill_dir requires snapshot_schedule='spill'"),
]

#: (id, check_analysis keywords, equivalent CLI flags, message)
ANALYSIS_CASES = [
    ("unknown-method", dict(method="jvp"), None,
     "unknown method 'jvp'; choose from "
     "('ad', 'tangent', 'activity', 'rule')"),
    ("zero-probes", dict(n_probes=0), ["--probes", "0"],
     "n_probes must be at least 1"),
    ("activity-probes", dict(method="activity", n_probes=2),
     ["--method", "activity", "--probes", "2"],
     "method='activity' is value-independent; n_probes must be 1"),
    ("nan-scale", dict(n_probes=4, probe_scale=math.nan),
     ["--probes", "4", "--probe-scale", "nan"],
     "probe_scale must be finite and positive, got nan"),
    ("zero-scale", dict(probe_scale=0.0), ["--probe-scale", "0"],
     "probe_scale must be finite and positive, got 0.0"),
    ("negative-infinite-scale", dict(probe_scale=-math.inf),
     ["--probe-scale=-inf"],
     "probe_scale must be finite and positive, got -inf"),
]

_ANALYSIS_DEFAULTS = dict(method="ad", n_probes=1, probe_scale=1.0e-3)


def _ids(cases):
    return [case[0] for case in cases]


def _with_cli(cases):
    return [case for case in cases if case[2] is not None]


def _assert_cli_rejects(flags, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--class", "T", *flags, "analyze", "CG"])
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err


class TestExecutionConfig:
    @pytest.mark.parametrize("case", EXECUTION_CASES,
                             ids=_ids(EXECUTION_CASES))
    def test_config_rejects(self, case):
        _, knobs, _flags, message = case
        with pytest.raises(ValueError) as exc:
            ExecutionConfig(**knobs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", EXECUTION_CASES,
                             ids=_ids(EXECUTION_CASES))
    def test_analyzer_inherits_the_rules(self, case):
        _, knobs, _flags, message = case
        with pytest.raises(ValueError) as exc:
            CriticalityAnalyzer(**knobs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", _with_cli(EXECUTION_CASES),
                             ids=_ids(_with_cli(EXECUTION_CASES)))
    def test_cli_exits_2_with_the_config_message(self, case, capsys):
        _, _knobs, flags, message = case
        _assert_cli_rejects(flags, message, capsys)

    def test_activity_inherits_the_rules_in_the_cli(self, capsys):
        _assert_cli_rejects(["--method", "activity", "--snapshot-schedule",
                             "binomial"], _SEGMENTED_ONLY, capsys)

    def test_spill_dir_is_not_identity(self):
        a = ExecutionConfig(sweep="segmented", snapshot_schedule="spill",
                            spill_dir="/tmp/a")
        b = ExecutionConfig(sweep="segmented", snapshot_schedule="spill")
        assert a == b and hash(a) == hash(b)
        assert "spill_dir" not in a.key_params()
        assert a.kwargs()["spill_dir"] == "/tmp/a"

    def test_removed_knobs_are_gone(self):
        for knob in ("plan_optimize", "executor"):
            with pytest.raises(TypeError):
                ExecutionConfig(**{knob: "off"})
        help_text = build_parser().format_help()
        assert "--plan-optimize" not in help_text
        assert "--executor" not in help_text


class TestAnalysisInput:
    @pytest.mark.parametrize("case", ANALYSIS_CASES,
                             ids=_ids(ANALYSIS_CASES))
    def test_check_analysis_rejects(self, case):
        _, params, _flags, message = case
        with pytest.raises(ValueError) as exc:
            check_analysis(**dict(_ANALYSIS_DEFAULTS, **params))
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", ANALYSIS_CASES,
                             ids=_ids(ANALYSIS_CASES))
    def test_analyzer_rejects(self, case):
        _, params, _flags, message = case
        with pytest.raises(ValueError) as exc:
            CriticalityAnalyzer(**params)
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", ANALYSIS_CASES,
                             ids=_ids(ANALYSIS_CASES))
    def test_pool_runner_rejects_before_dispatch(self, case, monkeypatch):
        """Bad input used to reach a pool worker, be retried and end up
        quarantined as poisoned; now the runner refuses it up front."""
        _, params, _flags, message = case
        dispatched = []
        monkeypatch.setattr(
            "repro.experiments.parallel.ParallelRunner.run",
            lambda self, jobs: dispatched.extend(jobs))
        with pytest.raises(ValueError) as exc:
            runner = ExperimentRunner(
                problem_class="T", workers=2,
                fault_policy=FaultPolicy(max_retries=0), **params)
            runner.results(["CG", "EP"])
        assert str(exc.value) == message
        assert dispatched == []

    @pytest.mark.parametrize("case", _with_cli(ANALYSIS_CASES),
                             ids=_ids(_with_cli(ANALYSIS_CASES)))
    def test_cli_exits_2_before_any_job(self, case, capsys):
        _, _params, flags, message = case
        _assert_cli_rejects(["--workers", "2", "--max-retries", "0",
                             *flags], message, capsys)
