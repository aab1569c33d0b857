"""Tests of the benchmark's own machinery (tracer shims and layer split).

Not part of the tier-1 suite (``pytest.ini`` collects ``tests`` and
``benchmarks`` only); run with ``python3 -m pytest perfbench -q`` from the
repository root.  They use class T, so they finish in seconds.
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import shims  # noqa: E402
from repro.experiments import ExperimentRunner  # noqa: E402

PORTS = ("CG", "EP")


def _snapshot() -> dict:
    """Identity of every attribute of the package's modules and classes."""
    import repro.cli  # noqa: F401 - load every layer

    seen = {}
    for module in shims._repro_modules():
        for name, value in vars(module).items():
            seen[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == \
                    module.__name__:
                for attr, member in vars(value).items():
                    seen[(module.__name__, name, attr)] = member
    return seen


def _analyse(tmp_path: Path, tracer: shims.Tracer | None):
    runner = ExperimentRunner(problem_class="T", sweep="segmented",
                              workers=2, cache_dir=tmp_path / "store")
    start = time.perf_counter()
    if tracer is None:
        results = runner.results(PORTS)
    else:
        with shims.installed(tracer):
            results = runner.results(PORTS)
    return results, time.perf_counter() - start


def test_shims_are_uninstalled_afterwards(tmp_path):
    from repro.ad import reverse

    before = _snapshot()
    late = types.ModuleType("repro._late_import")
    tracer = shims.Tracer(tmp_path / "spans")
    try:
        with shims.installed(tracer):
            during = _snapshot()
            # a module imported while the shims are in place copies a wrapper
            late.backward = reverse.backward
            sys.modules[late.__name__] = late
        assert late.backward is before[("repro.ad.reverse", "backward")]
    finally:
        sys.modules.pop(late.__name__, None)
    after = _snapshot()
    changed = [key for key in before if during.get(key) is not before[key]]
    assert len(changed) >= len(shims.TARGETS)
    assert [key for key in before if after.get(key) is not before[key]] == []


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    plain, _ = _analyse(tmp_path_factory.mktemp("plain"), None)
    spill = tmp_path_factory.mktemp("traced")
    tracer = shims.Tracer(spill / "spans")
    traced, wall = _analyse(spill, tracer)
    return plain, traced, tracer.collect(), wall


def test_traced_and_untraced_masks_are_identical(runs):
    plain, traced, _trace, _wall = runs
    assert {n: checks.mask_digest(r) for n, r in plain.items()} == \
        {n: checks.mask_digest(r) for n, r in traced.items()}


def test_pool_workers_report_their_spans(runs):
    _plain, _traced, trace, _wall = runs
    worker_jobs = [s for s in trace["spans"]
                   if s["pid"] != trace["root_pid"]
                   and s["name"] == "experiments.run_job"]
    assert len(worker_jobs) == len(PORTS)
    assert {s["name"] for s in trace["spans"]} >= {
        "experiments.engine_run", "core.scrutinize", "ad.segmented",
        "npb.trace", "core.store_save"}


def test_layer_self_times_and_other_add_up_to_wall(runs):
    _plain, _traced, trace, wall = runs
    extra = {"core.store_mb": 0.0, "experiments.result_pickle_mb": 0.0,
             "experiments.retries": 0, "experiments.worker_deaths": 0}
    metrics = layers.layer_metrics(trace, wall, 0.0, extra)
    parts = [metrics[f"{layer}.self_s"]
             for layer in (*shims.LAYERS, "other")]
    assert all(part >= 0.0 for part in parts)
    assert sum(parts) == pytest.approx(metrics["trace.wall_s"], abs=1e-9)
    assert sum(metrics[f"{layer}.share"]
               for layer in (*shims.LAYERS, "other")) == pytest.approx(1.0)
    assert metrics["core.analyses"] == len(PORTS)
    # the sweeps ran only in the pool workers; their share reaches the split
    assert metrics["ad.self_s"] > 0.0 and metrics["npb.self_s"] > 0.0
    assert [name for name, _unit in layers.PER_LAYER] == list(metrics)


def test_self_times_subtract_children():
    spans = [
        {"name": "experiments.engine_run", "pid": 1, "index": 0,
         "parent": None, "start": 1.0, "end": 5.0},
        {"name": "core.scrutinize", "pid": 1, "index": 1, "parent": 0,
         "start": 2.0, "end": 4.0},
        {"name": "npb.forward", "pid": 1, "index": 2, "parent": 1,
         "start": 2.5, "end": 3.0},
        {"name": "npb.forward", "pid": 2, "index": 0, "parent": None,
         "start": 1.0, "end": 9.0},
    ]
    split = layers.self_times(spans, pid=1, wall_s=6.0)
    assert split["experiments"] == pytest.approx(2.0)
    assert split["core"] == pytest.approx(1.5)
    assert split["npb"] == pytest.approx(0.5)
    assert split["other"] == pytest.approx(2.0)


def test_pool_wait_is_split_by_the_workers_self_times():
    spans = [
        {"name": "experiments.engine_run", "pid": 1, "index": 0,
         "parent": None, "start": 1.0, "end": 5.0, "workers": 2},
        {"name": "core.store_save", "pid": 1, "index": 1, "parent": 0,
         "start": 4.0, "end": 4.5},
        {"name": "experiments.run_job", "pid": 2, "index": 0,
         "parent": None, "start": 1.5, "end": 4.5},
        {"name": "ad.segmented", "pid": 2, "index": 1, "parent": 0,
         "start": 2.0, "end": 4.0},
        {"name": "experiments.run_job", "pid": 3, "index": 0,
         "parent": None, "start": 1.5, "end": 3.5},
        {"name": "npb.forward", "pid": 3, "index": 1, "parent": 0,
         "start": 2.0, "end": 3.0},
    ]
    split = layers.self_times(spans, pid=1, wall_s=6.0)
    # 3.5 s of parent wait over 2 workers x 4 s of capacity
    scale = 3.5 / 8.0
    assert split["ad"] == pytest.approx(2.0 * scale)
    assert split["npb"] == pytest.approx(1.0 * scale)
    assert split["core"] == pytest.approx(0.5)
    assert split["experiments"] == pytest.approx(3.5 - 3.0 * scale)
    assert split["other"] == pytest.approx(2.0)
    assert sum(split.values()) == pytest.approx(6.0)
