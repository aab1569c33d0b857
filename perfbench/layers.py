"""Fold the spans of one traced run into the per-layer metrics.

Two kinds of numbers come out:

* ``<layer>.self_s`` / ``<layer>.share`` -- the layer's self time on the
  parent process's timeline (a span's duration minus the part its child
  spans cover) and its share of the traced ``wall_s``.  ``other`` is the
  rest of ``wall_s``: interpreter start, the benchmark's own code and
  anything outside a wrapped call.  The self times plus ``other`` add up
  to the traced ``wall_s`` exactly.  While a pool runs, the parent only
  waits in ``experiments.engine_run``; that wait is split by what the
  workers did meanwhile.  Each worker second counts as ``1 / workers`` of
  a wall second and goes to the layer the worker spent it in, and the
  workers' idle capacity stays with ``experiments``.
* named metrics such as ``ad.segmented_s`` or ``npb.trace_calls`` -- the
  outermost spans of one group, summed over the parent *and* every worker
  process.  On a pool workload a ``*_s`` figure can therefore exceed
  ``wall_s``.
"""

from __future__ import annotations

from collections import defaultdict

from shims import LAYERS

__all__ = ["PER_LAYER", "layer_metrics", "self_times"]

_S, _N, _F, _MB = "s", "count", "frac", "MiB"

#: every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{layer}.{kind}", _S if kind == "self_s" else _F)
      for layer in (*LAYERS, "other") for kind in ("self_s", "share")),
    ("trace.wall_s", _S), ("trace.overhead_s", _S),
    ("cli.import_s", _S),
    ("npb.create_s", _S), ("npb.forward_s", _S), ("npb.forward_steps", _N),
    ("npb.trace_s", _S), ("npb.trace_calls", _N),
    ("ad.reverse_s", _S), ("ad.tape_nodes", _N), ("ad.segmented_s", _S),
    ("ad.plan_replay_s", _S), ("ad.plan_replays", _N),
    ("ad.plan_compiles", _N), ("ad.plan_hit_ratio", _F),
    ("ad.activity_s", _S),
    ("core.scrutinize_s", _S), ("core.analyses", _N),
    ("core.store_save_s", _S), ("core.store_load_s", _S),
    ("core.store_hit_ratio", _F), ("core.store_mb", _MB),
    ("experiments.engine_run_s", _S), ("experiments.worker_busy_frac", _F),
    ("experiments.result_pickle_mb", _MB), ("experiments.retries", _N),
    ("experiments.worker_deaths", _N),
    *((f"experiments.{name}_s", _S)
      for name in ("table1", "table2", "table3", "figures", "verify")),
    ("ckpt.write_s", _S), ("ckpt.write_mb", _MB), ("ckpt.restore_s", _S),
    ("ckpt.scenario_s", _S),
)

#: named ``*_s`` metrics that are the summed outermost spans of one group
_GROUP_SECONDS = ("cli.import", "npb.create", "npb.forward", "npb.trace",
                  "ad.reverse", "ad.segmented", "ad.plan_replay",
                  "ad.activity", "core.scrutinize", "core.store_save",
                  "core.store_load", "experiments.engine_run",
                  "experiments.table1", "experiments.table2",
                  "experiments.table3", "experiments.figures",
                  "experiments.verify", "ckpt.write", "ckpt.restore",
                  "ckpt.scenario")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _process_self_times(spans: list[dict]
                        ) -> tuple[dict[str, float], dict[int, float]]:
    """Per-layer self time of one process's spans, and each span's self."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += _duration(span)
    own = {span["index"]: _duration(span) - covered[span["index"]]
           for span in spans}
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        totals[span["name"].split(".", 1)[0]] += own[span["index"]]
    return totals, own


def self_times(spans: list[dict], pid: int, wall_s: float
               ) -> dict[str, float]:
    """Self time of every layer on process ``pid``'s timeline, plus other.

    The parent's self time inside a pool's ``experiments.engine_run``
    spans is split in proportion to the workers' per-layer self times
    over the pool's capacity (``workers x`` the span's duration).
    """
    own = [s for s in spans if s["pid"] == pid]
    totals, own_self = _process_self_times(own)
    totals["other"] = wall_s - sum(_duration(s) for s in own
                                   if s["parent"] is None)

    pools = [s for s in own if s["name"] == "experiments.engine_run"
             and s.get("workers", 1) > 1]
    wait = sum(own_self[s["index"]] for s in pools)
    by_pid: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["pid"] != pid:
            by_pid[span["pid"]].append(span)
    worker = {layer: 0.0 for layer in LAYERS}
    for worker_spans in by_pid.values():
        for layer, seconds in _process_self_times(worker_spans)[0].items():
            worker[layer] += seconds
    capacity = max(sum(s["workers"] * _duration(s) for s in pools),
                   sum(worker.values()))
    if capacity > 0:
        for layer, seconds in worker.items():
            moved = wait * seconds / capacity
            totals[layer] += moved
            totals["experiments"] -= moved
    return totals


def _outermost(spans: list[dict]) -> list[dict]:
    """Spans with no ancestor of the same name in their own process."""
    by_key = {(s["pid"], s["index"]): s for s in spans}
    keep = []
    for span in spans:
        parent = span["parent"]
        while parent is not None:
            ancestor = by_key[(span["pid"], parent)]
            if ancestor["name"] == span["name"]:
                break
            parent = ancestor["parent"]
        else:
            keep.append(span)
    return keep


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, wall_s: float, overhead_s: float,
                  extra: dict[str, float]) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER` for one traced run.

    ``trace`` is :meth:`shims.Tracer.collect`'s record, ``wall_s`` the
    traced run's wall time, ``overhead_s`` the tracing overhead measured
    by the caller, and ``extra`` the values computed outside
    the spans (``core.store_mb``, ``experiments.result_pickle_mb``,
    ``experiments.retries``, ``experiments.worker_deaths``).
    """
    spans = trace["spans"]
    out: dict[str, float] = {}
    for layer, seconds in self_times(spans, trace["root_pid"],
                                     wall_s).items():
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.share"] = _ratio(seconds, wall_s)
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = overhead_s

    outer = _outermost(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in outer:
        seconds[span["name"]] += _duration(span)
        calls[span["name"]] += 1
    for group in _GROUP_SECONDS:
        out[f"{group}_s"] = seconds[group]

    def attr_sum(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    out["npb.forward_steps"] = attr_sum("npb.forward", "steps")
    out["npb.trace_calls"] = calls["npb.trace"]
    out["ad.tape_nodes"] = attr_sum("ad.reverse", "nodes")
    out["ad.plan_replays"] = calls["ad.plan_replay"]
    plan = trace["plan"]
    out["ad.plan_compiles"] = plan.get("compiles", 0)
    out["ad.plan_hit_ratio"] = _ratio(
        plan.get("hits", 0), plan.get("hits", 0) + plan.get("misses", 0))
    out["core.analyses"] = calls["core.scrutinize"]
    fetches = [s for s in spans if s["name"] == "core.store_load"]
    out["core.store_hit_ratio"] = _ratio(
        sum(1 for s in fetches if s.get("hit")), len(fetches))
    engines = [s for s in outer if s["name"] == "experiments.engine_run"]
    capacity = sum(s.get("workers", 1) * _duration(s) for s in engines)
    out["experiments.worker_busy_frac"] = _ratio(
        seconds["experiments.run_job"], capacity)
    out["ckpt.write_mb"] = attr_sum("ckpt.write", "bytes") / 2 ** 20
    out.update(extra)
    missing = [name for name, _unit in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: float(out[name]) for name, _unit in PER_LAYER}
