"""Span tracer installed from outside the package.

``installed`` wraps the public functions of the six layers of ``repro``
(``cli``, ``npb``, ``ad``, ``core``, ``experiments`` and ``ckpt``) so that
every call records a span: its name, start, end, parent span, process id
and a few per-call attributes (steps advanced, tape nodes, bytes written,
store hit).  Nothing under ``src/`` is edited: the shims replace module and
class attributes when installed and put the originals back when
uninstalled.

Forked pool workers inherit the installed shims.  A worker keeps its own
span list and appends it to ``<spill_dir>/spans-<pid>.jsonl`` each time its
outermost span closes, because a worker may be gone before the parent
could ask it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = ["LAYERS", "TARGETS", "Target", "Tracer", "installed"]

#: the package's layers, in the order the reports list them
LAYERS = ("cli", "npb", "ad", "core", "experiments", "ckpt")

_NPB = "repro.npb.base"


def _steps(args, result) -> dict:
    return {"steps": int(args["steps"])}


def _tape_nodes(args, result) -> dict:
    return {"nodes": len(args["tape"])}


def _written(args, result) -> dict:
    return {"bytes": int(result.nbytes)}


def _store_hit(args, result) -> dict:
    return {"hit": result is not None}


def _engine(args, result) -> dict:
    return {"workers": int(args["self"].workers), "engine": args["self"],
            "results": result}


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``qualname`` is ``"func"`` for a module-level function or
    ``"Class.method"`` for a method.  ``span`` is ``"<layer>.<group>"``;
    several targets may share a group.  ``measure`` maps the bound call
    arguments and the result to span attributes; it runs after the clock
    stops.  A call made while a span named in ``skip_inside`` is open
    records nothing (a forward run inside a trace is tracing, not forward
    work).  ``span=None`` marks a constructor whose instances the tracer
    keeps instead of timing.
    """

    module: str
    qualname: str
    span: str | None
    measure: Callable[[dict, Any], dict] | None = None
    skip_inside: tuple[str, ...] = ()


_FORWARD = dict(skip_inside=("npb.trace",))

TARGETS: tuple[Target, ...] = (
    Target("repro.cli", "main", "cli.main"),
    Target("repro.npb.registry", "create", "npb.create"),
    Target(_NPB, "NPBBenchmark.run", "npb.forward", _steps, **_FORWARD),
    Target(_NPB, "NPBBenchmark.checkpoint_state", "npb.forward", **_FORWARD),
    Target(_NPB, "NPBBenchmark.restart_output", "npb.forward", **_FORWARD),
    *(Target(_NPB, f"NPBBenchmark.{name}", "npb.trace")
      for name in ("traced_restart", "traced_step", "traced_output",
                   "traced_restart_probes", "traced_step_probes",
                   "traced_output_probes")),
    Target("repro.ad.reverse", "backward", "ad.reverse", _tape_nodes),
    Target("repro.ad.reverse", "backward_from_seeds", "ad.reverse",
           _tape_nodes),
    Target("repro.ad.segmented", "segmented_gradients", "ad.segmented"),
    *(Target("repro.ad.plan", f"CompiledPlan.{name}", "ad.plan_replay")
      for name in ("replay_step", "replay_output", "replay_concrete")),
    Target("repro.ad.activity", "replay_step_masks", "ad.plan_replay"),
    Target("repro.ad.activity", "replay_output_masks", "ad.plan_replay"),
    Target("repro.ad.plan", "PlanCache.__init__", None),
    Target("repro.ad.activity", "segmented_read_masks", "ad.activity"),
    Target("repro.ad.activity", "read_masks", "ad.activity"),
    Target("repro.core.analysis", "scrutinize", "core.scrutinize"),
    Target("repro.core.store", "ResultStore.save", "core.store_save"),
    Target("repro.core.store", "ResultStore.fetch", "core.store_load",
           _store_hit),
    Target("repro.experiments.parallel", "ParallelRunner.run",
           "experiments.engine_run", _engine),
    Target("repro.experiments.parallel", "run_job", "experiments.run_job"),
    *(Target(f"repro.experiments.{name}", "run", f"experiments.{name}")
      for name in ("table1", "table2", "table3", "verify")),
    Target("repro.experiments.figures", "run_all", "experiments.figures"),
    Target("repro.ckpt.writer", "write_full_checkpoint", "ckpt.write",
           _written),
    Target("repro.ckpt.writer", "write_pruned_checkpoint", "ckpt.write",
           _written),
    Target("repro.ckpt.restart", "restore_state", "ckpt.restore"),
    Target("repro.ckpt.failure", "run_failure_scenario", "ckpt.scenario"),
)


class Tracer:
    """In-memory span recorder shared by every installed shim.

    Spans are dicts ``{"name", "pid", "index", "parent", "start", "end"}``
    plus the target's measured attributes; ``parent`` is the ``index`` of
    the enclosing span of the same process, or ``None``.  Times come from
    :func:`time.perf_counter`, the system-wide monotonic clock on Linux,
    so spans of different processes share one time axis.
    """

    def __init__(self, spill_dir: str | Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.plan_caches: list[Any] = []
        self.plan: dict[str, int] = {}
        self._flushed = 0

    def _own_process(self) -> None:
        # a forked worker starts with a copy of the parent's open spans
        if os.getpid() != self.pid:
            self._reset()

    def _open(self, name: str) -> dict:
        span = {"name": name, "pid": self.pid, "index": len(self.spans),
                "parent": self.stack[-1] if self.stack else None,
                "start": 0.0, "end": 0.0}
        self.spans.append(span)
        self.stack.append(span["index"])
        return span

    def _close(self, span: dict) -> None:
        self.stack.pop()
        if span["name"] == "core.scrutinize":
            # an analysis's plan caches die with it; holding them longer
            # would raise the traced run's memory
            self._harvest_plan_caches()
        if not self.stack and self.pid != self.root_pid:
            self._flush()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        self._own_process()
        span = self._open(name)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._close(span)

    def call(self, target: Target, fn: Callable, sig: inspect.Signature,
             args: tuple, kwargs: dict) -> Any:
        self._own_process()
        if target.skip_inside and any(self.spans[i]["name"]
                                      in target.skip_inside
                                      for i in self.stack):
            return fn(*args, **kwargs)
        span = self._open(target.span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["end"] = time.perf_counter()
            self._close(span)
            raise
        span["end"] = time.perf_counter()
        if target.measure is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.update(target.measure(bound.arguments, result))
        self._close(span)
        return result

    def register_plan_cache(self, cache: Any) -> None:
        self._own_process()
        self.plan_caches.append(cache)

    def _harvest_plan_caches(self) -> None:
        for cache in self.plan_caches:
            for key, value in cache.counters().items():
                self.plan[key] = self.plan.get(key, 0) + int(value)
        self.plan_caches.clear()

    def _plan_counters(self) -> dict[str, int]:
        """Counters of every plan cache since the last call (then reset)."""
        self._harvest_plan_caches()
        totals, self.plan = self.plan, {}
        return totals

    def _flush(self) -> None:
        """Append this worker's unwritten spans to its spill file."""
        new = self.spans[self._flushed:]
        self._flushed = len(self.spans)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": new,
                                 "plan": self._plan_counters()}) + "\n")

    def collect(self) -> dict:
        """Every span of this process and of its workers, plus counters.

        Returns ``{"root_pid", "spans", "plan"}``; the parent's spans keep
        their ``engine``/``results`` attributes (live objects, not JSON).
        """
        spans = list(self.spans)
        plan = self._plan_counters()
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                batch = json.loads(line)
                spans.extend(batch["spans"])
                for key, value in batch["plan"].items():
                    plan[key] = plan.get(key, 0) + value
        return {"root_pid": self.root_pid, "spans": spans, "plan": plan}


@dataclass
class _Installation:
    wrappers: dict[int, tuple[Callable, Callable]] = field(
        default_factory=dict)   # id(wrapper) -> (wrapper, original)
    patched: list[tuple[Any, str, Any]] = field(default_factory=list)


def _wrapper(tracer: Tracer, target: Target, original: Callable
             ) -> Callable:
    if target.span is None:
        @functools.wraps(original)
        def register(self, *args, **kwargs):
            original(self, *args, **kwargs)
            tracer.register_plan_cache(self)
        return register

    sig = inspect.signature(original)

    @functools.wraps(original)
    def shim(*args, **kwargs):
        return tracer.call(target, original, sig, args, kwargs)
    return shim


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _install(tracer: Tracer, targets: tuple[Target, ...]) -> _Installation:
    inst = _Installation()
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            wrapper = _wrapper(tracer, target, original)
            holders = [(owner, attr)]
        else:
            original = getattr(module, attr)
            wrapper = _wrapper(tracer, target, original)
            # ``from module import name`` copies the reference: replace it
            # wherever a loaded module of the package holds it
            holders = [(mod, name) for mod in _repro_modules()
                       for name, value in list(vars(mod).items())
                       if value is original]
        inst.wrappers[id(wrapper)] = (wrapper, original)
        for holder, name in holders:
            setattr(holder, name, wrapper)
            inst.patched.append((holder, name, original))
    return inst


def _uninstall(inst: _Installation) -> None:
    for holder, attr, original in reversed(inst.patched):
        setattr(holder, attr, original)
    # a module imported while the shims were in place copied a wrapper
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            pair = inst.wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, name, pair[1])


@contextlib.contextmanager
def installed(tracer: Tracer, targets: tuple[Target, ...] = TARGETS):
    """Install the shims for the duration of the block."""
    inst = _install(tracer, targets)
    try:
        yield inst
    finally:
        _uninstall(inst)
