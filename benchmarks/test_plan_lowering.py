"""Plan lowering: warm replay of the fused plan, checked against the tracer.

For each coarse class-T port (the recording-bound regime where the plan
compiles within one sweep) the *warm replay* of the cached step plan --
one ``replay_step`` call, fused forward kernels plus reverse sweep over
the preallocated, liveness-packed arena -- is timed.  Gradients are
asserted bitwise-identical to the uncached tracer (``trace_cache="off"``),
fusion must engage, and the liveness-packed arena footprint is asserted
strictly smaller than the unpacked one on every measured port.  The
module is runnable standalone to emit the ``BENCH_lowering.json``
baseline consumed by ``scripts/ci_check.sh``::

    python benchmarks/test_plan_lowering.py --json BENCH_lowering.json
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.ad.plan import PlanCache
from repro.ad.segmented import segmented_gradients
from repro.npb import registry

#: the coarse class-T ports: their step plans compile within one sweep,
#: so the steady state of every probe loop is pure warm replay
MEASURED = (("BT", "T"), ("SP", "T"), ("MG", "T"), ("CG", "T"),
            ("LU", "T"))


def _bitwise(a, b, label: str) -> None:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, f"{label}: shape {a.shape} vs {b.shape}"
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
        f"{label}: bits differ"


def _warm_step_plan(bench, state):
    """Warm a cache through 3 sweeps; return (cache, cached step plan)."""
    cache = PlanCache()
    for _ in range(3):   # capture, compile, warm replay
        grads = segmented_gradients(bench, state, plan_cache=cache)
    plans = [entry.coarse_plan for entry in cache._entries.values()
             if entry.coarse_plan is not None
             and entry.coarse_plan.kind == "step"]
    assert plans, f"{bench.name}: no coarse step plan compiled"
    return cache, plans[0], grads


def measure_lowering(name: str, problem_class: str, repeats: int = 30,
                     rounds: int = 9) -> dict:
    """Warm-replay wall-clock, bitwise parity with the tracer, arena
    telemetry."""
    bench = registry.create(name, problem_class)
    state = bench.checkpoint_state(0)
    reference = segmented_gradients(bench, state, trace_cache="off")

    cache, plan, grads = _warm_step_plan(bench, state)
    for key in reference:
        _bitwise(reference[key], grads[key], f"{name} sweep[{key}]")

    cotangents = {key: np.ones(plan._shapes[slot], dtype=np.float64)
                  for key, slot in zip(plan.watch, plan._leaf_slots)}
    # best-of-N rounds: min-of-N discards rounds hit by machine load
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(repeats):
            plan.replay_step(state, cotangents)
        best = min(best, time.perf_counter() - t0)

    row = {
        "benchmark": name,
        "problem_class": problem_class,
        "replay_us": round(best * 1e6 / repeats, 2),
        "fused_ops": cache.fused_ops,
        "eliminated_slots": cache.eliminated_slots,
        "arena_nbytes": cache.arena_nbytes,
        "arena_nbytes_packed": cache.arena_nbytes_packed,
    }
    # the liveness pass must actually shrink the arena, strictly, on
    # every measured port
    assert 0 < row["arena_nbytes_packed"] < row["arena_nbytes"], row
    return row


@pytest.mark.paper
@pytest.mark.parametrize("name,problem_class", MEASURED,
                         ids=[f"{n}-{c}" for n, c in MEASURED])
def test_fused_replay_matches_tracer(benchmark, name, problem_class):
    """fused replay bitwise-identical to the tracer, fused and packed."""
    row = benchmark.pedantic(lambda: measure_lowering(name, problem_class),
                             iterations=1, rounds=1)
    benchmark.extra_info.update(row)
    assert row["fused_ops"] > 0, row


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="measure the fused warm plan replay; emit a JSON "
                    "baseline")
    parser.add_argument("--json", default="BENCH_lowering.json",
                        help="output path of the JSON baseline")
    args = parser.parse_args(argv)

    rows = []
    for name, problem_class in MEASURED:
        row = measure_lowering(name, problem_class)
        rows.append(row)
        print(f"{name}-{problem_class}: replay {row['replay_us']}us "
              f"(arena {row['arena_nbytes']} -> "
              f"{row['arena_nbytes_packed']} B, "
              f"fused_ops={row['fused_ops']})")

    with open(args.json, "w", encoding="ascii") as fh:
        json.dump({"lowering": rows}, fh, indent=1)
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
