"""One child process of the benchmark, started by ``run.py``.

``--role setup`` imports ``repro.cli`` and constructs the workload's
benchmarks, then stops.  ``--role rep`` runs the workload once.  Either
way the process writes one JSON record to ``--out`` whose ``t_end`` is the
:func:`time.perf_counter` reading when the measured part ended; `run.py`
took its own reading just before starting the process, and on Linux both
read the same monotonic clock, so the difference is the time from
interpreter start.  Correctness checks run after ``t_end`` and after the
peak resident set has been read.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import pickle
import resource
import time
from pathlib import Path

from shims import Tracer, installed
from workloads import WORKLOADS, Workload


def _setup(workload: Workload) -> dict:
    import repro.cli  # noqa: F401 - the import is what is measured
    from repro.experiments import ExperimentRunner
    from repro.npb import registry

    runner = ExperimentRunner(problem_class=workload.problem_class)
    for name in workload.ports or registry.available_benchmarks():
        runner.benchmark(name)
    return {"t_end": time.perf_counter()}


@contextlib.contextmanager
def _capturing(reports: list, runners: list):
    """Keep the report (and runner) of every experiment ``all`` runs."""
    from repro.experiments import figures, table1, table2, table3, verify

    entries = [(table1, "run"), (table2, "run"), (table3, "run"),
               (figures, "run_all"), (verify, "run")]
    originals = [getattr(module, attr) for module, attr in entries]

    def capture(fn):
        def run(*args, **kwargs):
            report = fn(*args, **kwargs)
            reports.append(report)
            runners.append(args[0] if args else kwargs["runner"])
            return report
        return run

    for (module, attr), fn in zip(entries, originals):
        setattr(module, attr, capture(fn))
    try:
        yield
    finally:
        for (module, attr), fn in zip(entries, originals):
            setattr(module, attr, fn)


def _workload(workload: Workload, cache_dir: Path, stdout: Path,
              runners: list):
    import repro.cli
    from repro.experiments import ExperimentRunner

    if workload.kind == "paper":
        with open(stdout, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            repro.cli.main(["--cache-dir", str(cache_dir), "all"])
        return None
    runner = ExperimentRunner(problem_class=workload.problem_class,
                              method=workload.method, sweep=workload.sweep,
                              workers=workload.workers, cache_dir=cache_dir)
    runners.append(runner)
    return runner.results(workload.ports)


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of any reaped pool worker."""
    deadline = time.monotonic() + 60.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*")
               if p.is_file()) / 2 ** 20


def _trace_record(tracer: Tracer, cache_dir: Path) -> dict:
    """Spans as JSON plus the figures computed outside the spans."""
    trace = tracer.collect()
    engines: dict[int, object] = {}
    pickled = 0
    for span in trace["spans"]:
        engine = span.pop("engine", None)
        results = span.pop("results", None)
        if engine is None:
            continue
        engines[id(engine)] = engine
        if span["workers"] > 1:
            # what the pool shipped back: each result carries its state
            pickled += sum(len(pickle.dumps(r)) for r in results)
    trace["extra"] = {
        "core.store_mb": _dir_mb(cache_dir) if cache_dir.exists() else 0.0,
        "experiments.result_pickle_mb": pickled / 2 ** 20,
        "experiments.retries": sum(e.stats.retries for e in engines.values()),
        "experiments.worker_deaths": sum(e.stats.worker_deaths
                                         for e in engines.values()),
    }
    return trace


def _rep(workload: Workload, args: argparse.Namespace) -> dict:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(workdir / "spans") if args.trace else None
    with tracer.span("cli.import") if tracer else contextlib.nullcontext():
        import repro.cli  # noqa: F401 - CLI import is part of every run

    reports: list = []
    runners: list = []
    with contextlib.ExitStack() as stack:
        if workload.kind == "paper":
            stack.enter_context(_capturing(reports, runners))
        if tracer is not None:
            stack.enter_context(installed(tracer))
        results = _workload(workload, Path(args.cache_dir),
                            workdir / "stdout.txt", runners)
        t_end = time.perf_counter()
    record = {"t_end": t_end, "rss_mb": _peak_rss_mb()}
    if tracer is not None:
        record["trace"] = _trace_record(tracer, Path(args.cache_dir))

    import checks
    from repro.npb import registry

    runner = runners[0]
    if results is None:
        results = runner.results(registry.available_benchmarks())
    ops = checks.result_ops(results)
    if workload.kind == "paper":
        ops += checks.report_ops(reports)
    if args.oracle and workload.oracle == "poison":
        ops += checks.poison_ops(runner, results, args.seed)
    elif args.oracle:
        ops += checks.monolithic_ops(results, workload.problem_class,
                                     workload.method)
    record["ops"] = ops
    record["ports"] = {name: {"digest": checks.mask_digest(r),
                              "full_nbytes": r.full_nbytes,
                              "pruned_nbytes": r.pruned_nbytes}
                       for name, r in results.items() if r.ok}
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "rep"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    record = _setup(workload) if args.role == "setup" \
        else _rep(workload, args)
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main()
