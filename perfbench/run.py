"""End-to-end benchmark of the scrutiny package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-s-cold --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py``) runs in fresh child processes, one per
repetition, until ``--seconds`` of repetitions have been measured; the
end-to-end metrics are medians over the repetitions.  ``--trace 0`` reports
the end-to-end metrics with tracing off.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
median traced one (``layers.py``), and as the tracing overhead the median
difference between each traced repetition and the untraced one just
before it.

Every repetition's outputs are checked (``checks.py``) and every mask
digest must equal ``expected_masks.json``; the mask oracle runs on the
first repetition.  All metrics are printed by name with their unit,
followed by one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 2 when the package source is missing and
1 when a child process fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import PER_LAYER, layer_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: set-up probes per run; the median discards the first probe of a fresh
#: checkout, which compiles the bytecode cache, and probes caught in a slow
#: stretch of the machine
SETUP_PROBES = 9
#: fewest untraced repetitions a ``--trace 0`` run takes, so that its
#: median discards an outlier
MIN_REPS = 3
#: fewest untraced/traced pairs a ``--trace 1`` run takes, so that the
#: median overhead discards an outlying pair
MIN_PAIRS = 3
#: ceiling on one child process (a run must end within 180 s)
CHILD_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("ckpt_saved_frac", "frac"), ("ok_frac", "frac"))

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    """A child process exited non-zero or ran past its timeout."""


def environment() -> dict:
    """What the numbers depend on; BLAS/OpenMP threads are left unpinned."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
            "numba": importlib.util.find_spec("numba") is not None,
            "commit": commit}


def _child(role: str, workload: Workload, work: Path, tag: str,
           **options) -> dict:
    """Run one child process; returns its record plus ``wall_s``."""
    out = work / f"{tag}.json"
    log = work / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "child.py"), "--role", role,
           "--workload", workload.name, "--out", str(out),
           "--workdir", str(work / tag)]
    for key, value in options.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        # a process group of its own, so that pool workers go down with it
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=fh,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:   # timeout, interrupt, termination
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ChildFailed(f"{tag} ran past {CHILD_TIMEOUT_S:g} s") \
                    from exc
            raise
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8")[-3000:]
        raise ChildFailed(f"{tag} exited {proc.returncode}:\n{tail}")
    record = json.loads(out.read_text(encoding="utf-8"))
    record["wall_s"] = record["t_end"] - start
    return record


def _rep(workload: Workload, work: Path, index: int, seed: int,
         trace: int) -> dict:
    tag = f"rep{index}-{'traced' if trace else 'plain'}"
    return _child("rep", workload, work, tag,
                  cache_dir=work / f"{tag}-store", seed=seed, trace=trace,
                  oracle=int(index == 0))


def _digest_ops(rep: dict, expected: dict) -> list:
    ops = []
    for port, digest in sorted(expected.items()):
        got = rep["ports"].get(port, {}).get("digest")
        ops.append({"op": f"masks:{port}", "ok": got == digest,
                    "detail": "" if got == digest
                    else f"digest {got} != expected {digest}"})
    return ops


def measure(workload: Workload, seed: int, seconds: float, trace: int,
            work: Path) -> tuple[list[dict], dict[str, float]]:
    """Run the workload; returns (checked operations, metrics)."""
    expected = json.loads((HERE / "expected_masks.json").read_text())
    setup: list[float] = []

    def probe_setup() -> None:
        record = _child("setup", workload, work, f"setup{len(setup)}")
        setup.append(record["wall_s"])

    plain: list[dict] = []
    traced: list[dict] = []
    measured = 0.0
    # a traced run ends on a traced repetition, so that each has a partner
    while measured < seconds or (
            (len(traced) < MIN_PAIRS or len(plain) > len(traced)) if trace
            else len(plain) < MIN_REPS):
        # the probes are spread over the run like the repetitions, so
        # that both sample the same stretch of machine speed
        due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * measured / seconds))
        while not trace and len(setup) < due:
            probe_setup()
        use_trace = int(trace and len(traced) < len(plain))
        rep = _rep(workload, work, len(plain) + len(traced), seed,
                   use_trace)
        (traced if use_trace else plain).append(rep)
        measured += rep["wall_s"]

    while not trace and len(setup) < SETUP_PROBES:
        probe_setup()

    ops = []
    for rep in plain + traced:
        ops += rep["ops"] + _digest_ops(rep, expected[workload.name])
    if not trace:
        ports = plain[0]["ports"].values()
        full = sum(p["full_nbytes"] for p in ports)
        pruned = sum(p["pruned_nbytes"] for p in ports)
        failed = sum(1 for op in ops if not op["ok"])
        return ops, {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "ckpt_saved_frac": 1.0 - pruned / full,
            "ok_frac": (len(ops) - failed) / len(ops),
        }
    walls = [r["wall_s"] for r in traced]
    chosen = traced[walls.index(statistics.median_low(walls))]
    # each traced repetition ran right after its untraced partner, so the
    # pair shares a stretch of machine speed
    overhead = statistics.median(t["wall_s"] - p["wall_s"]
                                 for p, t in zip(plain, traced))
    return ops, layer_metrics(chosen["trace"], chosen["wall_s"], overhead,
                              chosen["trace"]["extra"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn termination into an exception, so children are killed and the
    # scratch directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}/repro; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("environment:", json.dumps(environment()))

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    (work / "tmp").mkdir()
    try:
        ops, metrics = measure(workload, args.seed, args.seconds,
                               args.trace, work)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass   # another run still uses it

    units = dict(PER_LAYER if args.trace else END_TO_END)
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {op['op']}: {op['detail']}")
    print(f"{workload.name} (seed {args.seed}, trace {args.trace}):")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    failed = sum(1 for op in ops if not op["ok"])
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
