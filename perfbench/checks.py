"""Correctness checks on the outputs of one workload run.

Each check is an *operation* with a verdict ``{"op", "ok", "detail"}``;
``run.py`` counts them into ``ok_frac``.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["POISONS", "mask_digest", "monolithic_ops", "poison_ops",
           "report_ops", "result_ops"]

#: values written into the uncritical float elements by the restart
#: oracle; NaN always, plus one of the others chosen by the seed per port
POISONS = (np.nan, np.inf, -np.inf, 1e300)


def mask_digest(result) -> str:
    """SHA-256 over every variable's name, shape and packed mask bits."""
    h = hashlib.sha256()
    for name, crit in result.variables.items():
        mask = np.asarray(crit.mask, dtype=bool)
        h.update(f"{name}:{mask.shape};".encode())
        h.update(np.packbits(mask, axis=None).tobytes())
    return h.hexdigest()


def result_ops(results: dict) -> list[dict]:
    """One operation per port analysis: it must not be a failure marker."""
    return [{"op": f"analysis:{name}", "ok": result.ok,
             "detail": "" if result.ok else result.failure.describe()}
            for name, result in results.items()]


def report_ops(reports: list) -> list[dict]:
    """Paper comparisons and restart scenarios of an ``all`` run.

    Every report must match the paper, every verify scenario must pass and
    the negative control (critical elements dropped) must fail.
    """
    ops = [{"op": f"report:{r.name}", "ok": bool(r.matches_paper),
            "detail": ""} for r in reports]
    expected = ("table1", "table2", "table3", "figures", "verify")
    names = [r.name for r in reports]
    missing = [name for name in expected if name not in names]
    ops.append({"op": "report:all-present", "ok": not missing,
                "detail": f"missing {missing}" if missing else ""})
    for report in reports:
        if report.name != "verify":
            continue
        for scenario in report.data["scenarios"]:
            ops.append({"op": f"verify:{scenario.benchmark}",
                        "ok": bool(scenario.verification_passed),
                        "detail": scenario.summary()})
        negative = report.data["negative_control"]
        ops.append({"op": "verify:negative-control",
                    "ok": negative is not None
                    and not negative.verification_passed,
                    "detail": "" if negative is None else negative.summary()})
    return ops


def _poisoned(state: dict, result, value: float) -> dict:
    from repro.core.variables import VariableKind

    poisoned = dict(state)
    for crit in result.variables.values():
        if crit.variable.kind is VariableKind.INTEGER:
            continue
        for key in crit.variable.state_keys():
            arr = np.array(poisoned[key], copy=True)
            arr[~np.asarray(crit.mask, dtype=bool)] = value
            poisoned[key] = arr
    return poisoned


def poison_ops(runner, results: dict, seed: int) -> list[dict]:
    """The bitwise poison-restart oracle, one operation per port.

    Writes NaN, and then a seed-chosen one of +Inf, -Inf and 1e300, into
    every uncritical float element of the checkpoint state; each restart
    output must be bitwise equal to the restart from the intact state.
    """
    ops = []
    for index, (name, result) in enumerate(sorted(results.items())):
        bench = runner.benchmark(name)
        rng = np.random.default_rng([seed, index])
        values = (POISONS[0], POISONS[1 + int(rng.integers(3))])
        with np.errstate(all="ignore"):
            reference = np.asarray(bench.restart_output(result.state))
            bad = [v for v in values if np.asarray(bench.restart_output(
                _poisoned(result.state, result, v))).tobytes()
                != reference.tobytes()]
        ops.append({"op": f"poison:{name}", "ok": not bad,
                    "detail": f"poison {values}; differs for {bad}"
                    if bad else f"poison {values}"})
    return ops


def monolithic_ops(results: dict, problem_class: str, method: str
                   ) -> list[dict]:
    """Masks must equal the monolithic tape walk's bit for bit."""
    from repro.experiments import ExperimentRunner

    reference = ExperimentRunner(problem_class=problem_class, method=method,
                                 sweep="monolithic").results(list(results))
    return [{"op": f"monolithic:{name}",
             "ok": mask_digest(result) == mask_digest(reference[name]),
             "detail": ""} for name, result in results.items()]
