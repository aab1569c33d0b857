"""The benchmark's workloads (shared by run.py and its child processes).

Every workload runs with the package defaults except where a field below
says otherwise.  The NPB inputs are fixed by the problem class; the seed
drives the poison values of the restart oracle (see ``checks.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CLASS_A_PORTS", "WORKLOADS", "Workload"]

#: the ports registered for class A
CLASS_A_PORTS = ("CG", "FT", "EP", "IS", "MG", "SP")


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``kind`` is ``"paper"`` (``repro.cli ... all``: tables I-III, figures
    and verify) or ``"analyses"`` (``ExperimentRunner.results`` over
    ``ports``).  Every repetition starts with an empty result store.
    ``oracle`` names the mask check run once per invocation:
    ``"poison"`` (restart with poisoned uncritical elements) or
    ``"monolithic"`` (bitwise equality with the monolithic sweep).
    """

    name: str
    kind: str
    problem_class: str
    ports: tuple[str, ...] | None = None   # None: every registered port
    method: str = "ad"
    sweep: str = "monolithic"
    workers: int = 1
    oracle: str = "poison"


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("paper-s-cold", "paper", "S"),
    Workload("class-a-ad-pool", "analyses", "A", CLASS_A_PORTS,
             sweep="segmented", workers=2),
    Workload("class-a-activity", "analyses", "A", CLASS_A_PORTS,
             method="activity", sweep="segmented", oracle="monolithic"),
)}
