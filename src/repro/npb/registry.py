"""Benchmark registry: the paper's Table I as code.

Maps benchmark names to their port classes and exposes the "variables
necessary for checkpointing" inventory so the experiment drivers
(:mod:`repro.experiments.table1` and friends) and the CLI can enumerate the
suite without importing every kernel module by hand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Type

from repro.core.variables import CheckpointVariable

from .base import NPBBenchmark
from .bt import BT
from .cg import CG
from .ep import EP
from .ft import FT
from .is_ import IS
from .lu import LU
from .mg import MG
from .params import params_for
from .sp import SP

__all__ = [
    "BENCHMARKS",
    "BenchmarkEntry",
    "available_benchmarks",
    "create",
    "iter_benchmarks",
    "state_elements",
    "table1_rows",
]


#: benchmark name -> port class, in the order the paper's Table I lists them
BENCHMARKS: dict[str, Type[NPBBenchmark]] = {
    "BT": BT,
    "SP": SP,
    "MG": MG,
    "CG": CG,
    "LU": LU,
    "FT": FT,
    "EP": EP,
    "IS": IS,
}


@dataclass(frozen=True)
class BenchmarkEntry:
    """One row of the Table I inventory."""

    name: str
    variables: tuple[CheckpointVariable, ...]

    @property
    def declaration(self) -> str:
        """C-style declaration list, as printed in the paper's Table I."""
        return ", ".join(str(v) for v in self.variables)


def available_benchmarks() -> tuple[str, ...]:
    """Names of all ported benchmarks, in Table I order."""
    return tuple(BENCHMARKS)


def create(name: str, problem_class: str = "S") -> NPBBenchmark:
    """Instantiate the port of benchmark ``name`` for ``problem_class``.

    Raises ``KeyError`` with the list of known names for typos, so callers
    (CLI, experiment drivers) produce an actionable message.
    """
    key = name.upper()
    if key not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"known: {', '.join(BENCHMARKS)}")
    return BENCHMARKS[key](problem_class=problem_class)


@functools.lru_cache(maxsize=None)
def state_elements(name: str, problem_class: str = "S") -> int:
    """Elements in the checkpoint state of ``name`` at ``problem_class``.

    Every port derives its Table I inventory from its parameters alone, so
    this reads it off a port that skips its constructor's set-up (FT's
    alone builds DFT matrices and an initial spectrum).  Raises like
    :func:`create` for unknown names and classes.
    """
    port = BENCHMARKS.get(name.upper())
    if port is None:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"known: {', '.join(BENCHMARKS)}")
    bare = port.__new__(port)
    NPBBenchmark.__init__(bare, params_for(port.name, problem_class))
    return sum(math.prod(v.shape) for v in bare.checkpoint_variables())


def iter_benchmarks(problem_class: str = "S",
                    names: Sequence[str] | None = None
                    ) -> Iterator[NPBBenchmark]:
    """Yield instantiated ports (all of them, or the subset in ``names``)."""
    for name in (names or available_benchmarks()):
        yield create(name, problem_class)


def table1_rows(problem_class: str = "S") -> list[BenchmarkEntry]:
    """The Table I inventory: benchmark name -> checkpoint variables."""
    rows = []
    for bench in iter_benchmarks(problem_class):
        rows.append(BenchmarkEntry(bench.name,
                                   tuple(bench.checkpoint_variables())))
    return rows
