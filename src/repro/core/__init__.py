"""The paper's contribution: element-level checkpoint-variable scrutiny.

Layering (lowest first):

* :mod:`repro.core.variables` -- checkpoint-variable descriptions and the
  restartable-application protocol;
* :mod:`repro.core.regions` -- run-length encoding of critical regions (the
  auxiliary-file records);
* :mod:`repro.core.masks` -- criticality-mask statistics and decomposition;
* :mod:`repro.core.criticality` -- the AD / activity / rule analysis;
* :mod:`repro.core.impact` -- impact scores and mixed-precision planning
  (the paper's future-work extension);
* :mod:`repro.core.report` -- Table II / Table III row generation;
* :mod:`repro.core.analysis` -- the one-call ``scrutinize`` orchestration;
* :mod:`repro.core.store` -- persistent, content-addressed cache of
  scrutiny results (the disk half of the parallel scrutiny engine).

Typical use::

    from repro.core import scrutinize
    from repro.npb import registry

    result = scrutinize(registry.create("BT"))
    print(result.describe())
"""

from .analysis import ScrutinyResult, scrutinize
from .criticality import (CriticalityAnalyzer, ExecutionConfig,
                          VariableCriticality, criticality_from_gradient,
                          element_criticality)
from .impact import (PrecisionPlan, VariableImpact, plan_precision,
                     plan_precision_for_budget, variable_impact)
from .masks import MaskSummary, summarize_mask
from .regions import Region, decode_regions, encode_mask
from .store import ResultStore, cache_key
from .variables import (CheckpointVariable, RestartableApplication,
                        VariableKind, state_nbytes, validate_state)

__all__ = [
    "VariableImpact",
    "PrecisionPlan",
    "variable_impact",
    "plan_precision",
    "plan_precision_for_budget",
    "CheckpointVariable",
    "VariableKind",
    "RestartableApplication",
    "state_nbytes",
    "validate_state",
    "Region",
    "encode_mask",
    "decode_regions",
    "MaskSummary",
    "summarize_mask",
    "VariableCriticality",
    "CriticalityAnalyzer",
    "ExecutionConfig",
    "criticality_from_gradient",
    "element_criticality",
    "ScrutinyResult",
    "scrutinize",
    "ResultStore",
    "cache_key",
]
