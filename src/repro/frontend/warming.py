"""Functional warming of locality structures.

The paper measures 100M-instruction samples out of much longer
executions (and skips the first 1B instructions in its phase study), so
caches and predictors are warm when measurement starts.  This module
provides that methodology: replay a warmup trace through a cache
hierarchy and branch predictor — functionally, no pipeline — and hand
the warmed structures to profiling, execution-driven simulation or
SimPoint.

A predictor is warmed once per (warm-up trace, predictor config): the
warmed unit is kept as a template, weakly on its warm-up trace, and
every caller gets a :meth:`~repro.branch.unit.BranchPredictorUnit.clone`.
A cache sweep warms one hierarchy per geometry but its predictor once.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

from repro.config import BranchPredictorConfig, MachineConfig
from repro.frontend.functional import (  # noqa: F401 -- re-exported
    run_program_with_warmup)
from repro.frontend.trace import Trace
from repro.branch.unit import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy


def warm_locality_structures(
    warmup_trace: Optional[Trace],
    config: MachineConfig,
    hierarchy: Optional[CacheHierarchy] = None,
    predictor: Optional[BranchPredictorUnit] = None,
) -> Tuple[CacheHierarchy, BranchPredictorUnit]:
    """Build (or take) a hierarchy and predictor and functionally warm
    them on *warmup_trace* (a no-op when it is None).

    Warming statistics are reset afterwards so callers measure only the
    post-warmup window.
    """
    hierarchy = hierarchy or CacheHierarchy(config)
    if warmup_trace is not None:
        hierarchy.walk(warmup_trace)
        hierarchy.il1.reset_statistics()
        hierarchy.dl1.reset_statistics()
        hierarchy.l2.reset_statistics()
        hierarchy.itlb.reset_statistics()
        hierarchy.dtlb.reset_statistics()
        hierarchy.l2_instruction_accesses = 0
        hierarchy.l2_instruction_misses = 0
        hierarchy.l2_data_accesses = 0
        hierarchy.l2_data_misses = 0
    return hierarchy, warm_branch_predictor(warmup_trace, config.predictor,
                                            predictor)


#: warm-up trace -> predictor config -> warmed template; entries die
#: with their warm-up trace.
_TEMPLATES: "weakref.WeakKeyDictionary[Trace, Dict]" = \
    weakref.WeakKeyDictionary()


def warm_branch_predictor(warmup_trace: Optional[Trace],
                          config: BranchPredictorConfig,
                          predictor: Optional[BranchPredictorUnit] = None
                          ) -> BranchPredictorUnit:
    """Build (or take) a predictor and train it on *warmup_trace*'s
    branches: the predictor half of :func:`warm_locality_structures`,
    for callers that need no caches (the two never interact).

    Without *predictor*, the result is a private clone of the memoized
    template for (*warmup_trace*, *config*), trained on the first call.
    """
    if warmup_trace is None:
        return predictor or BranchPredictorUnit(config)
    if predictor is None:
        templates = _TEMPLATES.setdefault(warmup_trace, {})
        template = templates.get(config)
        if template is None:
            template = templates[config] = warm_branch_predictor(
                warmup_trace, config, BranchPredictorUnit(config))
        return template.clone()
    for branch in warmup_trace.branch_records().values():
        predictor.train(branch)
    return predictor
