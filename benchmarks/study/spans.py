"""Layer self time, measured from outside the program.

Each layer is named after the module that owns its public entry points
(``core.synthesis`` for ``generate_synthetic_trace`` ...).  ``install``
replaces every ``repro.*`` module attribute that *is* one of those
functions with a timing wrapper, so ``from X import f`` binding sites
are covered too; methods are patched on their class.  Spans live on an
in-memory stack: a span's self time is its duration minus the time of
the spans it encloses, so the self times of all layers plus the
``unattributed`` remainder add up to the wall time of the study.

Nothing under ``src/`` knows about this module.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


def _simulate_layer(args, kwargs) -> str:
    from repro.cpu.source import ExecutionDrivenSource

    source = args[1] if len(args) > 1 else kwargs["source"]
    return ("cpu.pipeline.eds" if isinstance(source, ExecutionDrivenSource)
            else "cpu.pipeline")


def _sim_counts(args, kwargs, result) -> Dict[str, float]:
    return {"insts": result.instructions, "cycles": result.cycles}


def _prepared_insts(args, kwargs, result) -> Dict[str, float]:
    warm, trace = result
    return {"insts": len(warm) + len(trace)}


def _warmed_insts(args, kwargs, result) -> Dict[str, float]:
    warm = args[0] if args else kwargs.get("warmup_trace")
    return {"insts": len(warm) if warm is not None else 0}


def _profiled_insts(args, kwargs, result) -> Dict[str, float]:
    return {"insts": len(args[0] if args else kwargs["trace"])}


def _result_insts(args, kwargs, result) -> Dict[str, float]:
    return {"insts": len(result)}


def _self_insts(args, kwargs, result) -> Dict[str, float]:
    return {"insts": len(args[0])}


def _cache_lookup(args, kwargs, result) -> Dict[str, float]:
    return {"lookups": 1, "hits": int(result is not None)}


def _cache_write(args, kwargs, result) -> Dict[str, float]:
    return {"bytes_written": os.path.getsize(result) if result else 0}


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` timed as *layer*
    (a name, or a function of the call's arguments), with an optional
    function returning counter increments from the call's result."""

    layer: Any
    module: str
    qualname: str
    counts: Optional[Callable[..., Dict[str, float]]] = None


#: Every timed entry point.  A layer with an ``insts`` counter reports
#: ``ns_per_inst``; the others report ``us_per_call``.
TARGETS: Tuple[Target, ...] = (
    Target("frontend.prepare", "repro.experiments.common",
           "prepare_benchmark", _prepared_insts),
    Target("frontend.warming", "repro.frontend.warming",
           "warm_locality_structures", _warmed_insts),
    Target("core.profiler", "repro.core.profiler", "profile_trace",
           _profiled_insts),
    Target("core.reduction", "repro.core.reduction", "reduce_flow_graph"),
    Target("core.synthesis", "repro.core.synthesis",
           "generate_synthetic_trace", _result_insts),
    Target("core.synthesis", "repro.core.synthesis", "prepare_recipes"),
    Target("core.synthetic", "repro.core.synthetic",
           "SyntheticTrace.to_fetch_slots", _self_insts),
    Target("core.columnar", "repro.core.columnar",
           "generate_columnar_trace", _result_insts),
    Target("core.columnar", "repro.core.columnar", "columnar_tables_for"),
    Target("cpu.source", "repro.cpu.source", "ColumnarSource.__init__"),
    Target("cpu.source", "repro.cpu.source",
           "ExecutionDrivenSource.__init__"),
    Target(_simulate_layer, "repro.cpu.pipeline", "simulate", _sim_counts),
    Target("dse.cache", "repro.dse.cache", "ResultCache.get",
           _cache_lookup),
    Target("dse.cache", "repro.dse.cache", "ResultCache.put",
           _cache_write),
    Target("dse.engine", "repro.dse.engine", "evaluate_metrics"),
    Target("core.framework", "repro.core.framework",
           "run_execution_driven"),
    Target("core.framework", "repro.core.framework",
           "simulate_synthetic_trace"),
    Target("core.framework", "repro.core.framework",
           "simulate_columnar_trace"),
    Target("core.framework", "repro.core.framework",
           "run_statistical_simulation"),
    Target("power.wattch", "repro.power.wattch",
           "WattchPowerModel.__init__"),
    Target("power.wattch", "repro.power.wattch",
           "WattchPowerModel.energy_per_cycle"),
)

#: Every layer name, in report order.
LAYERS: Tuple[str, ...] = (
    "frontend.prepare", "frontend.warming", "core.profiler",
    "core.reduction", "core.synthesis", "core.synthetic", "core.columnar",
    "cpu.source", "cpu.pipeline", "cpu.pipeline.eds", "dse.cache",
    "dse.engine", "core.framework", "power.wattch",
)

#: Layers whose cost is reported per instruction they process.
PER_INST_LAYERS = frozenset({
    "frontend.prepare", "frontend.warming", "core.profiler",
    "core.synthesis", "core.synthetic", "core.columnar", "cpu.pipeline",
    "cpu.pipeline.eds",
})


def binding_sites(original: Any) -> List[Tuple[Any, str]]:
    """Every ``repro.*`` module attribute that is *original*."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
    return sites


def rebind(module_name: str, qualname: str,
           make: Callable[[Callable], Callable]) -> None:
    """Replace ``module_name:qualname`` by ``make(original)`` at every
    binding site, for the rest of the process.

    A plain function is replaced wherever a ``repro.*`` module holds
    it; a method (``Class.name``) is replaced on its class.  A renamed
    entry point raises instead of leaving a silent gap.
    """
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        original = owner.__dict__[attr]
        sites = [(owner, attr)]
    else:
        original = getattr(module, attr)
        sites = binding_sites(original)
    replacement = make(original)
    for owner, name in sites:
        setattr(owner, name, replacement)


class Tracer:
    """Self time, call counts, counters and span durations per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: One accumulator per open span: time covered by its children.
        self._stack: List[float] = []

    def _wrap(self, target: Target, original: Callable) -> Callable:
        layer_of = (target.layer if callable(target.layer)
                    else (lambda args, kwargs, name=target.layer: name))
        counts = target.counts
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            layer = layer_of(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self.self_s[layer] += duration - children
                self.calls[layer] += 1
                self.durations[layer].append(duration)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.counts[layer][key] += value
            return result

        return wrapper

    def install(self, targets=TARGETS) -> "Tracer":
        """Wrap every target for the rest of the process."""
        for target in targets:
            rebind(target.module, target.qualname,
                   functools.partial(self._wrap, target))
        return self

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready raw record: per layer self time, calls, counters
        and the durations of ``dse.engine`` evaluations."""
        return {
            layer: {"self_s": self.self_s.get(layer, 0.0),
                    "calls": self.calls.get(layer, 0),
                    "counts": dict(self.counts.get(layer, {})),
                    "durations": (list(self.durations.get(layer, []))
                                  if layer == "dse.engine" else [])}
            for layer in LAYERS
        }
