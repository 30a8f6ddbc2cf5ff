"""Fault injection: one deterministic chaos harness.

:class:`~repro.faults.chaos.ChaosPlan` is driven by one ``REPRO_CHAOS``
spec string (seeded injection sites for worker-kill, task failures, IO
errors, artifact corruption, slow calls and more); see
:mod:`repro.faults.chaos` for the grammar.

This module is the one place that decides which faults fire: every
injection site asks :func:`active_plan`.  That is the plan installed
by :func:`use` (the CLI's ``--chaos``; ``None`` forces chaos off), or,
with nothing installed, the plan ``REPRO_CHAOS`` asks for.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.errors import ChaosSpecError
from repro.faults.chaos import (
    SITES,
    WORKER_KILL_EXIT_CODE,
    ChaosPlan,
    ChaosSite,
    active_sites,
)

#: What each retired ``REPRO_FAULT_*`` variable became in the
#: ``REPRO_CHAOS`` grammar.
_RETIRED_VARIABLES = {
    "REPRO_FAULT_BENCHMARKS": "task-fail:match=<benchmark>",
    "REPRO_FAULT_ATTEMPTS": "task-fail:attempts=<n>",
    "REPRO_FAULT_RATE": "task-fail:rate=<p>",
    "REPRO_FAULT_DELAY": "slow-call:delay=<seconds>",
    "REPRO_FAULT_CACHE_RATE": "artifact-corrupt:rate=<p>",
    "REPRO_FAULT_SEED": "seed=<n>",
}


def plan_from_env(environ=os.environ):
    """The fault plan ``REPRO_CHAOS`` asks for, or None when unset.

    A malformed spec raises :class:`~repro.errors.ChaosSpecError` so a
    typo fails loudly at startup instead of silently disabling
    injection — and so does any retired ``REPRO_FAULT_*`` variable,
    whose stale script would otherwise silently stop injecting.
    """
    retired = sorted(name for name in environ
                     if name.startswith("REPRO_FAULT_"))
    if retired:
        hints = "; ".join(
            f"{name} -> {_RETIRED_VARIABLES.get(name, 'no equivalent')}"
            for name in retired)
        raise ChaosSpecError(
            f"{', '.join(retired)} no longer inject faults; set "
            f"REPRO_CHAOS instead ({hints})")
    spec = environ.get("REPRO_CHAOS", "").strip()
    return ChaosPlan.parse(spec) if spec else None


#: Installed plans, innermost last (``None`` = chaos off).  A module
#: global rather than a ContextVar: ``call_with_timeout`` runs each
#: attempt on a fresh thread, which must see the same plan.
_INSTALLED: List[Optional[ChaosPlan]] = []

# The parsed environment plan: (spec string, plan).  The first lookup
# always parses, so a retired REPRO_FAULT_* variable fails it loudly.
_env_cache: tuple = (None, None)


def active_plan() -> Optional[ChaosPlan]:
    """The plan every injection site obeys: the innermost one installed
    by :func:`use`, else the one ``REPRO_CHAOS`` asks for (parsed once
    per spec string), else None."""
    global _env_cache
    if _INSTALLED:
        return _INSTALLED[-1]
    spec = os.environ.get("REPRO_CHAOS", "").strip()
    if _env_cache[0] != spec:
        _env_cache = (spec, plan_from_env())
    return _env_cache[1]


@contextmanager
def use(plan: Optional[ChaosPlan]) -> Iterator[Optional[ChaosPlan]]:
    """Make *plan* the active plan for the block, whatever the
    environment says; ``use(None)`` forces chaos off."""
    _INSTALLED.append(plan)
    try:
        yield plan
    finally:
        _INSTALLED.pop()


def install(plan: Optional[ChaosPlan]) -> None:
    """Make *plan* this process's active plan for good (how a pool
    worker adopts the plan its parent shipped)."""
    _INSTALLED[:] = [plan]


def maybe_io_error(op: str, token: str = "") -> None:
    """io-error hook for serialization: a no-op without an active
    plan."""
    plan = active_plan()
    if plan is not None:
        plan.maybe_io_error(op, token)


__all__ = [
    "SITES", "WORKER_KILL_EXIT_CODE", "ChaosPlan", "ChaosSite",
    "active_plan", "active_sites", "install", "maybe_io_error",
    "plan_from_env", "use",
]
