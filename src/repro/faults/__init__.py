"""Fault injection: one deterministic chaos harness.

:class:`~repro.faults.chaos.ChaosPlan` is driven by one ``REPRO_CHAOS``
spec string (seeded injection sites for worker-kill, task failures, IO
errors, artifact corruption, slow calls and more); see
:mod:`repro.faults.chaos` for the grammar.  :func:`plan_from_env`
builds the plan the environment asks for, and :func:`maybe_io_error`
is the hook for call sites that have no plan to thread through.
"""

from __future__ import annotations

import os

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


# Cache the parsed environment plan for the hot module-level hook
# below: (spec string, parsed plan).
_env_cache: tuple = ("", None)


def maybe_io_error(op: str, token: str = "") -> None:
    """Module-level io-error hook for call sites without a plan.

    Serialization (:func:`repro.core.serialization.save_profile` /
    ``load_profile``) has no fault-plan parameter to thread through;
    this consults ``REPRO_CHAOS`` directly (parsed once per spec) and
    is a no-op when unset — the common, production case costs one dict
    lookup.
    """
    global _env_cache
    spec = os.environ.get("REPRO_CHAOS", "").strip()
    if not spec:
        return
    if _env_cache[0] != spec:
        _env_cache = (spec, ChaosPlan.parse(spec))
    plan = _env_cache[1]
    if plan is not None:
        plan.maybe_io_error(op, token)


__all__ = [
    "SITES", "WORKER_KILL_EXIT_CODE", "ChaosPlan", "ChaosSite",
    "active_sites", "maybe_io_error", "plan_from_env",
]
