"""``repro.health`` — end-to-end deadlines, hang/memory containment,
and the unified degradation ladder.

Three cooperating pieces (see ``docs/robustness.md``):

* :mod:`repro.health.budget` — the :class:`HealthPolicy` /
  :class:`Budget` pair: deadline propagation with cooperative cancel
  checkpoints inside the hot loops, per-point progress heartbeats for
  the supervisor's hang watchdog, and the ``/proc/self/status`` RSS
  guardrail (soft ceiling degrades, hard ceiling fails cleanly);
* :mod:`repro.health.ladder` — per-dependency circuit breakers with an
  explicit rung table (vector→scalar, parallel→serial,
  read-write→read-bypass cache), every rung change observable as
  ``health.*`` events and metrics;
* :mod:`repro.health.canary` — the sampled runtime statistical canary
  on the vector path that auto-trips vector→scalar on drift.
"""

from repro.health.budget import (
    BEAT_INTERVAL,
    Budget,
    HealthPolicy,
    active_budget,
    check_expired,
    checkpoint,
    install_budget,
    rss_mb,
)
from repro.health.canary import maybe_check_columnar, reset_canary
from repro.health.ladder import (
    RUNGS,
    DegradationLadder,
    get_ladder,
    reset_ladder,
)

__all__ = [
    "BEAT_INTERVAL", "Budget", "HealthPolicy", "RUNGS",
    "DegradationLadder", "active_budget", "check_expired", "checkpoint",
    "get_ladder", "install_budget", "maybe_check_columnar",
    "reset_canary", "reset_ladder", "rss_mb",
]
