"""Deterministic chaos injection (``REPRO_CHAOS``).

One spec string enables seeded fault injection at every breakable
layer of the stack, so the supervision/retry/quarantine machinery can
be exercised systematically instead of through scattered one-off
hooks.  The injection *sites*:

``worker-kill``
    ``os._exit`` a design-space pool worker right before it runs a
    task (models segfaults and OOM kills; drives the
    :class:`~repro.dse.supervisor.PoolSupervisor` recovery path).
    Only ever fired inside pool worker processes — a serial sweep has
    no worker to kill, which is exactly what makes the supervisor's
    serial fallback able to finish a sweep the pool cannot.
``task-fail``
    Raise a retryable :class:`~repro.errors.InjectedFaultError` inside
    a task attempt.
``io-error``
    Raise :class:`~repro.errors.InjectedIOError` (an ``OSError``) at a
    filesystem boundary: profile save/load, result-cache read/write.
``artifact-corrupt``
    Garble a freshly written cache entry on disk, exercising the
    checksum-verify-and-discard path.
``slow-call``
    Sleep ``delay`` seconds before a task attempt (timeout testing).
``worker-hang``
    Spin a pool worker forever right before it runs a task — alive,
    consuming a slot, making no progress and writing no heartbeats.
    The canary for the :class:`~repro.dse.supervisor.PoolSupervisor`
    hang watchdog (:mod:`repro.health`): the stale lease beat gets the
    worker killed, attributed and the point eventually quarantined
    exactly like a crash.  Only ever fired inside pool worker
    processes — hanging a serial sweep would hang the user.
``mem-balloon``
    Allocate ``mb`` megabytes of resident memory (touched pages, held
    for the worker's lifetime) before running a task — the canary for
    the RSS guardrail: the soft ceiling trips the vector rung of the
    degradation ladder, the hard ceiling fails the point cleanly with
    a flight-recorder dump.

Spec grammar (segments split on ``;``, site options on ``,``)::

    REPRO_CHAOS = "seed=5;worker-kill:rate=0.3;io-error:rate=0.1,match=cache"

    spec    := segment (";" segment)*
    segment := "seed=" INT | site
    site    := NAME [":" kv ("," kv)*]
    kv      := "rate=" FLOAT      # fire probability, default 1.0
             | "attempts=" INT    # fire only the first N attempts
                                  # (dispatches); 0 = every attempt
             | "match=" TEXT      # only tokens containing TEXT
                                  # (no "," ";" or ":" — grammar chars)
             | "delay=" FLOAT     # slow-call sleep seconds
             | "mb=" FLOAT        # mem-balloon megabytes

Every decision is a pure function of ``(seed, site, token, attempt)``
— a SHA-256 hash, no shared RNG stream — so injection is
**order-independent**: a serial sweep, a ``--jobs 8`` sweep and a
resumed sweep inject faults into exactly the same tasks.  That is what
lets the acceptance test demand byte-identical metrics between a
chaos run and a fault-free run for every non-poisoned point.

Fired injections are counted (``chaos.injected``,
``chaos.injected.<site>``) and narrated as ``chaos.inject`` debug
events through :mod:`repro.obs`; note that injections fired inside
pool worker processes land in the worker's (unconfigured) registry
and are therefore not visible in the parent's ``metrics.json``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import ChaosSpecError, InjectedFaultError, InjectedIOError

#: Every site name the spec grammar accepts.
SITES = ("worker-kill", "worker-hang", "mem-balloon", "task-fail",
         "io-error", "artifact-corrupt", "slow-call")

#: Exit status used by the worker-kill site; distinctive on purpose so
#: supervisor logs and tests can tell an injected kill from a real one.
WORKER_KILL_EXIT_CODE = 87

_SITE_KEYS = ("rate", "attempts", "match", "delay", "mb")

#: mem-balloon ballast: module-level so the allocation outlives the
#: injection call and keeps the worker's RSS elevated.
_BALLAST: list = []


@dataclass(frozen=True)
class ChaosSite:
    """One enabled injection site with its firing conditions."""

    name: str
    rate: float = 1.0
    attempts: int = 0
    match: str = ""
    delay: float = 0.25
    mb: float = 64.0

    def __post_init__(self) -> None:
        if self.name not in SITES:
            raise ChaosSpecError(
                f"unknown chaos site {self.name!r}; "
                f"expected one of {', '.join(SITES)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ChaosSpecError(
                f"{self.name}: rate must be within [0, 1], "
                f"got {self.rate!r}")
        if self.attempts < 0:
            raise ChaosSpecError(
                f"{self.name}: attempts must be >= 0, "
                f"got {self.attempts!r}")
        if self.delay < 0:
            raise ChaosSpecError(
                f"{self.name}: delay must be >= 0, got {self.delay!r}")
        if self.mb <= 0:
            raise ChaosSpecError(
                f"{self.name}: mb must be positive, got {self.mb!r}")

    def to_segment(self) -> str:
        parts = []
        defaults = ChaosSite(self.name)
        for key in _SITE_KEYS:
            value = getattr(self, key)
            if value != getattr(defaults, key):
                parts.append(f"{key}={value}")
        return self.name + (":" + ",".join(parts) if parts else "")


@dataclass
class ChaosPlan:
    """A parsed ``REPRO_CHAOS`` spec: seed plus enabled sites, with
    one hook method per injection site."""

    seed: int = 0
    sites: Dict[str, ChaosSite] = field(default_factory=dict)

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse one spec string; raises :class:`ChaosSpecError` with a
        message naming exactly what is wrong."""
        seed = 0
        sites: Dict[str, ChaosSite] = {}
        for raw in spec.split(";"):
            segment = raw.strip()
            if not segment:
                continue
            if segment.startswith("seed="):
                try:
                    seed = int(segment[len("seed="):])
                except ValueError:
                    raise ChaosSpecError(
                        f"seed must be an integer, got {segment!r}")
                continue
            name, _, options = segment.partition(":")
            name = name.strip()
            kwargs: Dict[str, object] = {}
            if options:
                for pair in options.split(","):
                    key, eq, value = pair.partition("=")
                    key = key.strip()
                    if not eq:
                        raise ChaosSpecError(
                            f"{name}: expected key=value, got {pair!r}")
                    if key not in _SITE_KEYS:
                        raise ChaosSpecError(
                            f"{name}: unknown option {key!r}; expected "
                            f"one of {', '.join(_SITE_KEYS)}")
                    try:
                        if key in ("rate", "delay", "mb"):
                            kwargs[key] = float(value)
                        elif key == "attempts":
                            kwargs[key] = int(value)
                        else:
                            kwargs[key] = value
                    except ValueError:
                        raise ChaosSpecError(
                            f"{name}: {key} must be numeric, "
                            f"got {value!r}")
            if name in sites:
                raise ChaosSpecError(f"site {name!r} given twice")
            sites[name] = ChaosSite(name=name, **kwargs)
        if not sites:
            raise ChaosSpecError(
                f"chaos spec {spec!r} enables no site; expected e.g. "
                f"'worker-kill:rate=0.3'")
        return cls(seed=seed, sites=sites)

    def to_spec(self) -> str:
        """The spec string this plan round-trips through — how an
        explicit plan is shipped to pool workers."""
        segments = [f"seed={self.seed}"] if self.seed else []
        segments.extend(site.to_segment()
                        for site in self.sites.values())
        return ";".join(segments)

    # -- the decision function ------------------------------------------

    def fires(self, site_name: str, token: str, attempt: int = 1) -> bool:
        """Whether the *site* injects for (*token*, *attempt*).

        Deterministic and order-independent: the decision hashes
        ``(seed, site, token, attempt)`` and compares against the
        site's rate, so it does not depend on how many other decisions
        were made before this one or in which process.
        """
        site = self.sites.get(site_name)
        if site is None:
            return False
        if site.match and site.match not in token:
            return False
        if site.attempts and attempt > site.attempts:
            return False
        if site.rate < 1.0:
            digest = hashlib.sha256(
                f"{self.seed}|{site_name}|{token}|{attempt}"
                .encode("utf-8")).digest()
            draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
            if draw >= site.rate:
                return False
        self._record(site_name, token, attempt)
        return True

    def _record(self, site_name: str, token: str, attempt: int) -> None:
        from repro.obs import events as obs_events
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.counter("chaos.injected").inc()
        registry.counter(f"chaos.injected.{site_name}").inc()
        obs_events.emit("chaos.inject", level="debug", site=site_name,
                        token=token, attempt=attempt)

    # -- injection sites -------------------------------------------------

    def inject(self, unit_id: str, benchmark: Optional[str],
               attempt: int) -> None:
        """Task-attempt hook: slow-call sleeps, task-fail raises.

        The decision token carries both the unit id and the benchmark
        so ``match=`` can target either."""
        token = f"{unit_id}|{benchmark or ''}"
        slow = self.sites.get("slow-call")
        if slow is not None and self.fires("slow-call", token, attempt):
            time.sleep(slow.delay)
        if self.fires("task-fail", token, attempt):
            raise InjectedFaultError(
                f"injected task failure in {unit_id} "
                f"(attempt {attempt})")

    def maybe_kill_worker(self, token: str, dispatch: int = 1) -> None:
        """Worker-kill site: hard-exit the current process.

        ``os._exit`` skips ``finally`` blocks and atexit handlers —
        exactly like a segfault or the OOM killer — so the task's
        lease file survives for the supervisor to attribute the crash.
        Call this only from inside a pool worker process.
        """
        if self.fires("worker-kill", token, dispatch):
            try:
                # Last words: os._exit skips every normal teardown, so
                # the flight recorder (when installed) dumps its ring
                # buffer here — the quarantine manifest links to it.
                from repro.obs import flightrec
                flightrec.dump("chaos-worker-kill", token=token,
                               dispatch=dispatch)
            except Exception:
                pass
            os._exit(WORKER_KILL_EXIT_CODE)

    def maybe_hang_worker(self, token: str, dispatch: int = 1) -> None:
        """worker-hang site: spin forever without progress.

        The sleep loop never reaches a health checkpoint, so the lease
        beat written at task start goes stale — which is the point:
        only the supervisor's hang watchdog (SIGKILL on a stale beat)
        can end this process.  Call this only from inside a pool
        worker process; a serial sweep must never enter it.
        """
        if self.fires("worker-hang", token, dispatch):
            while True:  # pragma: no cover - exits only via SIGKILL
                time.sleep(0.05)

    def maybe_balloon_memory(self, token: str, dispatch: int = 1) -> None:
        """mem-balloon site: grow this process's RSS by the site's
        ``mb`` megabytes of touched pages, held for the process
        lifetime so the health RSS watchdog sees a sustained breach
        rather than a transient spike."""
        site = self.sites.get("mem-balloon")
        if site is not None and self.fires("mem-balloon", token,
                                           dispatch):
            _BALLAST.append(b"\x01" * int(site.mb * 1024 * 1024))

    def maybe_io_error(self, op: str, token: str = "") -> None:
        """io-error site: raise :class:`InjectedIOError` for the
        filesystem operation *op* on *token* (a path or cache key)."""
        if self.fires("io-error", f"{op}:{token}"):
            raise InjectedIOError(
                f"injected IO error in {op} ({token})")

    def maybe_corrupt_artifact(self, path, token: Optional[str] = None
                               ) -> bool:
        """artifact-corrupt site: garble the freshly written file at
        *path*; returns whether it did.

        The decision token defaults to the file's name (content-hash
        cache entries have stable names), keeping corruption
        deterministic across runs and processes.
        """
        target = Path(path)
        if not self.fires("artifact-corrupt", token or target.name):
            return False
        data = target.read_bytes()
        # Truncate to half and flip the first byte, defeating both JSON
        # parsing and, for short payloads, the embedded checksum.
        cut = data[:max(1, len(data) // 2)]
        target.write_bytes(bytes([cut[0] ^ 0xFF]) + cut[1:])
        return True


def active_sites(plan: Optional[ChaosPlan]) -> Tuple[str, ...]:
    """The chaos sites *plan* can fire, () without a plan."""
    return tuple(sorted(plan.sites)) if plan is not None else ()
