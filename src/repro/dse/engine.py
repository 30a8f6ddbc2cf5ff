"""Parallel design-point evaluation engine.

The paper's economics (Figure 1) hinge on evaluating *many* design
points per statistical profile.  Every point is an independent
synthetic-trace simulation, so the sweep is embarrassingly parallel:
this engine fans (point, seed) evaluations out over a
``ProcessPoolExecutor`` supervised by a
:class:`~repro.dse.supervisor.PoolSupervisor` — worker death breaks a
pool, the supervisor rebuilds it, requeues the lease-tracked in-flight
tasks, quarantines repeat offenders as poison points, and degrades to
serial in-process execution when the pool cannot be kept alive.  Every
evaluation, pooled or serial, runs through the experiment runner's
retry loop (:func:`~repro.runner.runner.run_attempts`): per-evaluation
wall-clock timeouts, bounded retry with backoff, fault injection, and
exception containment, applied **per design point** rather than per
benchmark.

Determinism: each evaluation's synthesis seed is derived from a stable
hash of (experiment, benchmark, config hash, base seed), never from
inherited process RNG state, so a serial sweep, an ``--jobs N`` sweep
and a resumed sweep all produce bit-identical metrics.

With a :class:`~repro.dse.cache.ResultCache` attached, already-known
(profile, config, seed) evaluations are served from disk and fresh ones
are written back as the parent receives them — the cache *is* the
sweep's checkpoint/resume mechanism, and a sweep killed with
``kill -9`` resumes without evaluating a finished point again.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import MachineConfig
from repro import faults
from repro.errors import SweepInterrupted
from repro.health.budget import (Budget, HealthPolicy, active_budget,
                                 check_expired, install_budget)
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.runner import OK, CollectorScope, RunnerPolicy
from repro.runner.lease import clear_lease, lease_directory, write_lease
from repro.runner.runner import run_attempts
from repro.dse.cache import ResultCache, result_key
from repro.dse.space import DesignPoint, profile_content_hash
from repro.dse.supervisor import PoolSupervisor, Quarantine, SupervisorPolicy


def derive_point_seed(experiment: str, benchmark: Optional[str],
                      config_hash: str, seed: int) -> int:
    """Deterministic per-evaluation synthesis seed.

    A stable hash of the evaluation's identity — not parent RNG state —
    so worker processes, serial loops and resumed runs all synthesize
    the same trace for the same design point.
    """
    text = "\x00".join([experiment, benchmark or "", config_hash,
                        str(seed)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def evaluate_metrics(profile, config: MachineConfig, seed: int,
                     reduction_factor: float,
                     vector: bool = False) -> Dict[str, float]:
    """One design-point evaluation: synthesize with *seed*, simulate,
    return the paper's metrics.  This single function feeds the serial
    path, the worker processes and the speedup experiment, so all of
    them are numerically identical by construction.

    *vector* routes the evaluation through the columnar batch kernels —
    a statistically equivalent but different draw sequence, so vector
    and scalar metrics are cached under distinct keys (see
    :func:`repro.dse.cache.result_key`).

    The degradation ladder can override *vector*: once the ``vector``
    breaker is open (canary drift, soft-RSS pressure) the evaluation
    runs on the scalar rung instead, and the returned ``mode`` records
    which rung actually executed so callers never cache a scalar draw
    sequence under a vector key.
    """
    from repro.health.ladder import get_ladder
    from repro.power.wattch import energy_delay_product

    if vector and get_ladder().is_open("vector"):
        vector = False
    if vector:
        from repro.core.columnar import generate_columnar_trace
        from repro.core.framework import simulate_columnar_trace
        from repro.health.canary import maybe_check_columnar

        columnar = generate_columnar_trace(profile, reduction_factor,
                                           seed=seed)
        maybe_check_columnar(profile, columnar)
        result, power = simulate_columnar_trace(columnar, config)
        count = len(columnar.iclass)
    else:
        from repro.core.framework import simulate_synthetic_trace
        from repro.core.synthesis import generate_synthetic_trace

        synthetic = generate_synthetic_trace(profile, reduction_factor,
                                             seed=seed)
        result, power = simulate_synthetic_trace(synthetic, config)
        count = len(synthetic)
    return {
        "ipc": result.ipc,
        "epc": power.total,
        "edp": energy_delay_product(power.total, result.ipc),
        "synthetic_instructions": count,
        "mode": "vector" if vector else "scalar",
    }


# -- worker-process machinery -----------------------------------------
#
# Module-level so the pool can pickle them; the profile is shipped once
# per worker (as its serialized dict) via the initializer instead of
# once per task.

_WORKER_PROFILE = None
_WORKER_LEASE_DIR: Optional[str] = None


def _warm_tables(profile, vector: bool, reduction_factor: float) -> None:
    """Build *profile*'s sampler tables for one sweep mode: columnar
    tables for a vector sweep, otherwise scalar recipes for the
    contexts the sweep's *reduction_factor* keeps."""
    if vector:
        from repro.core.columnar import columnar_tables_for

        columnar_tables_for(profile.sfg)
    else:
        from repro.core.reduction import reduce_flow_graph
        from repro.core.synthesis import prepare_recipes

        prepare_recipes(profile,
                        reduce_flow_graph(profile.sfg, reduction_factor))


def _exit_with_parent(parent: int, interval: float = 0.5) -> None:
    """End this pool worker once its sweep parent is gone.

    A worker idles in ``call_queue.get()``, and a forked worker holds
    the queue's write end itself, so it never sees EOF when the parent
    is killed; without this check it would sleep forever under init.
    """
    while os.getppid() == parent:
        time.sleep(interval)
    os._exit(1)


def _worker_init(profile_payload: Dict,
                 reduction_factor: float,
                 chaos_spec: str = "",
                 lease_dir: Optional[str] = None,
                 telemetry_payload: Optional[Dict] = None,
                 flight_dir: Optional[str] = None,
                 vector: bool = False,
                 health_payload: Optional[Dict] = None) -> None:
    global _WORKER_PROFILE, _WORKER_LEASE_DIR
    from repro.core.serialization import profile_from_dict
    from repro.obs import flightrec, telemetry

    if multiprocessing.parent_process() is not None:
        # A pool worker is one long study: the collector scope is
        # entered for its lifetime and never left.
        CollectorScope().__enter__()
        threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                         name="repro-parent-watch", daemon=True).start()
    # Adopt the parent's trace context first, so every event this
    # worker ever emits (including recipe warm-up below) carries the
    # sweep's trace id; install the flight recorder next, so a chaos
    # kill or unhandled crash leaves the worker's final moments behind.
    telemetry.adopt(telemetry_payload)
    if flight_dir:
        # signals stays on: a SIGTERM'd worker dumps its buffer, then
        # re-delivers the signal so its exit status still reads
        # "killed by SIGTERM" and crash attribution stays innocent.
        flightrec.install(flight_dir)
    _WORKER_PROFILE = profile_from_dict(profile_payload)
    # The parent's active plan arrives as its spec string ("" = off),
    # so a --chaos plan reaches the workers and an environment plan
    # cannot override it.
    faults.install(faults.ChaosPlan.parse(chaos_spec) if chaos_spec
                   else None)
    _WORKER_LEASE_DIR = lease_dir
    if health_payload:
        # The sweep's budget (absolute deadline, RSS ceilings, canary
        # policy) is installed before any evaluation runs; cooperative
        # checkpoints inside the kernels consult it from then on.
        install_budget(Budget(
            HealthPolicy.from_payload(health_payload.get("policy")),
            deadline_at=health_payload.get("deadline_at")))
    # Warm the sweep mode's sampler tables once per worker so each of
    # the worker's (point, seed) evaluations starts with compiled
    # tables instead of building them on the first synthesis call.
    _warm_tables(_WORKER_PROFILE, vector, reduction_factor)


def _run_task(task: Dict[str, Any], profile,
              policy: RunnerPolicy) -> Dict[str, Any]:
    """Execute one (point, seed) evaluation through the runner's retry
    loop (:func:`~repro.runner.runner.run_attempts`): fault injection
    per attempt, wall-clock timeout, bounded retry with backoff, and
    containment of any exception into a structured failure record.
    Pool workers and the serial path both evaluate through here."""
    from repro.core.serialization import config_from_dict

    vector = bool(task.get("vector"))
    config = config_from_dict(task["config"])
    if vector:
        from repro.core.columnar import columnar_tables_cached

        recipe_reuse = columnar_tables_cached(profile.sfg)
    else:
        from repro.core.synthesis import tables_cached

        recipe_reuse = tables_cached(profile.sfg)

    def evaluate() -> Dict[str, float]:
        # Fail fast on an already-blown deadline instead of paying for
        # a synthesis that a mid-flight checkpoint would abort anyway.
        check_expired()
        return evaluate_metrics(profile, config, task["derived_seed"],
                                task["reduction_factor"], vector=vector)

    outcome = run_attempts(evaluate, task["task_id"], policy,
                           benchmark=task.get("benchmark"),
                           seed=task.get("base_seed"))
    # The error record carries the full remote traceback, so a
    # worker-side failure is debuggable from the parent's failure
    # record and events.jsonl, not just a bare exception type.
    return {
        "task": task,
        "status": "ok" if outcome.status == OK else "failed",
        "metrics": outcome.result,
        "attempts": outcome.attempts,
        "elapsed": outcome.elapsed,
        "error": outcome.error,
        "recipe_reuse": recipe_reuse,
    }


def _evaluate_one(task: Dict[str, Any],
                  policy: RunnerPolicy) -> Dict[str, Any]:
    """Worker entry point: evaluate one task against the profile
    installed by :func:`_worker_init`.

    Writes a lease before touching the task and clears it afterwards;
    a hard crash (``os._exit`` skips ``finally``) leaves the lease for
    the supervisor's crash attribution.  The worker-kill chaos site
    fires here — after the lease, before the work — and only here:
    serial in-process evaluation has no worker to kill, which is what
    makes the supervisor's serial fallback terminate under injection.
    """
    from repro.obs.tracing import trace_span

    task_id = task["task_id"]
    budget = active_budget()
    if _WORKER_LEASE_DIR:
        write_lease(_WORKER_LEASE_DIR, task_id,
                    task.get("dispatch", 1))
        if budget is not None:
            # Route subsequent heartbeats at this task's lease so the
            # supervisor's hang watchdog can tell progress from limbo.
            budget.begin_task(_WORKER_LEASE_DIR, task_id,
                              task.get("dispatch", 1))
    try:
        with trace_span("evaluate", task=task_id,
                        bench=task.get("benchmark"),
                        seed=task.get("base_seed")):
            plan = faults.active_plan()
            if plan is not None:
                dispatch = task.get("dispatch", 1)
                plan.maybe_kill_worker(task_id, dispatch)
                if _WORKER_LEASE_DIR is not None:
                    # Hang injection only makes sense where a watchdog
                    # can shoot the victim; the serial path has no
                    # supervisor.
                    plan.maybe_hang_worker(task_id, dispatch)
                plan.maybe_balloon_memory(task_id, dispatch)
            return _run_task(task, _WORKER_PROFILE, policy)
    finally:
        if budget is not None:
            budget.end_task()
        if _WORKER_LEASE_DIR:
            clear_lease(_WORKER_LEASE_DIR, task_id)


# -- results -----------------------------------------------------------


@dataclass
class PointResult:
    """Aggregated outcome of one design point across synthesis seeds."""

    point: DesignPoint
    per_seed: Dict[int, Dict[str, float]] = field(default_factory=dict)
    cached_seeds: int = 0
    evaluated_seeds: int = 0
    failed_seeds: int = 0
    quarantined_seeds: int = 0
    errors: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.failed_seeds == 0 and self.quarantined_seeds == 0
                and bool(self.per_seed))

    @property
    def metrics(self) -> Dict[str, float]:
        """Mean metrics over seeds (empty when every seed failed).

        Only numeric metrics participate; annotations like ``mode``
        (the rung an evaluation actually executed on) ride along in
        ``per_seed`` but cannot be averaged.
        """
        if not self.per_seed:
            return {}
        first = next(iter(self.per_seed.values()))
        keys = [key for key, value in first.items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)]
        n = len(self.per_seed)
        return {key: sum(m.get(key, 0.0)
                         for m in self.per_seed.values()) / n
                for key in keys}

    def to_row(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {"point": self.point.point_id,
                               "config_hash": self.point.config_hash,
                               "ok": self.ok,
                               "cached_seeds": self.cached_seeds,
                               "evaluated_seeds": self.evaluated_seeds}
        row.update(self.point.params_dict())
        row.update(self.metrics)
        return row


@dataclass
class SweepResult:
    """Everything one engine invocation produced."""

    results: List[PointResult]
    elapsed: float
    jobs: int
    seeds: Tuple[int, ...]
    reduction_factor: float
    evaluated: int = 0
    cached: int = 0
    failed: int = 0
    quarantined: int = 0
    cache_stats: Optional[Dict[str, Any]] = None
    quarantine_manifest: Optional[str] = None
    #: Ctrl-C landed mid-sweep: the result holds only cached hits and
    #: the evaluations that finished before the interrupt.
    interrupted: bool = False
    #: Tasks that never ran because of the interrupt.
    unstarted: int = 0

    @property
    def ok_results(self) -> List[PointResult]:
        return [r for r in self.results if r.ok]

    @property
    def total_tasks(self) -> int:
        return self.evaluated + self.cached + self.failed \
            + self.quarantined

    def summary(self) -> str:
        parts = [f"{len(self.results)} points", f"jobs={self.jobs}",
                 f"{self.evaluated} evaluated / {self.cached} cached / "
                 f"{self.failed} failed evaluations",
                 f"{self.elapsed:.2f}s"]
        if self.quarantined:
            parts.insert(3, f"{self.quarantined} quarantined")
        if self.interrupted:
            parts.append(f"INTERRUPTED with {self.unstarted} "
                         f"evaluation(s) never started")
        return ", ".join(parts)


# -- the engine --------------------------------------------------------


class SweepEngine:
    """Evaluates design points against one statistical profile.

    ``jobs=1`` evaluates every (point, seed) in-process through the
    runner's retry loop; ``jobs>1`` dispatches
    tasks to a supervised process pool
    (:class:`~repro.dse.supervisor.PoolSupervisor`) whose workers apply
    the same policy (timeout, retries, fault injection) per evaluation,
    and which survives worker death by rebuilding the pool, requeueing
    in-flight tasks, quarantining poison points after
    ``supervisor_policy.max_point_retries`` attributed crashes, and
    degrading to the serial path when the pool cannot be kept alive.
    Both paths call the same :func:`evaluate_metrics` with the same
    derived seeds, so their metrics are identical.
    """

    def __init__(
        self,
        profile,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        policy: Optional[RunnerPolicy] = None,
        experiment: str = "dse",
        benchmark: Optional[str] = None,
        supervisor_policy: Optional[SupervisorPolicy] = None,
        quarantine_path: Optional[Union[str, Any]] = None,
        vector: bool = False,
        health: Optional[HealthPolicy] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.profile = profile
        self.jobs = jobs
        self.vector = vector
        self.health = (health if health is not None
                       else HealthPolicy.from_env())
        #: Absolute wall-clock cutoff, computed once per evaluate().
        self._deadline_at: Optional[float] = None
        self.cache = cache
        self.policy = policy or RunnerPolicy()
        self.experiment = experiment
        self.benchmark = benchmark
        self.supervisor_policy = supervisor_policy or SupervisorPolicy()
        self.quarantine = Quarantine(
            path=quarantine_path,
            max_point_retries=self.supervisor_policy.max_point_retries)
        self.profile_hash = profile_content_hash(profile)

    # -- task construction ---------------------------------------------

    def _task(self, index: int, point: DesignPoint, seed: int,
              reduction_factor: float) -> Dict[str, Any]:
        from repro.core.serialization import config_to_dict

        return {
            "task_id": (f"{self.experiment}/"
                        f"{self.benchmark or 'profile'}/"
                        f"{point.point_id}/seed{seed}"),
            "point_index": index,
            "point_id": point.point_id,
            "config_hash": point.config_hash,
            "benchmark": self.benchmark,
            "config": config_to_dict(point.config),
            "base_seed": seed,
            "derived_seed": derive_point_seed(
                self.experiment, self.benchmark, point.config_hash,
                seed),
            "reduction_factor": reduction_factor,
            "vector": self.vector,
            "key": result_key(self.profile_hash, point.config_hash,
                              seed, reduction_factor,
                              mode="vector" if self.vector
                              else "scalar"),
        }

    # -- execution paths -----------------------------------------------

    def _run_serial(self, tasks: List[Dict[str, Any]],
                    reduction_factor: float) -> List[Dict[str, Any]]:
        """In-process path: each evaluation runs through the pool
        worker's own :func:`_run_task` (timeouts, retry and fault
        injection per design point) and is cached as it finishes.
        Every task shares the sweep's *reduction_factor*.  A Ctrl-C
        raises :class:`~repro.errors.SweepInterrupted` carrying the
        evaluations that finished before it."""
        # Same warm-start the pool workers get from _worker_init: build
        # the sampler tables once, before the first evaluation.
        from repro.obs.tracing import trace_span

        _warm_tables(self.profile, self.vector, reduction_factor)
        outcomes: List[Dict[str, Any]] = []
        try:
            for task in tasks:
                with trace_span("evaluate", task=task["task_id"],
                                bench=task.get("benchmark"),
                                seed=task.get("base_seed")):
                    outcome = _run_task(task, self.profile, self.policy)
                self._store(outcome)
                outcomes.append(outcome)
        except KeyboardInterrupt:
            raise SweepInterrupted(outcomes) from None
        return outcomes

    def _store(self, outcome: Dict[str, Any]) -> None:
        """Write one finished ``ok`` evaluation to the cache the moment
        the parent receives it, so a sweep killed mid-run keeps every
        evaluation it had collected."""
        if self.cache is None or outcome["status"] != "ok":
            return
        task = outcome["task"]
        key = task["key"]
        mode = outcome["metrics"].get("mode")
        keyed = "vector" if task.get("vector") else "scalar"
        if mode and mode != keyed:
            # The worker degraded rungs mid-sweep (e.g. canary drift
            # tripped vector→scalar): store the result under the rung
            # that actually ran, never under the key the dispatcher
            # assumed.
            key = result_key(self.profile_hash,
                             task["config_hash"], task["base_seed"],
                             task["reduction_factor"], mode=mode)
        self.cache.put(key, outcome["metrics"], meta={
            "task_id": task["task_id"],
            "base_seed": task["base_seed"],
            "derived_seed": task["derived_seed"],
            "reduction_factor": task["reduction_factor"],
            "profile": self.profile_hash,
        })

    def _flight_dir(self) -> Optional[str]:
        """Where worker flight-recorder dumps land: the telemetry trace
        directory when one is active, else next to the quarantine
        manifest (so chaos runs without --trace-dir still capture the
        victim's final moments)."""
        from repro.obs import telemetry

        trace_dir = telemetry.trace_directory()
        if trace_dir is not None:
            return str(trace_dir)
        path = getattr(self.quarantine, "path", None)
        if path:
            return str(Path(path).resolve().parent)
        return None

    def _run_parallel(self, tasks: List[Dict[str, Any]],
                      reduction_factor: float) -> List[Dict[str, Any]]:
        from repro.core.serialization import profile_to_dict
        from repro.obs import telemetry

        obs_events.emit("sweep_dispatch", level="info",
                        msg=(f"dispatching {len(tasks)} evaluations to "
                             f"{self.jobs} supervised workers"),
                        tasks=len(tasks), jobs=self.jobs)
        payload = profile_to_dict(self.profile)
        # The active plan (a --chaos plan need never enter the
        # environment) ships to the workers as its spec string.
        plan = faults.active_plan()
        chaos_spec = plan.to_spec() if plan is not None else ""
        # Trace context + flight-recorder target ride the same
        # initializer, so worker spans stitch into this sweep's trace
        # and crashed workers leave flightrec-<pid>.jsonl behind.
        telemetry_payload = telemetry.propagation_payload()
        flight_dir = self._flight_dir()
        health_payload = {"policy": self.health.to_payload(),
                          "deadline_at": self._deadline_at}
        with lease_directory() as lease_dir:
            def pool_factory() -> ProcessPoolExecutor:
                return ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_worker_init,
                    initargs=(payload, reduction_factor, chaos_spec,
                              lease_dir, telemetry_payload, flight_dir,
                              self.vector, health_payload))

            supervisor = PoolSupervisor(
                pool_factory=pool_factory,
                task_fn=_evaluate_one,
                runner_policy=self.policy,
                policy=self.supervisor_policy,
                quarantine=self.quarantine,
                serial_fn=functools.partial(
                    self._run_serial, reduction_factor=reduction_factor),
                on_outcome=self._store,
                lease_dir=lease_dir,
                flight_dir=flight_dir,
                health=self.health)
            return supervisor.run(tasks)

    # -- public API ----------------------------------------------------

    def evaluate(self, points: Sequence[DesignPoint],
                 seeds: Sequence[int] = (0,),
                 reduction_factor: float = 6.0) -> SweepResult:
        """Evaluate every point under every seed; aggregate per point.

        Cache hits are resolved up front in the parent process; only
        misses are dispatched.  Fresh results (but never failures) are
        written back to the cache as each one arrives.
        """
        from repro.obs.tracing import trace_span

        # The sweep span is the parent every worker's evaluate span
        # hangs off (its id travels in the pool-init trace context).
        with trace_span("sweep", experiment=self.experiment,
                        bench=self.benchmark):
            return self._evaluate(points, seeds, reduction_factor)

    def _evaluate(self, points: Sequence[DesignPoint],
                  seeds: Sequence[int] = (0,),
                  reduction_factor: float = 6.0) -> SweepResult:
        started = time.perf_counter()
        registry = get_registry()
        # The deadline is relative to sweep start; the absolute cutoff
        # computed here ships to every worker so their cooperative
        # checkpoints all measure against the same wall clock.
        self._deadline_at = (time.time() + self.health.deadline
                             if self.health.deadline else None)
        stats_before = (self.cache.stats.to_payload()
                        if self.cache is not None else None)
        obs_events.emit("sweep_start", level="debug",
                        experiment=self.experiment,
                        benchmark=self.benchmark,
                        points=len(points), seeds=list(seeds),
                        jobs=self.jobs,
                        reduction_factor=reduction_factor)
        results = [PointResult(point=point) for point in points]

        pending: List[Dict[str, Any]] = []
        cached = 0
        for index, point in enumerate(points):
            for seed in seeds:
                task = self._task(index, point, seed, reduction_factor)
                entry = self.cache.get(task["key"]) \
                    if self.cache is not None else None
                if entry is not None and isinstance(
                        entry.get("metrics"), dict):
                    result = results[index]
                    result.per_seed[seed] = entry["metrics"]
                    result.cached_seeds += 1
                    cached += 1
                else:
                    pending.append(task)

        interrupted = False
        outcomes: List[Dict[str, Any]] = []
        if pending:
            # Serial evaluations checkpoint against this budget from
            # inside the simulation loops; for jobs>1 the workers get
            # their own budgets via the pool initializer and this one
            # merely covers any serial fallback.
            install_budget(Budget(self.health,
                                  deadline_at=self._deadline_at))
            try:
                if self.jobs > 1:
                    outcomes = self._run_parallel(pending,
                                                  reduction_factor)
                else:
                    outcomes = self._run_serial(pending, reduction_factor)
            except KeyboardInterrupt as exc:
                # Ctrl-C: keep whatever finished (both paths ship their
                # collected outcomes on the exception), report the
                # sweep as interrupted and let the caller exit with the
                # interrupt status code instead of a raw pool traceback.
                interrupted = True
                outcomes = list(getattr(exc, "outcomes", []))
                obs_events.emit(
                    "sweep_interrupted", level="warning",
                    msg=(f"sweep interrupted: {len(outcomes)} of "
                         f"{len(pending)} dispatched evaluation(s) "
                         f"finished; writing the partial report"),
                    experiment=self.experiment,
                    benchmark=self.benchmark,
                    finished=len(outcomes), pending=len(pending))
            finally:
                install_budget(None)

        evaluated = failed = quarantined = recipe_reuse = 0
        for outcome in outcomes:
            if outcome["status"] == "ok" and outcome.get("recipe_reuse"):
                recipe_reuse += 1
            task = outcome["task"]
            result = results[task["point_index"]]
            registry.histogram("dse.evaluation_seconds").observe(
                outcome["elapsed"])
            if outcome["status"] == "ok":
                evaluated += 1
                result.per_seed[task["base_seed"]] = outcome["metrics"]
                result.evaluated_seeds += 1
            elif outcome["status"] == "quarantined":
                quarantined += 1
                result.quarantined_seeds += 1
                result.errors.append(
                    {"task_id": task["task_id"], **(outcome["error"]
                                                    or {})})
            else:
                failed += 1
                result.failed_seeds += 1
                error = outcome["error"] or {}
                result.errors.append(
                    {"task_id": task["task_id"], **error})
                message = (f"{task['task_id']}: failed after "
                           f"{outcome['attempts']} attempt(s): "
                           f"{error.get('type')}: "
                           f"{error.get('message')}")
                obs_events.emit("point_failed", msg=message,
                                level="warning",
                                task=task["task_id"],
                                attempts=outcome["attempts"],
                                error=error.get("type"),
                                traceback=error.get("traceback"))

        registry.counter("dse.evaluated").inc(evaluated)
        registry.counter("dse.failed").inc(failed)
        registry.counter("dse.quarantined").inc(quarantined)
        registry.counter("dse.cache_hits").inc(cached)
        # Evaluations that started with warm sampler tables (prebuilt in
        # _worker_init / at the start of the serial path) rather than
        # compiling recipes inside the timed evaluation.
        registry.counter("dse.recipe_reuse").inc(recipe_reuse)
        if stats_before is not None:
            stats_after = self.cache.stats.to_payload()

            def _delta(key: str) -> int:
                return int(stats_after[key]) - int(stats_before[key])

            registry.counter("dse.cache_misses").inc(_delta("misses"))
            registry.counter("dse.cache_writes").inc(_delta("writes"))
            registry.counter("dse.cache_corrupt_discarded").inc(
                _delta("corrupt_discarded"))
            registry.counter("dse.cache_io_errors").inc(
                _delta("io_errors"))
        # The supervised pool already wrote the manifest; this covers
        # serial runs (and is a harmless atomic rewrite otherwise) so
        # a requested --quarantine file always exists afterwards.
        manifest = self.quarantine.write()
        elapsed = time.perf_counter() - started
        obs_events.emit("sweep_end", level="debug",
                        experiment=self.experiment,
                        benchmark=self.benchmark,
                        evaluated=evaluated, cached=cached,
                        failed=failed, quarantined=quarantined,
                        interrupted=interrupted,
                        elapsed=round(elapsed, 6))
        return SweepResult(
            results=results,
            elapsed=elapsed,
            jobs=self.jobs,
            seeds=tuple(seeds),
            reduction_factor=reduction_factor,
            evaluated=evaluated,
            cached=cached,
            failed=failed,
            quarantined=quarantined,
            cache_stats=(self.cache.stats.to_payload()
                         if self.cache is not None else None),
            quarantine_manifest=(str(manifest) if manifest else None),
            interrupted=interrupted,
            unstarted=(len(pending) - len(outcomes) if interrupted
                       else 0),
        )
