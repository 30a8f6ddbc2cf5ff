#!/usr/bin/env python3
"""Study benchmark: the paper's section 4.6 EDP sweep and Table 4
sweeps, timed end to end, with per-layer self time from a traced run.

Run from the repository root::

    python3 benchmarks/study/run.py             # all workloads, seed 0
    python3 benchmarks/study/run.py --workload sec46-scalar --seed 3
    python3 benchmarks/study/run.py --trace     # per-layer run
    python3 benchmarks/study/run.py --runs 5 \
        --record benchmarks/study/RUNS.jsonl

Every study runs in a fresh Python subprocess, one at a time, serial
(``jobs=1``, one BLAS/OpenMP thread).  An untraced run prints the
end-to-end metrics named in ``BENCHMARK.json``, with times at a
reference host speed (``hostspeed.py``); ``--trace`` runs the
study once untraced and once with every layer wrapped
(``spans.py``) and prints the per-layer metrics.  Outputs are checked
against ``digests.json``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit
status is non-zero unless every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from hostspeed import host_ns_per_iter, normalise  # noqa: E402
from spans import LAYERS, PER_INST_LAYERS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

#: Set-up is ~0.3 s and noisy, so each run takes the median of this
#: many set-ups plus the set-up of every timed study.
SETUP_SAMPLES = 5
#: A study that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: The traced run fails when more than this share of the study's wall
#: time sits outside every wrapped layer.
MAX_UNATTRIBUTED = 0.05

#: Accuracy each study produces.  They are deterministic for a given
#: synthesis seed, and table4's varies across seeds, so they are
#: recorded and compared exactly (bound 0) rather than gated by
#: ``BENCHMARK.json``.
ACCURACY = {
    "failed_frac": ("fraction", "lower"),
    "edp_gap_pct": ("%", "lower"),
    "found_optimal_frac": ("fraction", "higher"),
    "edp_err_pct": ("%", "lower"),
    "table4_re_pct": ("%", "lower"),
}

#: Layers each workload must enter; every other layer must stay idle.
#: A missed binding site or a path change shows up here as an error.
COMMON_LAYERS = {"frontend.prepare", "frontend.warming", "core.profiler",
                 "core.reduction", "cpu.source", "cpu.pipeline",
                 "cpu.pipeline.eds", "core.framework", "power.wattch"}
EXPECTED_LAYERS = {
    "sec46-scalar": COMMON_LAYERS | {"core.synthesis", "core.synthetic",
                                     "dse.cache", "dse.engine"},
    "sec46-vector": COMMON_LAYERS | {"core.columnar", "dse.cache",
                                     "dse.engine"},
    "table4-window": COMMON_LAYERS | {"core.synthesis", "core.synthetic"},
    "table4-cache": COMMON_LAYERS | {"core.synthesis", "core.synthetic"},
}


@dataclass
class WorkloadResult:
    """One workload's outcome in one run."""

    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    accuracy: Dict[str, Dict[str, float]] = field(default_factory=dict)
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


class Checks:
    """Operations attempted and failed in one workload run, plus the
    reason for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.errors.append(message)
        return ok

    def operations(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.errors += [f"{what}: operation failed"] * failed


def load_benchmark() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


def child_env(work: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", TMPDIR=str(work))
    return env


def spawn(job: dict, work: Path) -> dict:
    """Run one ``workload.py`` job; its result plus ``setup_s``, the
    time from spawn to inputs ready at the reference host speed
    (measured just before and just after the job), and the raw
    ``setup_wall_s``."""
    job = dict(job, work_dir=str(work))
    speed = host_ns_per_iter()
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), json.dumps(job)],
            cwd=work, env=child_env(work), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{job['mode']} timed out after "
                         f"{CHILD_TIMEOUT_S:g} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exited {proc.returncode}")
        result = json.loads(lines[-1])
    except ValueError as exc:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"{job['mode']} {exc}: {tail[0]}"}
    speed = (speed + host_ns_per_iter()) / 2
    result["setup_wall_s"] = result["ready_at"] - started
    result["setup_s"] = normalise(result["setup_wall_s"], speed)
    return result


def check_study(study: dict, pins: Optional[dict], workload: str,
                checks: Checks) -> bool:
    """Count the study's operations and check its outputs: every EDS
    reference against the pinned table, finiteness, and at the pinned
    synthesis seed (every seed, for sec46) the output digest."""
    if not checks.check("error" not in study,
                        f"{workload}: {study.get('error')}"):
        return False
    checks.operations(study["attempted"], study["failed"], workload)
    checks.check(study["finite"], f"{workload}: non-finite output")
    if not checks.check(pins is not None,
                        f"{workload}: no pinned outputs for this scale"):
        return True
    for bench, key, ipc, epc in study["eds"]:
        pinned = pins["eds"].get(bench, {}).get(key)
        checks.check(pinned == [ipc, epc],
                     f"{workload}: EDS {bench}/{key[:12]} gave "
                     f"{[ipc, epc]}, pinned {pinned}")
    if study["synthesis_seed"] == pins["seed"]:
        checks.check(study["digest"] == pins["digests"][workload],
                     f"{workload}: digest {study['digest'][:16]} != "
                     f"pinned {pins['digests'][workload][:16]}")
    return True


def layer_metrics(traced: dict, untraced: dict) -> Dict[str, float]:
    """Per-layer metrics from one traced study, named as in
    ``BENCHMARK.json``'s ``per_layer``.  Times are raw wall time."""
    wall = traced["wall_s"]
    layers = traced["layers"]
    out: Dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        record = layers[layer]
        self_s, calls = record["self_s"], record["calls"]
        attributed += self_s
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / wall
        out[f"{layer}.calls"] = calls
        if layer in PER_INST_LAYERS:
            insts = record["counts"].get("insts", 0)
            out[f"{layer}.ns_per_inst"] = 1e9 * self_s / max(insts, 1)
        else:
            out[f"{layer}.us_per_call"] = 1e6 * self_s / max(calls, 1)
    for layer in ("cpu.pipeline", "cpu.pipeline.eds"):
        cycles = layers[layer]["counts"].get("cycles", 0)
        out[f"{layer}.cycles"] = cycles
        out[f"{layer}.ns_per_cycle"] = \
            1e9 * layers[layer]["self_s"] / max(cycles, 1)
    out["cpu.pipeline.insts"] = layers["cpu.pipeline"]["counts"].get(
        "insts", 0)
    cache = layers["dse.cache"]["counts"]
    out["dse.cache.hit_rate"] = \
        cache.get("hits", 0) / max(cache.get("lookups", 0), 1)
    out["dse.cache.bytes_written"] = cache.get("bytes_written", 0)
    durations = layers["dse.engine"]["durations"] or [0.0]
    out["dse.engine.point_p50_ms"] = 1e3 * statistics.median(durations)
    out["dse.engine.point_p90_ms"] = 1e3 * (
        statistics.quantiles(durations, n=10)[8] if len(durations) > 1
        else durations[0])
    out["unattributed.self_s"] = wall - attributed
    out["unattributed.share"] = (wall - attributed) / wall
    out["traced_study_s"] = wall
    out["trace_overhead_frac"] = (wall - untraced["wall_s"]) \
        / untraced["wall_s"]
    return out


def end_to_end(studies: List[dict], setups: List[float]) -> Dict[str, float]:
    """Medians over the run's studies (set-up over every sample).  Times
    are at the reference host speed (``hostspeed.py``)."""
    def median(key):
        return statistics.median(study[key] for study in studies)

    return {
        "study_s": median("study_s"),
        "points_per_s": statistics.median(
            study["points"] / study["study_s"] for study in studies),
        "study_cpu_s": median("study_cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median("peak_rss_mb"),
    }


def raw_times(studies: List[dict], setups: List[dict]) -> Dict[str, float]:
    """What the host clock read, before normalisation, and the number
    of EDS runs; medians over the run."""
    def median(key, runs=studies):
        return statistics.median(run[key] for run in runs)

    return {"wall_s": median("wall_s"), "cpu_s": median("cpu_s"),
            "setup_wall_s": median("setup_wall_s", setups),
            "host_ns_per_iter": median("ns_per_iter"),
            "eds_runs": statistics.median(len(s["eds"]) for s in studies)}


def with_units(values: Dict[str, float], specs: List[dict]
               ) -> Dict[str, Dict[str, float]]:
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]} for spec in specs}


def run_workload(workload: str, args, bench: dict, pins: Optional[dict],
                 work: Path) -> WorkloadResult:
    job = {"workload": workload, "seed": args.seed, "scale": args.scale,
           "mode": "study", "trace": False}
    checks = Checks()
    result = WorkloadResult(workload, False, 0, 0)
    if args.trace:
        untraced = spawn(job, work)
        traced = spawn(dict(job, trace=True), work)
        if check_study(untraced, pins, workload, checks) and \
                check_study(traced, pins, workload, checks):
            layers = layer_metrics(traced, untraced)
            fired = {layer for layer in LAYERS
                     if layers[f"{layer}.calls"] > 0}
            expected = EXPECTED_LAYERS[workload]
            checks.check(fired == expected,
                         f"{workload}: layers fired {sorted(fired)}, "
                         f"expected {sorted(expected)}")
            checks.check(layers["unattributed.share"] < MAX_UNATTRIBUTED,
                         f"{workload}: unattributed share "
                         f"{layers['unattributed.share']:.3f}")
            checks.check(traced["digest"] == untraced["digest"],
                         f"{workload}: traced digest differs")
            result.layers = with_units(layers, bench["per_layer"])
            result.metrics = with_units(
                end_to_end([untraced], [untraced["setup_s"]]),
                bench["end_to_end"])
            result.accuracy = untraced["accuracy"]
        result.samples = {"studies": 2, "setups": 1}
    else:
        setups = [spawn(dict(job, mode="setup"), work)
                  for _ in range(SETUP_SAMPLES)]
        for setup in setups:
            checks.check("error" not in setup,
                         f"{workload}: {setup.get('error')}")
        studies = []
        start = time.monotonic()
        while True:
            study = spawn(job, work)
            if not check_study(study, pins, workload, checks):
                break
            studies.append(study)
            if time.monotonic() - start + study["wall_s"] > args.seconds:
                break
        measured = [s for s in setups + studies if "setup_s" in s]
        samples = [s["setup_s"] for s in measured]
        if studies and samples:
            result.metrics = with_units(end_to_end(studies, samples),
                                        bench["end_to_end"])
            result.accuracy = studies[0]["accuracy"]
            result.raw = raw_times(studies, measured)
        result.samples = {"studies": len(studies), "setups": len(samples)}
    accuracy = dict(result.accuracy, failed_frac=len(checks.errors)
                    / max(checks.attempted, 1))
    result.accuracy = {name: {"value": value, "unit": ACCURACY[name][0]}
                       for name, value in accuracy.items()}
    result.errors = checks.errors
    result.attempted = checks.attempted
    result.failed = len(checks.errors)
    result.correct = result.failed == 0 and bool(
        result.layers if args.trace else result.metrics)
    return result


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write_run(path: Path, args, results: List[WorkloadResult]) -> None:
    """Append one run record (one JSON line) to *path*."""
    import numpy

    record = {
        "schema": 1,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "scale": args.scale,
        "trace": bool(args.trace),
        "calibration_ns_per_iter": host_ns_per_iter(),
        "workloads": {r.workload: {k: v for k, v in asdict(r).items()
                                   if k != "workload"}
                      for r in results},
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def pin(args, work: Path) -> int:
    """Rewrite this scale's entry of ``digests.json`` from seed-0 runs."""
    entry = {"seed": 0, "digests": {}, "eds": {}}
    for workload in args.workload:
        study = spawn({"workload": workload, "seed": 0, "scale": args.scale,
                       "mode": "pin", "trace": False}, work)
        if "error" in study or study["failed"] or not study["finite"]:
            print(f"{workload}: cannot pin: {study}", file=sys.stderr)
            return 1
        entry["digests"][workload] = study["digest"]
        for bench, key, ipc, epc in study["eds"]:
            pinned = entry["eds"].setdefault(bench, {}).setdefault(
                key, [ipc, epc])
            if pinned != [ipc, epc]:
                print(f"{workload}: EDS {bench}/{key} not repeatable",
                      file=sys.stderr)
                return 1
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pins[args.scale] = entry
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(entry['digests'])} digests, "
          f"{sum(map(len, entry['eds'].values()))} EDS references")
    return 0


def summary_line(results: List[WorkloadResult], trace: bool) -> dict:
    """The final JSON line.  One workload: its metrics under their own
    names.  Several: ``<workload>.<metric>``, median over runs."""
    groups: Dict[str, list] = {}
    for result in results:
        measured = result.layers if trace else result.metrics
        runs = groups.setdefault(result.workload, [])
        if measured:
            runs.append(measured)
    metrics: Dict[str, Dict[str, float]] = {}
    for workload, runs in groups.items():
        prefix = "" if len(groups) == 1 else f"{workload}."
        for name in (runs[0] if runs else {}):
            metrics[prefix + name] = {
                "value": statistics.median(run[name]["value"]
                                           for run in runs),
                "unit": runs[0][name]["unit"]}
    return {"correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": metrics}


def print_result(result: WorkloadResult) -> None:
    print(f"== {result.workload}: {'ok' if result.correct else 'FAILED'} "
          f"({result.failed}/{result.attempted} failed; "
          f"samples {result.samples})")
    shown = {**result.metrics, **result.accuracy, **result.layers}
    for name, metric in shown.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    if result.raw:
        print("  raw: " + ", ".join(f"{name} {value:.6g}"
                                   for name, value in result.raw.items()))
    for error in result.errors:
        print(f"  error: {error}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="table4 synthesis seeds are (S, S+1, S+2); "
                             "sec46 shuffles its grid order with S")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat a workload's study while the next "
                             "one still fits in this budget (at least "
                             "one study)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer run instead of end-to-end")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat the whole selection this many times")
    parser.add_argument("--record", type=Path,
                        help="append one JSON line per run to this file")
    parser.add_argument("--smoke", dest="scale", action="store_const",
                        const="smoke", default="default",
                        help="gzip, 4-point grid, 1 seed, 5K instructions")
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="pinned output digests (default %(default)s)")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin digests.json for this scale at seed 0")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOADS)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.pin:
            return pin(args, work)
        pins = (json.loads(args.digests.read_text()).get(args.scale)
                if args.digests.exists() else None)
        results: List[WorkloadResult] = []
        for _ in range(args.runs):
            run = [run_workload(workload, args, bench, pins, work)
                   for workload in args.workload]
            for result in run:
                print_result(result)
            if args.record:
                write_run(args.record, args, run)
            results += run
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    summary = summary_line(results, bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
