"""Self-test of the study benchmark at smoke size (gzip, a 4-point
grid, one seed, 5K-instruction windows).

    PYTHONPATH=src python -m pytest benchmarks/study
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench_run(*args, cwd=run.ROOT, timeout=300):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/study/run.py"),
         "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, summary


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


@pytest.fixture(scope="module")
def traced():
    proc, summary = bench_run("--workload", "sec46-scalar", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return summary


def test_every_name_is_well_formed(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]] + list(run.ACCURACY)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_untraced_run_prints_every_end_to_end_metric(bench):
    proc, summary = bench_run("--workload", "table4-window",
                              "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    expected = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(bench, traced):
    expected = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected


def test_layers_sum_to_traced_wall(traced):
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    total = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    total += metrics["unattributed.self_s"]
    assert total == pytest.approx(metrics["traced_study_s"], rel=0.01)
    assert metrics["unattributed.share"] < run.MAX_UNATTRIBUTED


def test_two_runs_give_identical_digests(tmp_path):
    for workload in run.WORKLOADS:
        job = {"workload": workload, "seed": 0, "scale": "smoke",
               "mode": "study", "trace": False}
        first, second = run.spawn(job, tmp_path), run.spawn(job, tmp_path)
        assert "error" not in first, first
        assert first["digest"] == second["digest"]
        assert first["eds"] == second["eds"]


def test_wrong_pinned_digest_fails(tmp_path):
    pins = json.loads(run.DIGESTS.read_text())
    pins["smoke"]["digests"]["sec46-scalar"] = "0" * 64
    wrong = tmp_path / "digests.json"
    wrong.write_text(json.dumps(pins))
    record = tmp_path / "runs.jsonl"
    proc, summary = bench_run("--workload", "sec46-scalar",
                              "--digests", str(wrong),
                              "--record", str(record))
    assert proc.returncode != 0
    assert summary["failed"] > 0 and not summary["correct"]
    result = json.loads(record.read_text())["workloads"]["sec46-scalar"]
    assert result["accuracy"]["failed_frac"]["value"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks/study",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc, summary = bench_run("--workload", "sec46-scalar", cwd=tmp_path,
                              timeout=60)
    assert proc.returncode != 0 and summary is None


def test_speed_clock_leaves_its_samples_out():
    handler = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with hostspeed.SpeedClock() as clock:
        while time.perf_counter() - start < 0.5:
            pass
    elapsed = time.perf_counter() - start
    assert clock.samples >= 4
    assert clock.cpu_s <= clock.wall_s < elapsed
    assert clock.norm_wall_s == pytest.approx(
        hostspeed.normalise(clock.wall_s, clock.ns_per_iter), rel=0.5)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_compare_verdicts():
    flat = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(flat, flat, "lower", 0.1) == "unchanged"
    assert compare.verdict(flat, [v * 1.3 for v in flat], "lower",
                           0.1) == "worse"
    assert compare.verdict(flat, [v * 0.7 for v in flat], "lower",
                           0.1) == "improved"
    assert compare.verdict(flat, [v * 0.7 for v in flat], "higher",
                           0.1) == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert compare.verdict(flat, noisy, "lower", 0.1) == "unresolved"
    # Deterministic metrics use bound 0: any move shows.
    assert compare.verdict([1.29] * 3, [1.29] * 3, "lower", 0) == \
        "unchanged"
    assert compare.verdict([1.29] * 3, [1.31] * 3, "lower", 0) == "worse"
    assert compare.verdict([0.0] * 3, [0.0] * 3, "lower", 0) == "unchanged"


def test_compare_claim_rule():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert compare.claim_met(parent, [v - 1 for v in parent], "lower")[0]
    assert not compare.claim_met(parent[:9], [v - 1 for v in parent[:9]],
                                 "lower")[0]
    mixed = [v - 1 if i % 3 else v + 1 for i, v in enumerate(parent)]
    assert not compare.claim_met(parent, mixed, "lower")[0]
