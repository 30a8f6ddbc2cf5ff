"""Kill -9 drill: a ``repro dse`` sweep survives the death of its parent.

A 2-worker sweep, slowed by the ``slow-call`` chaos site so that it can
be caught mid-run, is SIGKILLed once at least four evaluations reached
the result cache.  ``--resume`` then has to

* find every entry the killed sweep cached, and evaluate exactly the
  rest of the grid (its ``dse.cache_hits`` / ``dse.evaluated``);
* end with a cache whose every entry equals a serial fault-free run's;

while the killed parent leaves no pool worker running five seconds
after the kill, and no lease directory behind.

The CI dse-smoke job runs :func:`run_drill` on its smoke grid; the
tier-1 test below runs it on a twelve-point grid.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.runner.checkpoint import read_json_checked

SRC = Path(__file__).resolve().parents[1] / "src"

#: Twelve points; at the quick scale's two seeds, 24 evaluations.
SPEC = {"name": "kill9", "mode": "grid",
        "parameters": {"ruu_size": [16, 32, 64], "lsq_size": [8, 16],
                       "width": [2, 4]}}

SLOW_CHAOS = "seed=1;slow-call:delay=0.2"


def _entries(cache: Path) -> List[Path]:
    return sorted(cache.glob("objects/*/*.json"))


def _stat(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` fields after the command name (state is
    field 0, ppid field 1, start time field 19), or None once the
    process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def _children(parent: int) -> Dict[int, str]:
    """pid -> start time of every live child of *parent*."""
    children = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat(int(entry.name))
        if fields is not None and int(fields[1]) == parent:
            children[int(entry.name)] = fields[19]
    return children


def _still_running(pid: int, started: str) -> bool:
    """Whether *pid* is the same process as before and not a zombie."""
    fields = _stat(pid)
    return fields is not None and fields[19] == started \
        and fields[0] != "Z"


def _dse(spec: Path, cache: Path, jobs: int,
         log_dir: Optional[Path] = None, *extra: str) -> List[str]:
    argv = [sys.executable, "-m", "repro", "dse", "--sweep", str(spec),
            "--benchmark", "gzip", "--scale", "quick", "--jobs",
            str(jobs), "--no-verify", "--cache-dir", str(cache), "-q"]
    if log_dir is not None:
        argv += ["--log-json", str(log_dir / "events.jsonl")]
    return argv + list(extra)


def run_drill(work: Path, spec: Path, evaluations: int) -> Dict[str, int]:
    """Kill a 2-worker sweep of *spec* mid-run, resume it and check the
    outcome; everything lands under *work*.  Returns the counts."""
    work.mkdir(parents=True, exist_ok=True)
    tmp = work / "tmp"  # TMPDIR of every sweep: its lease directories
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("REPRO_CHAOS", None)
    cache = work / "cache"

    with open(work / "killed.out", "w") as out:
        sweep = subprocess.Popen(
            _dse(spec, cache, 2, work / "killed"), stdout=out,
            stderr=subprocess.STDOUT,
            env=dict(env, REPRO_CHAOS=SLOW_CHAOS))
    workers: Dict[int, str] = {}
    try:
        return _kill_and_resume(work, spec, evaluations, env, sweep,
                                workers)
    finally:
        # A failed drill must not leak the sweep or its workers.
        for pid, started in [(sweep.pid, None), *workers.items()]:
            if started is None or _still_running(pid, started):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        sweep.wait()


def _kill_and_resume(work: Path, spec: Path, evaluations: int,
                     env: Dict[str, str], sweep: subprocess.Popen,
                     workers: Dict[int, str]) -> Dict[str, int]:
    cache = work / "cache"
    tmp = Path(env["TMPDIR"])
    events = work / "killed" / "events.jsonl"
    deadline = time.monotonic() + 120
    # Kill once four entries are cached.  A sweep that caches nothing
    # until it returns is killed once half its evaluations finished.
    while sweep.poll() is None and time.monotonic() < deadline:
        finished = (events.read_text().count('"unit_ok"')
                    if events.exists() else 0)
        if len(_entries(cache)) >= 4 or finished >= evaluations // 2:
            break
        time.sleep(0.02)
    assert sweep.poll() is None, "the sweep ended before the kill"
    workers.update(_children(sweep.pid))
    sweep.send_signal(signal.SIGKILL)
    sweep.wait()
    killed_at = time.monotonic()
    survived = len(_entries(cache))
    assert 4 <= survived < evaluations, \
        f"{survived} of {evaluations} evaluations survived the kill"
    assert workers, "the killed sweep had no pool workers"

    resumed = subprocess.run(
        _dse(spec, cache, 2, work / "resumed", "--resume"), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300)
    assert resumed.returncode == 0, resumed.stdout
    counters = json.loads(
        (work / "resumed" / "metrics.json").read_text())["counters"]
    assert counters["dse.cache_hits"] == survived, counters
    assert counters["dse.evaluated"] == evaluations - survived, counters

    baseline = work / "baseline"
    serial = subprocess.run(_dse(spec, baseline, 1), env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            timeout=300)
    assert serial.returncode == 0, serial.stdout
    entries = _entries(cache)
    assert len(entries) == evaluations
    for entry in entries:
        twin = baseline / entry.relative_to(cache)
        assert read_json_checked(entry)["metrics"] \
            == read_json_checked(twin)["metrics"], entry

    time.sleep(max(0.0, killed_at + 5.0 - time.monotonic()))
    running = [pid for pid, started in workers.items()
               if _still_running(pid, started)]
    assert not running, f"workers {running} outlived the killed sweep"
    leftover = sorted(path.name for path in tmp.glob("repro-leases-*"))
    assert not leftover, f"lease directories left behind: {leftover}"
    return {"survived": survived, "evaluations": evaluations,
            "workers": len(workers)}


def test_killed_sweep_resumes_without_reevaluating(tmp_path):
    import pytest

    if not Path("/proc/self/stat").exists():
        pytest.skip("reads process states from /proc")
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(SPEC))
    counts = run_drill(tmp_path / "drill", spec, evaluations=24)
    assert counts["workers"] == 2
