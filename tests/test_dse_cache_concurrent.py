"""Concurrent multi-process ResultCache access: no lost writes, no
torn reads.

Several worker processes hammer one cache directory with overlapping
keys — putting, getting, and corrupting entries — while the parent
asserts the invariants the shared store promises: every read returns
either a complete, checksum-verified payload or a miss (never a torn
value), and every key that any process wrote survives (unless
deliberately corrupted).
"""

import json
import multiprocessing
import os

import pytest

from repro.dse.cache import ResultCache, result_key

KEYS = 16  # deliberately overlapping across workers
WORKERS = 4
ROUNDS = 25


def shared_key(i):
    return result_key(f"profile-{i % KEYS}", "shared-config",
                      i % KEYS, 4.0)


def hammer(cache_dir, worker, out):
    """One worker process: interleave puts, gets and corruptions."""
    cache = ResultCache(cache_dir, fault_plan=None)
    torn_reads = 0
    for round_no in range(ROUNDS):
        i = (worker + round_no) % KEYS
        key = shared_key(i)
        payload = {"ipc": float(i), "worker": float(worker),
                   "round": float(round_no)}
        cache.put(key, payload)
        entry = cache.get(key)
        if entry is not None:
            metrics = entry["metrics"]
            # A torn read would show a payload mixing writers or
            # missing fields; checksummed atomic writes forbid both.
            if set(metrics) != {"ipc", "worker", "round"} \
                    or metrics["ipc"] != float(i):
                torn_reads += 1
        if round_no % 7 == worker % 7:
            # Simulate a crashed writer: truncate an entry mid-file.
            victim = cache._path(shared_key((i + 1) % KEYS))
            if victim.exists():
                data = victim.read_bytes()
                victim.write_bytes(data[: max(1, len(data) // 2)])
        cache.get(shared_key((i + 3) % KEYS))
    out.put((worker, torn_reads, cache.stats.hits,
             cache.stats.corrupt_discarded))


class TestConcurrentAccess:
    def test_multiprocess_hammer(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ctx = multiprocessing.get_context("spawn")
        out = ctx.Queue()
        procs = [ctx.Process(target=hammer,
                             args=(str(cache_dir), worker, out))
                 for worker in range(WORKERS)]
        for proc in procs:
            proc.start()
        results = [out.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        torn = sum(r[1] for r in results)
        hits = sum(r[2] for r in results)
        assert torn == 0, f"{torn} torn read(s) observed"
        assert hits > 0  # the processes genuinely overlapped

        # Every written key that no worker corrupted reads back
        # complete; a corrupted one is discarded as a miss, never torn.
        cache = ResultCache(cache_dir, fault_plan=None)
        readable = 0
        for i in range(KEYS):
            entry = cache.get(shared_key(i))
            if entry is None:
                continue
            readable += 1
            metrics = entry["metrics"]
            assert set(metrics) == {"ipc", "worker", "round"}
            assert metrics["ipc"] == float(i)
        assert readable > 0
        assert len(list((cache_dir / "objects").glob("*/*.json"))) \
            == readable

    def test_two_processes_interleaved_puts_no_lost_writes(self,
                                                           tmp_path):
        """Distinct key sets from two processes: every write must
        survive."""
        cache_dir = tmp_path / "cache"
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_fill_range,
                             args=(str(cache_dir), start))
                 for start in (0, 30)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        cache = ResultCache(cache_dir, fault_plan=None)
        assert len(list((cache_dir / "objects").glob("*/*.json"))) == 60
        for i in range(60):
            entry = cache.get(result_key(f"p{i}", "c", i, 4.0))
            assert entry is not None
            assert entry["metrics"]["ipc"] == float(i)


def _fill_range(cache_dir, start):
    cache = ResultCache(cache_dir, fault_plan=None)
    for i in range(start, start + 30):
        cache.put(result_key(f"p{i}", "c", i, 4.0),
                  {"ipc": float(i)})
