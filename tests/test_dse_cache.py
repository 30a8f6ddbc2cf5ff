"""Content-addressed result cache: keying, integrity, fault injection."""

import json

from repro.config import baseline_config
from repro.faults import ChaosPlan, plan_from_env
from repro.dse.cache import ResultCache, result_key
from repro.dse.space import apply_overrides, config_hash

PROFILE_HASH = "p" * 64
METRICS = {"ipc": 1.5, "epc": 20.0, "edp": 8.9,
           "synthetic_instructions": 1000}


def _object_count(cache_dir):
    return len(list(cache_dir.glob("objects/*/*.json")))


class TestKeying:
    def test_key_is_stable(self):
        assert result_key(PROFILE_HASH, "c" * 64, 0, 6.0) == \
            result_key(PROFILE_HASH, "c" * 64, 0, 6.0)

    def test_changed_config_field_misses(self):
        base = baseline_config()
        changed = apply_overrides(base, {"ruu_size": 64})
        assert result_key(PROFILE_HASH, config_hash(base), 0, 6.0) != \
            result_key(PROFILE_HASH, config_hash(changed), 0, 6.0)

    def test_changed_profile_misses(self):
        chash = config_hash(baseline_config())
        assert result_key("a" * 64, chash, 0, 6.0) != \
            result_key("b" * 64, chash, 0, 6.0)

    def test_seed_and_reduction_factor_in_key(self):
        chash = config_hash(baseline_config())
        keys = {result_key(PROFILE_HASH, chash, seed, factor)
                for seed in (0, 1) for factor in (4.0, 6.0)}
        assert len(keys) == 4


class TestStore:
    def test_round_trip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = result_key(PROFILE_HASH, "c" * 64, 0, 6.0)
        assert cache.get(key) is None
        cache.put(key, METRICS, meta={"task_id": "t"})
        entry = cache.get(key)
        assert entry["metrics"] == METRICS
        assert entry["meta"]["task_id"] == "t"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1
        assert _object_count(tmp_path) == 1

    def test_corrupt_entry_discarded_and_remissed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = result_key(PROFILE_HASH, "c" * 64, 0, 6.0)
        path = cache.put(key, METRICS)
        # Bit-flip the payload: the checksum no longer matches.
        data = json.loads(path.read_text())
        data["metrics"]["ipc"] = 99.0
        path.write_text(json.dumps(data))
        assert cache.get(key) is None
        assert cache.stats.corrupt_discarded == 1
        assert not path.exists()  # discarded for re-evaluation

    def test_truncated_entry_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = result_key(PROFILE_HASH, "c" * 64, 0, 6.0)
        path = cache.put(key, METRICS)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(key) is None
        assert cache.stats.corrupt_discarded == 1

    def test_fault_plan_corrupts_fresh_writes(self, tmp_path):
        plan = ChaosPlan.parse("artifact-corrupt:rate=1.0")
        cache = ResultCache(tmp_path, fault_plan=plan)
        key = result_key(PROFILE_HASH, "c" * 64, 0, 6.0)
        cache.put(key, METRICS)
        assert cache.get(key) is None  # injected corruption detected
        assert cache.stats.corrupt_discarded == 1

    def test_fault_plan_from_env_reads_cache_rate(self):
        plan = plan_from_env({"REPRO_CHAOS": "artifact-corrupt:rate=1.0"})
        assert plan is not None
        assert plan.sites["artifact-corrupt"].rate == 1.0
        assert plan_from_env({}) is None


class TestPhantomEntries:
    """A writer killed mid-``put`` leaves no entry behind, only its
    orphaned tmp; the next read of that key is a clean miss and sweeps
    the tmp once its writer pid is dead."""

    def _key(self):
        return result_key(PROFILE_HASH, "c" * 64, 0, 6.0)

    def test_vanished_object_is_a_clean_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._key()
        cache.put(key, METRICS).unlink()
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt_discarded == 0  # a miss, not corruption
        assert _object_count(tmp_path) == 0

    def test_live_writer_tmp_survives_the_sweep(self, tmp_path,
                                                monkeypatch):
        import os

        import repro.dse.cache as cache_mod

        cache = ResultCache(tmp_path)
        key = self._key()
        path = cache.put(key, METRICS)
        path.unlink()
        inflight = path.with_name(f"{path.name}.{os.getpid()}.0.tmp")
        inflight.write_text("{}")  # our own pid: a live writer
        assert ResultCache(tmp_path).get(key) is None
        assert inflight.exists()

        # A live writer owned by another user cannot be signalled:
        # os.kill raises PermissionError, which must read as "alive",
        # not escape from get().
        foreign = path.with_name(f"{path.name}.1.0.tmp")
        foreign.write_text("{}")

        def kill(pid, signum):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(cache_mod.os, "kill", kill)
        assert ResultCache(tmp_path).get(key) is None
        assert foreign.exists()
        assert inflight.exists()

    def test_kill_minus_9_mid_put_leaves_no_phantom(self, tmp_path):
        """End to end: a subprocess is SIGKILLed exactly at the
        ``os.replace`` of a put (tmp written, object never lands).  No
        entry appears; the next reader sees one clean miss and sweeps
        the dead writer's tmp."""
        import os
        import signal
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        key = self._key()
        script = textwrap.dedent(f"""
            import os, signal
            from repro.dse.cache import ResultCache
            import repro.runner.checkpoint as checkpoint

            cache = ResultCache({str(tmp_path)!r})
            # Die at the atomic-rename instant of the put: tmp
            # written, object never lands, finally never runs.
            checkpoint.os.replace = \\
                lambda a, b: os.kill(os.getpid(), signal.SIGKILL)
            cache.put({key!r}, {METRICS!r})
        """)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        orphans = list(tmp_path.rglob("*.tmp"))
        assert orphans, "the kill must strand the writer's tmp"
        assert _object_count(tmp_path) == 0  # no entry landed
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        assert cache.stats.corrupt_discarded == 0
        assert list(tmp_path.rglob("*.tmp")) == []  # debris swept
