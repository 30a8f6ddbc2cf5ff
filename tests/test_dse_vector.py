"""Vector-mode design-space sweeps: cache keying, worker table
warm-up, and serial/parallel agreement.

The columnar draw stream is statistically equivalent to the scalar one
but not identical, so the two modes must never share cache entries;
within one mode, serial and parallel sweeps must stay bit-identical
(the determinism contract the scalar engine already pins).
"""

import numpy as np
import pytest

from repro.core.profiler import profile_trace
from repro.dse.cache import ResultCache, result_key
from repro.dse.engine import SweepEngine, _worker_init, evaluate_metrics
from repro.dse.space import DesignPoint


@pytest.fixture
def profile(small_trace, config):
    return profile_trace(small_trace, config, order=1)


@pytest.fixture
def points(config):
    return [DesignPoint(config=config.with_width(w),
                        params=(("width", w),))
            for w in (2, 4)]


class TestResultKeyMode:
    def test_scalar_mode_preserves_existing_keys(self):
        """mode="scalar" must hash identically to the pre-mode key so
        every existing cache entry stays valid."""
        legacy = result_key("p", "c", 0, 6.0)
        assert result_key("p", "c", 0, 6.0, mode="scalar") == legacy

    def test_vector_mode_gets_distinct_keys(self):
        scalar = result_key("p", "c", 0, 6.0)
        vector = result_key("p", "c", 0, 6.0, mode="vector")
        assert vector != scalar

    def test_vector_keys_are_stable(self):
        assert result_key("p", "c", 0, 6.0, mode="vector") \
            == result_key("p", "c", 0, 6.0, mode="vector")


class TestEvaluateMetricsVector:
    def test_vector_metrics_differ_but_agree(self, profile, config):
        scalar = evaluate_metrics(profile, config, seed=0,
                                  reduction_factor=4.0)
        vector = evaluate_metrics(profile, config, seed=0,
                                  reduction_factor=4.0, vector=True)
        # Same synthetic length (same context multiset), different
        # draws, comparable IPC.
        assert vector["synthetic_instructions"] \
            == scalar["synthetic_instructions"]
        assert vector["ipc"] > 0
        assert abs(vector["ipc"] - scalar["ipc"]) / scalar["ipc"] < 0.5

    def test_vector_metrics_deterministic(self, profile, config):
        a = evaluate_metrics(profile, config, seed=7,
                             reduction_factor=4.0, vector=True)
        b = evaluate_metrics(profile, config, seed=7,
                             reduction_factor=4.0, vector=True)
        assert a == b


class TestVectorSweep:
    def test_serial_and_parallel_metrics_identical(self, profile,
                                                   points):
        serial = SweepEngine(profile, jobs=1, vector=True).evaluate(
            points, seeds=(0, 1), reduction_factor=4.0)
        parallel = SweepEngine(profile, jobs=2, vector=True).evaluate(
            points, seeds=(0, 1), reduction_factor=4.0)
        for s, p in zip(serial.results, parallel.results):
            assert s.per_seed == p.per_seed

    def test_modes_do_not_share_cache_entries(self, profile, points,
                                              tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        scalar = SweepEngine(profile, jobs=1, cache=cache).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert scalar.evaluated == 2 and scalar.cached == 0

        vector_first = SweepEngine(
            profile, jobs=1, cache=cache, vector=True).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        # The scalar entries must NOT satisfy vector lookups.
        assert vector_first.cached == 0
        assert vector_first.evaluated == 2

        vector_again = SweepEngine(
            profile, jobs=1, cache=cache, vector=True).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert vector_again.cached == 2
        assert vector_again.evaluated == 0

        scalar_again = SweepEngine(profile, jobs=1,
                                   cache=cache).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert scalar_again.cached == 2

    def test_parallel_sweep_under_worker_kill_chaos(self, profile,
                                                    points):
        """A vector sweep whose workers are being chaos-killed still
        finishes: the supervisor rebuilds the pool and every task is
        accounted for."""
        from repro.faults import ChaosPlan

        engine = SweepEngine(
            profile, jobs=2, vector=True,
            fault_plan=ChaosPlan.parse("seed=3;worker-kill:rate=0.5"))
        result = engine.evaluate(points, seeds=(0, 1),
                                 reduction_factor=4.0)
        assert result.total_tasks == 4


class TestWorkerInit:
    @pytest.mark.parametrize("vector", [False, True],
                             ids=["scalar", "vector"])
    def test_only_the_sweep_modes_tables_are_warm(self, profile,
                                                  vector):
        """A worker warms the tables its sweep mode evaluates with —
        columnar tables for a vector sweep, scalar recipes otherwise —
        and never both."""
        import repro.dse.engine as engine_mod
        from repro.core.columnar import columnar_tables_cached
        from repro.core.serialization import profile_to_dict
        from repro.core.synthesis import tables_cached

        _worker_init(profile_to_dict(profile), vector=vector)
        try:
            sfg = engine_mod._WORKER_PROFILE.sfg
            assert columnar_tables_cached(sfg) is vector
            assert tables_cached(sfg) is not vector
        finally:
            engine_mod._WORKER_PROFILE = None
            engine_mod._WORKER_FAULT_PLAN = None
