"""Unit tests for the observability layer (repro.obs): structured
events, metrics registry round-trips, phase tracing, profiling hook."""

import json
import logging
import os

import pytest

from repro import obs
from repro.obs.metrics import PHASE_PREFIX, MetricsRegistry, TimingHistogram
from repro.obs.tracing import current_span


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts unconfigured with a fresh registry."""
    obs.reset()
    obs.reset_registry()
    yield
    obs.reset()
    obs.reset_registry()


def read_events(path):
    return [json.loads(line)
            for line in path.read_text().splitlines() if line]


class TestEventLog:
    def test_jsonl_schema_stability(self, tmp_path):
        """Every emitted line parses as JSON and carries the stable
        required fields with a monotonic sequence number."""
        log = tmp_path / "events.jsonl"
        run = obs.configure(console=False, log_json=log)
        obs.emit("alpha", level="debug", bench="gzip")
        obs.info("progress line", event="status", step=2)
        obs.warn("something odd")
        obs.error("broke")
        events = read_events(log)
        assert len(events) == 4
        for record in events:
            for field in obs.REQUIRED_FIELDS:
                assert field in record, f"missing {field}: {record}"
            assert record["schema"] == obs.SCHEMA
            assert record["run"] == run
        assert [r["seq"] for r in events] == [1, 2, 3, 4]
        assert [r["level"] for r in events] == \
            ["debug", "info", "warning", "error"]
        assert events[0]["bench"] == "gzip"
        assert events[1]["msg"] == "progress line"

    def test_timestamps_monotonic(self, tmp_path):
        log = tmp_path / "events.jsonl"
        obs.configure(console=False, log_json=log)
        for index in range(5):
            obs.emit("tick", level="debug", index=index)
        offsets = [r["t"] for r in read_events(log)]
        assert offsets == sorted(offsets)
        assert all(t >= 0 for t in offsets)

    def test_console_error_prefix_and_levels(self, tmp_path, capsys):
        """Default console shows info+ with the traditional error:
        prefix; debug events stay off the console but reach the sink."""
        log = tmp_path / "events.jsonl"
        obs.configure(log_json=log)
        obs.debug("hidden detail")
        obs.info("visible progress")
        obs.error("it failed")
        err = capsys.readouterr().err
        assert "hidden detail" not in err
        assert "visible progress" in err
        assert "error: it failed" in err
        assert len(read_events(log)) == 3  # sink records everything

    def test_quiet_console_level(self, capsys):
        obs.configure(console_level="warning")
        obs.info("suppressed")
        obs.warn("kept")
        err = capsys.readouterr().err
        assert "suppressed" not in err
        assert "warning: kept" in err

    def test_reconfigure_replaces_handlers(self, tmp_path):
        """Repeated configure() calls (one per CLI invocation) must not
        accumulate handlers or duplicate lines."""
        log = tmp_path / "events.jsonl"
        obs.configure(console=False, log_json=log)
        obs.configure(console=False, log_json=log)
        obs.info("once")
        logger = logging.getLogger("repro.obs")
        assert len(logger.handlers) == 1
        assert len(read_events(log)) == 1

    def test_unconfigured_emit_is_silent_noop(self, capsys):
        obs.emit("orphan", level="info")
        assert capsys.readouterr().err == ""

    def test_unknown_profile_mode_rejected(self):
        with pytest.raises(ValueError, match="profile mode"):
            obs.configure(console=False, profile="perf")


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("runner.retries").inc()
        registry.counter("runner.retries").inc(2)
        registry.gauge("pipeline.ipc").set(1.25)
        for value in (0.5, 1.5, 1.0):
            registry.histogram("phase.simulate").observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["runner.retries"] == 3
        assert snap["gauges"]["pipeline.ipc"] == 1.25
        hist = snap["histograms"]["phase.simulate"]
        assert hist["count"] == 3
        assert hist["min"] == 0.5 and hist["max"] == 1.5
        assert hist["mean"] == pytest.approx(1.0)
        assert snap["phases"] == {"simulate": hist}

    def test_counters_refuse_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_failed_write_keeps_previous_file_and_no_tmp(
            self, tmp_path, monkeypatch):
        registry = MetricsRegistry()
        registry.counter("runner.units_ok").inc()
        path = registry.write(tmp_path / "metrics.json")
        previous = path.read_bytes()
        registry.counter("runner.units_ok").inc()

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            registry.write(path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert path.read_bytes() == previous

    def test_snapshot_round_trip_through_metrics_json(self, tmp_path):
        """write() -> read() -> snapshot() reproduces the original
        counters, gauges, histograms and derived phases."""
        registry = MetricsRegistry()
        registry.counter("runner.units_ok").inc(4)
        registry.counter("dse.cache_hits").inc(7)
        registry.gauge("pipeline.ruu_occupancy").set(43.5)
        registry.histogram("phase.profile").observe(0.2)
        registry.histogram("phase.synthesize").observe(0.05)
        registry.histogram("runner.unit_seconds").observe(1.5)
        path = registry.write(tmp_path / "metrics.json")

        restored = MetricsRegistry.read(path)
        original, recovered = registry.snapshot(), restored.snapshot()
        for section in ("counters", "gauges", "histograms", "phases"):
            assert recovered[section] == original[section]
        # and the file itself is plain, stable JSON
        payload = json.loads(path.read_text())
        assert payload["schema"] == obs.SNAPSHOT_SCHEMA
        assert set(payload["phases"]) == {"profile", "synthesize"}

    def test_histogram_payload_round_trip(self):
        hist = TimingHistogram()
        hist.observe(2.0)
        hist.observe(4.0)
        clone = TimingHistogram.from_payload(hist.to_payload())
        assert clone.to_payload() == hist.to_payload()

    def test_histogram_percentiles_in_payload(self):
        hist = TimingHistogram()
        for value in [0.01] * 90 + [0.5] * 9 + [8.0]:
            hist.observe(value)
        payload = hist.to_payload()
        # Log2 buckets: an estimate is the bucket's upper bound, so
        # it is within 2x above the true quantile, never below its
        # bucket's floor.
        assert 0.01 <= payload["p50"] <= 0.02
        assert 0.5 <= payload["p95"] <= 1.0
        assert 0.5 <= payload["p99"] <= 1.0  # rank 99 of 100 is a 0.5
        assert hist.percentile(1.0) == pytest.approx(8.0)

    def test_histogram_percentile_bounds(self):
        hist = TimingHistogram()
        assert hist.percentile(0.5) is None  # empty
        hist.observe(3.0)
        assert hist.percentile(0.5) == pytest.approx(3.0)
        assert hist.percentile(1.0) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_histogram_percentile_clamped_to_observed_range(self):
        hist = TimingHistogram()
        for value in (3.0, 3.5):  # both in the (2, 4] bucket
            hist.observe(value)
        # The bucket bound (4.0) exceeds the true max; clamp wins.
        assert hist.percentile(0.99) == pytest.approx(3.5)

    def test_histogram_zero_and_negative_observations(self):
        hist = TimingHistogram()
        hist.observe(0.0)
        hist.observe(-1.0)
        hist.observe(2.0)
        payload = hist.to_payload()
        assert payload["count"] == 3
        assert payload["p50"] == pytest.approx(0.0)

    def test_histogram_merge_sums_buckets(self):
        left, right = TimingHistogram(), TimingHistogram()
        for value in (0.1, 0.2):
            left.observe(value)
        for value in (4.0, 8.0):
            right.observe(value)
        merged = left.merge(right)
        assert merged is left
        assert merged.count == 4
        assert merged.min == pytest.approx(0.1)
        assert merged.max == pytest.approx(8.0)
        assert merged.percentile(0.99) == pytest.approx(8.0)

    def test_percentiles_survive_round_trip(self):
        hist = TimingHistogram()
        for value in (0.1, 0.5, 2.0, 9.0):
            hist.observe(value)
        clone = TimingHistogram.from_payload(hist.to_payload())
        for quantile in (0.5, 0.95, 0.99):
            assert clone.percentile(quantile) \
                == pytest.approx(hist.percentile(quantile))

    def test_record_simulation_publishes_pipeline_metrics(self):
        class FakeResult:
            cycles = 100
            instructions = 150
            squashed_instructions = 7
            branch_mispredictions = 3
            ipc = 1.5
            avg_ruu_occupancy = 40.0
            avg_lsq_occupancy = 12.0
            avg_ifq_occupancy = 6.0
            activity = {"ialu": 90, "l1d": 30}

        registry = MetricsRegistry()
        obs.record_simulation(FakeResult(), registry=registry)
        obs.record_simulation(FakeResult(), registry=registry)
        snap = registry.snapshot()
        assert snap["counters"]["pipeline.runs"] == 2
        assert snap["counters"]["pipeline.cycles"] == 200
        assert snap["counters"]["pipeline.instructions"] == 300
        assert snap["counters"]["pipeline.branch_mispredictions"] == 6
        assert snap["counters"]["pipeline.activity.ialu"] == 180
        assert snap["gauges"]["pipeline.ipc"] == 1.5
        assert snap["gauges"]["pipeline.ruu_occupancy"] == 40.0

    def test_reset_registry_installs_fresh_default(self):
        obs.get_registry().counter("stale").inc()
        obs.reset_registry()
        assert "stale" not in obs.get_registry().snapshot()["counters"]


class TestTracing:
    def test_span_nesting_and_timing_monotonicity(self):
        """Nested spans pop in LIFO order and a child's elapsed time
        never exceeds its parent's."""
        registry = MetricsRegistry()
        with obs.trace_span("synthesize", registry=registry,
                            bench="gzip") as outer:
            assert current_span() is outer
            with obs.trace_span("reduce", registry=registry) as inner:
                assert current_span() is inner
                assert inner.depth == outer.depth + 1
            assert current_span() is outer
            assert inner.elapsed is not None
        assert current_span() is None
        assert outer.elapsed >= inner.elapsed >= 0.0

        phases = registry.snapshot()["phases"]
        assert set(phases) == {"synthesize", "reduce"}
        assert phases["synthesize"]["count"] == 1
        assert phases["synthesize"]["total"] >= phases["reduce"]["total"]

    def test_span_context_fields_reach_events(self, tmp_path):
        """Events emitted inside a span inherit phase/bench/seed."""
        log = tmp_path / "events.jsonl"
        obs.configure(console=False, log_json=log)
        with obs.trace_span("simulate", bench="twolf", seed=3):
            obs.emit("inside", level="debug")
        obs.emit("outside", level="debug")
        by_event = {r["event"]: r for r in read_events(log)}
        assert by_event["inside"]["phase"] == "simulate"
        assert by_event["inside"]["bench"] == "twolf"
        assert by_event["inside"]["seed"] == 3
        assert "phase" not in by_event["outside"]
        end = by_event["span_end"]
        assert end["elapsed"] >= 0.0 and end["bench"] == "twolf"

    def test_span_records_histogram_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with obs.trace_span("profile", registry=registry):
                raise RuntimeError("boom")
        assert registry.snapshot()["phases"]["profile"]["count"] == 1
        assert current_span() is None

    def test_phase_breakdown_view(self):
        registry = MetricsRegistry()
        registry.histogram(PHASE_PREFIX + "profile").observe(1.0)
        registry.counter("runner.retries").inc()
        breakdown = obs.phase_breakdown(registry)
        assert list(breakdown) == ["profile"]


class TestProfilingHook:
    def test_disabled_returns_fn_unchanged(self):
        fn = lambda: 42  # noqa: E731
        assert obs.maybe_profiled(fn, "unit") is fn

    def test_armed_dumps_pstats_per_label(self, tmp_path):
        import pstats

        obs.configure(console=False, profile="cprofile",
                      profile_dir=tmp_path / "profiles")
        wrapped = obs.maybe_profiled(lambda: sum(range(100)),
                                     "table1/gzip")
        assert wrapped() == 4950
        dump = tmp_path / "profiles" / "table1_gzip.pstats"
        assert dump.exists()
        pstats.Stats(str(dump))  # parseable by the stdlib reader

    def test_nested_units_run_unprofiled(self, tmp_path):
        """Only the outermost unit of a thread gets a profiler; the
        inner dump must not exist (two active profilers corrupt)."""
        obs.configure(console=False, profile="cprofile",
                      profile_dir=tmp_path / "profiles")
        inner = obs.maybe_profiled(lambda: "inner", "inner-unit")
        outer = obs.maybe_profiled(inner, "outer-unit")
        assert outer() == "inner"
        assert (tmp_path / "profiles" / "outer-unit.pstats").exists()
        assert not (tmp_path / "profiles" / "inner-unit.pstats").exists()
