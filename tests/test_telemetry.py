"""Fleet telemetry: context propagation, trace files, stitching, and
the end-to-end acceptance paths (multi-process sweep -> one trace;
chaos worker-kill -> flight recorder in the quarantine manifest)."""

import json
import os
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.obs import flightrec, telemetry
from repro.obs.telemetry import TraceContext
from repro.obs.traceview import (
    build_tree,
    load_spans,
    split_traces,
    to_chrome_trace,
)
from repro.obs.tracing import current_span_id, trace_span


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset()
    flightrec.uninstall()
    obs.reset_registry()
    yield
    telemetry.reset()
    flightrec.uninstall()
    obs.reset_registry()


class TestTraceContext:
    def test_wire_round_trip(self):
        context = TraceContext()
        restored = TraceContext.from_wire(context.to_wire())
        assert restored.trace_id == context.trace_id
        assert restored.parent_span_id is None

    def test_child_keeps_trace_id(self):
        context = TraceContext()
        child = context.child("abc123")
        assert child.trace_id == context.trace_id
        assert child.parent_span_id == "abc123"

    @pytest.mark.parametrize("payload", [
        None, {}, {"parent": "x"}, "garbage", 42, {"trace": ""}])
    def test_from_wire_rejects_garbage(self, payload):
        assert TraceContext.from_wire(payload) is None

    def test_trace_id_is_32_hex(self):
        assert len(TraceContext().trace_id) == 32
        int(TraceContext().trace_id, 16)


class TestProcessTelemetry:
    def test_inactive_by_default(self):
        assert telemetry.current_context() is None
        assert telemetry.propagation_payload() is None
        assert telemetry.adopt(None) is None

    def test_start_activates_and_reset_deactivates(self, tmp_path):
        context = telemetry.start(trace_dir=tmp_path)
        assert telemetry.current_context() is context
        assert telemetry.trace_directory() == tmp_path
        telemetry.reset()
        assert telemetry.current_context() is None

    def test_propagation_carries_innermost_span(self, tmp_path):
        telemetry.start(trace_dir=tmp_path)
        with trace_span("sweep"):
            payload = telemetry.propagation_payload()
            assert payload["parent"] == current_span_id()
            assert payload["trace_dir"] == str(tmp_path)

    def test_adopt_round_trip(self, tmp_path):
        context = telemetry.start(trace_dir=tmp_path)
        payload = telemetry.propagation_payload()
        telemetry.reset()
        adopted = telemetry.adopt(payload)
        assert adopted.trace_id == context.trace_id
        assert telemetry.trace_directory() == tmp_path

    def test_spans_written_and_linked(self, tmp_path):
        telemetry.start(trace_dir=tmp_path)
        with trace_span("outer", bench="gzip"):
            with trace_span("inner"):
                pass
        spans = load_spans(tmp_path)
        assert len(spans) == 2
        by_phase = {span["phase"]: span for span in spans}
        assert by_phase["inner"]["parent"] == by_phase["outer"]["span"]
        assert by_phase["outer"]["parent"] is None
        assert by_phase["outer"]["fields"]["bench"] == "gzip"
        assert all(span["pid"] == os.getpid() for span in spans)

    def test_no_trace_dir_no_files(self, tmp_path):
        telemetry.start()
        with trace_span("outer"):
            pass
        assert load_spans(tmp_path) == []

    def test_events_carry_trace_and_pid(self, tmp_path):
        telemetry.start(trace_dir=tmp_path)
        captured = []
        obs.add_sink(captured.append)
        try:
            obs.emit("run_start", level="debug")
        finally:
            obs.remove_sink(captured.append)
        (event,) = captured
        assert event["trace"] == telemetry.current_context().trace_id
        assert event["pid"] == os.getpid()

    def test_flush_metrics_writes_per_pid_file(self, tmp_path):
        telemetry.start(trace_dir=tmp_path)
        obs.get_registry().counter("dse.evaluated").inc()
        path = telemetry.flush_metrics(force=True)
        assert path == tmp_path / f"metrics-{os.getpid()}.json"
        payload = json.loads(path.read_text())
        assert payload["counters"]["dse.evaluated"] == 1


class TestTraceTree:
    def make_spans(self):
        return [
            {"trace": "t1", "span": "a", "parent": None, "pid": 1,
             "phase": "cli", "ts": 1.0, "elapsed": 5.0},
            {"trace": "t1", "span": "b", "parent": "a", "pid": 1,
             "phase": "sweep", "ts": 1.1, "elapsed": 4.0},
            {"trace": "t1", "span": "c", "parent": "b", "pid": 2,
             "phase": "evaluate", "ts": 1.2, "elapsed": 3.0},
            {"trace": "t1", "span": "d", "parent": "b", "pid": 3,
             "phase": "evaluate", "ts": 1.3, "elapsed": 1.0},
        ]

    def test_single_root_and_pids(self):
        tree = build_tree(self.make_spans())
        assert tree.single_rooted() and tree.acyclic()
        assert tree.pids() == [1, 2, 3]

    def test_critical_path_descends_slowest_child(self):
        tree = build_tree(self.make_spans())
        assert [s["span"] for s in tree.critical_path()] \
            == ["a", "b", "c"]

    def test_render_marks_critical_path_and_pids(self):
        rendered = build_tree(self.make_spans()).render()
        assert "critical path: cli[5.000s] -> sweep[4.000s] " \
            "-> evaluate[3.000s]" in rendered
        assert "pid=3" in rendered

    def test_unknown_parent_flagged_not_fatal(self):
        spans = self.make_spans()
        spans[2]["parent"] = "ghost"
        tree = build_tree(spans)
        assert not tree.single_rooted()
        assert any("unknown parent" in p for p in tree.problems)

    def test_cycle_detected(self):
        spans = self.make_spans()
        spans[0]["parent"] = "c"  # a -> b -> c -> a
        tree = build_tree(spans)
        assert not tree.acyclic()

    def test_split_traces_and_default_selection(self):
        spans = self.make_spans() + [
            {"trace": "t2", "span": "z", "parent": None, "pid": 9,
             "phase": "cli", "ts": 2.0, "elapsed": 0.1}]
        assert set(split_traces(spans)) == {"t1", "t2"}
        assert build_tree(spans).trace_id == "t1"  # most spans wins
        assert build_tree(spans, trace_id="t2").trace_id == "t2"

    def test_chrome_trace_export_shape(self):
        doc = to_chrome_trace(build_tree(self.make_spans()))
        events = doc["traceEvents"]
        assert len(events) == 4
        assert all(event["ph"] == "X" for event in events)
        assert all(event["ts"] >= 0 and event["dur"] >= 0
                   for event in events)
        assert {event["pid"] for event in events} == {1, 2, 3}
        assert doc["otherData"]["trace_id"] == "t1"
        json.dumps(doc)  # must be serializable as-is


def write_sweep(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "name": "tele", "mode": "grid",
        "parameters": {"ruu_size": [32, 64, 128], "width": [2, 4]},
    }))
    return str(path)


class TestEndToEnd:
    def test_parallel_sweep_stitches_one_trace(self, tmp_path, capsys):
        trace_dir = tmp_path / "run"
        rc = main(["dse", "--sweep", write_sweep(tmp_path),
                   "--benchmark", "gzip", "--seeds", "0", "-R", "4",
                   "--jobs", "2", "--no-verify", "-q",
                   "--trace-dir", str(trace_dir)])
        assert rc == 0
        spans = load_spans(trace_dir)
        assert len(split_traces(spans)) == 1
        tree = build_tree(spans)
        assert tree.single_rooted(), tree.problems
        assert tree.acyclic(), tree.problems
        assert len(tree.pids()) >= 3  # CLI + at least 2 workers
        root = tree.by_id[tree.roots[0]]
        assert root["phase"] == "cli"
        # worker evaluate spans hang off the parent's sweep span
        sweep_spans = [s for s in spans if s["phase"] == "sweep"]
        evaluates = [s for s in spans if s["phase"] == "evaluate"]
        assert len(evaluates) == 6
        assert {s["parent"] for s in evaluates} \
            == {sweep_spans[0]["span"]}
        assert {s["pid"] for s in evaluates} != {os.getpid()}

        capsys.readouterr()
        assert main(["trace", str(trace_dir), "-q"]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert f"{len(spans)} spans" in out

        # per-process metrics flushed alongside the spans
        assert list(trace_dir.glob("metrics-*.json"))

    def test_trace_command_exports(self, tmp_path, capsys):
        telemetry.start(trace_dir=tmp_path)
        with trace_span("cli", command="x"):
            with trace_span("sweep"):
                pass
        telemetry.flush_metrics(force=True)
        telemetry.reset()
        export = tmp_path / "out" / "perfetto.json"
        metrics = tmp_path / "out" / "metrics.txt"
        rc = main(["trace", str(tmp_path), "-q",
                   "--export", str(export),
                   "--openmetrics", str(metrics)])
        assert rc == 0
        doc = json.loads(export.read_text())
        assert doc["traceEvents"]
        from repro.obs.exposition import validate_openmetrics
        assert validate_openmetrics(metrics.read_text()) == []

    def test_trace_command_empty_dir_errors(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path), "-q"]) == 2
        assert "no trace-" in capsys.readouterr().err

    def test_chaos_kill_links_flight_recorder(self, tmp_path):
        from repro.config import baseline_config
        from repro.core.profiler import profile_trace
        from repro.dse import SupervisorPolicy, SweepEngine, SweepSpec
        from repro import faults
        from repro.faults import ChaosPlan
        from repro.frontend.functional import run_program
        from repro.workloads.generator import (WorkloadConfig,
                                               generate_program)

        program = generate_program(WorkloadConfig(
            name="unit", seed=7, n_blocks=12, mean_block_size=4,
            working_set_kb=32, n_memory_streams=4))
        trace = run_program(program, n_instructions=1200)
        profile = profile_trace(trace, baseline_config(), order=1)
        points = SweepSpec(name="tele", mode="grid", parameters=(
            ("ruu_size", (16, 32)), ("lsq_size", (8,)),
            ("width", (2,)))).expand()

        engine = SweepEngine(
            profile, jobs=2, experiment="tele", benchmark="unit",
            supervisor_policy=SupervisorPolicy(max_point_retries=0),
            quarantine_path=tmp_path / "poison.json")
        with faults.use(ChaosPlan.parse("worker-kill:match=ruu_size=16")):
            sweep = engine.evaluate(points, seeds=(0,),
                                    reduction_factor=12.0)
        assert sweep.quarantined == 1

        payload = json.loads((tmp_path / "poison.json").read_text())
        (record,) = payload["quarantined"]
        flight = record["flight_recorder"]
        assert flight, "quarantine record must link the flight dump"
        dump_path = Path(flight)
        assert dump_path.exists()
        assert dump_path.parent == tmp_path  # next to the manifest
        header = json.loads(dump_path.read_text().splitlines()[0])
        assert header["kind"] == "flightrec"
        assert header["reason"] == "chaos-worker-kill"
