"""The crash flight recorder: ring buffer, dump format, hooks."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import events, flightrec
from repro.obs.flightrec import FLIGHT_SCHEMA, FlightRecorder

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def clean_hooks():
    flightrec.uninstall()
    yield
    flightrec.uninstall()


def read_dump(path):
    lines = [json.loads(line)
             for line in path.read_text().splitlines()]
    return lines[0], lines[1:]


class TestRingBuffer:
    def test_capacity_keeps_only_the_tail(self, tmp_path):
        recorder = FlightRecorder(tmp_path, capacity=4)
        for index in range(10):
            recorder.record({"event": "tick", "seq": index})
        assert len(recorder) == 4
        path = recorder.dump("test")
        header, body = read_dump(path)
        assert [entry["seq"] for entry in body] == [6, 7, 8, 9]
        assert header["events"] == 4
        assert header["capacity"] == 4

    def test_dump_header_contract(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        recorder.record({"event": "one"})
        path = recorder.dump("chaos-worker-kill", token="t1",
                             dispatch=3)
        assert path == tmp_path / f"flightrec-{os.getpid()}.jsonl"
        header, body = read_dump(path)
        assert header["schema"] == FLIGHT_SCHEMA
        assert header["kind"] == "flightrec"
        assert header["reason"] == "chaos-worker-kill"
        assert header["pid"] == os.getpid()
        assert header["token"] == "t1" and header["dispatch"] == 3
        assert body == [{"event": "one"}]

    def test_repeated_dump_overwrites(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        recorder.record({"event": "a"})
        recorder.dump("first")
        recorder.record({"event": "b"})
        header, body = read_dump(recorder.dump("second"))
        assert header["reason"] == "second"
        assert [entry["event"] for entry in body] == ["a", "b"]

    def test_unserializable_fields_survive_via_repr(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        recorder.record({"event": "odd", "obj": object()})
        _header, (entry,) = read_dump(recorder.dump("test"))
        assert entry["obj"].startswith("<object object")

    def test_unwritable_directory_returns_none(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        recorder = FlightRecorder(blocker / "sub")
        recorder.record({"event": "x"})
        assert recorder.dump("test") is None


class TestInstall:
    def test_install_records_emitted_events(self, tmp_path):
        recorder = flightrec.install(tmp_path, signals=False)
        events.emit("unit_start", level="debug", unit="u1")
        assert len(recorder) >= 1
        _header, body = read_dump(recorder.dump("test"))
        assert any(entry.get("event") == "unit_start"
                   for entry in body)

    def test_install_is_idempotent(self, tmp_path):
        first = flightrec.install(tmp_path, signals=False)
        second = flightrec.install(tmp_path, signals=False)
        assert flightrec.installed() is second
        events.emit("unit_start", level="debug")
        assert len(first) == 0  # old sink was removed

    def test_uninstall_removes_sink_and_module_dump(self, tmp_path):
        flightrec.install(tmp_path, signals=False)
        flightrec.uninstall()
        assert flightrec.installed() is None
        events.emit("unit_start", level="debug")
        assert flightrec.dump("test") is None

    def test_module_dump_uses_installed_recorder(self, tmp_path):
        flightrec.install(tmp_path, signals=False)
        events.emit("unit_ok", level="debug")
        path = flightrec.dump("chaos-worker-kill")
        assert path is not None and path.exists()


class TestDeathDumps:
    def _run(self, tmp_path, body, timeout=60):
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from repro.obs import flightrec\n"
            "from repro.obs import events\n"
            f"flightrec.install({str(tmp_path)!r})\n"
            "events.emit('unit_start', level='debug', unit='victim')\n"
            + body)
        return subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              timeout=timeout)

    def _single_dump(self, tmp_path):
        (dump,) = list(Path(tmp_path).glob("flightrec-*.jsonl"))
        return read_dump(dump)

    def test_unhandled_exception_dumps(self, tmp_path):
        proc = self._run(tmp_path, "raise RuntimeError('boom')\n")
        assert proc.returncode == 1
        assert "boom" in proc.stderr  # traceback still prints
        header, body = self._single_dump(tmp_path)
        assert header["reason"] == "unhandled-exception"
        assert "RuntimeError: boom" in header["error"]
        assert any(entry.get("event") == "unit_start"
                   for entry in body)

    def test_sigterm_dumps_and_preserves_exit_status(self, tmp_path):
        proc = self._run(
            tmp_path,
            "import os, signal\n"
            "os.kill(os.getpid(), signal.SIGTERM)\n")
        # The handler re-delivers, so the exit status still says
        # "killed by SIGTERM" — crash attribution stays innocent.
        assert proc.returncode == -signal.SIGTERM
        header, _body = self._single_dump(tmp_path)
        assert header["reason"] == "sigterm"

    @pytest.mark.parametrize("lock", [
        "flightrec.installed()._lock",
        "__import__('repro.obs.metrics').obs.metrics.get_registry()._lock",
    ], ids=["recorder", "registry"])
    def test_sigterm_while_main_thread_holds_a_lock(self, tmp_path, lock):
        # A pool worker can take SIGTERM inside ``record`` or inside a
        # registry call; the handler runs on that same thread, so it
        # must not wait for either (non-reentrant) lock.
        try:
            proc = self._run(
                tmp_path,
                "import os, signal, time\n"
                f"{lock}.acquire()\n"
                "os.kill(os.getpid(), signal.SIGTERM)\n"
                "time.sleep(60)\n",
                timeout=20)
        except subprocess.TimeoutExpired:
            pytest.fail("SIGTERM handler deadlocked on a held lock")
        assert proc.returncode == -signal.SIGTERM
        header, body = self._single_dump(tmp_path)
        assert header["reason"] == "sigterm"
        assert any(entry.get("event") == "unit_start" for entry in body)
