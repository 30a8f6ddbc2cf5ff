"""``runner.CollectorScope``: the collector is tuned inside a study and
left exactly as found outside it."""

import gc
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import get_registry
from repro.runner import CollectorScope, TaskRunner, WorkUnit
from repro.runner.collector import THRESHOLDS

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def collector():
    """The collector's state before the test, restored after it."""
    thresholds = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    assert gc.get_freeze_count() == 0
    yield
    gc.set_threshold(*thresholds)


def state():
    return gc.get_threshold(), gc.get_freeze_count()


def test_normal_exit_restores(collector):
    before = state()
    with CollectorScope():
        assert gc.get_threshold() == THRESHOLDS
        assert gc.get_freeze_count() > 0
    assert state() == before


def test_exception_restores(collector):
    before = state()
    with pytest.raises(ValueError):
        with CollectorScope():
            raise ValueError("boom")
    assert state() == before


def test_keyboard_interrupt_restores(collector):
    before = state()
    with pytest.raises(KeyboardInterrupt):
        with CollectorScope():
            raise KeyboardInterrupt
    assert state() == before


def test_nested_scope_does_nothing(collector):
    before = state()
    with CollectorScope():
        frozen = gc.get_freeze_count()
        gc.set_threshold(*THRESHOLDS)
        with pytest.raises(RuntimeError):
            with CollectorScope():
                assert gc.get_freeze_count() == frozen
                raise RuntimeError
        # The inner exit left the outer scope in force.
        assert gc.get_threshold() == THRESHOLDS
        assert gc.get_freeze_count() == frozen
    assert state() == before


def test_outermost_exit_counts_collections(collector):
    registry = get_registry()
    names = [f"gc.gen{generation}_collections" for generation in range(3)]
    before = [registry.counter(name).value for name in names]
    with CollectorScope():
        with CollectorScope():
            gc.collect(0)
            gc.collect(1)
            gc.collect()
    after = [registry.counter(name).value for name in names]
    # At least the explicit passes (an automatic one may add to them).
    assert all(b - a >= 1 for a, b in zip(before, after)), (before, after)


def test_task_runner_runs_its_units_in_scope(collector):
    before = state()
    seen = []
    TaskRunner().run([WorkUnit(experiment="exp", benchmark="b")],
                     lambda unit: seen.append(gc.get_threshold()))
    assert seen == [THRESHOLDS]
    assert state() == before
    assert "gc.gen0_collections" in get_registry().snapshot()["counters"]


def test_run_study_runs_in_scope(collector, monkeypatch):
    from repro.dse import study

    seen = []

    def profile_benchmark(benchmark, scale):
        seen.append(gc.get_threshold())
        raise KeyboardInterrupt

    before = state()
    monkeypatch.setattr(study, "profile_benchmark", profile_benchmark)
    with pytest.raises(KeyboardInterrupt):
        study.run_study(None, "gzip", None)
    assert seen == [THRESHOLDS]
    assert state() == before


def test_import_leaves_the_collector_alone():
    code = ("import gc; before = gc.get_threshold(); import repro.cli, "
            "repro.dse.study, repro.dse.engine; "
            "assert gc.get_threshold() == before, gc.get_threshold(); "
            "assert gc.get_freeze_count() == 0")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={"PYTHONPATH": str(SRC)})



def test_pool_workers_enter_the_scope_for_life(collector, tiny_trace,
                                               config):
    """A pool worker evaluates with the study thresholds; the same
    initializer called in-process leaves the collector alone."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro import faults
    from repro.core.profiler import profile_trace
    from repro.core.serialization import profile_to_dict
    from repro.dse import engine

    payload = profile_to_dict(profile_trace(tiny_trace, config))
    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn"),
            initializer=engine._worker_init,
            initargs=(payload, 4.0)) as pool:
        assert pool.submit(gc.get_threshold).result(timeout=120) == \
            THRESHOLDS
        assert pool.submit(gc.get_freeze_count).result(timeout=120) > 0
    before = state()
    try:
        with faults.use(None):
            engine._worker_init(payload, 4.0)
        assert state() == before
    finally:
        engine._WORKER_PROFILE = None
