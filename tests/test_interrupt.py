"""Ctrl-C handling: partial sweep results, quarantine manifest, and
the distinct exit status — no raw tracebacks."""

from types import SimpleNamespace

import pytest

from repro import cli
from repro.config import baseline_config
from repro.core.profiler import profile_trace
from repro.errors import SweepInterrupted
from repro.frontend.functional import run_program
from repro.workloads.generator import WorkloadConfig, generate_program
from repro.dse.cache import ResultCache
from repro.dse.engine import SweepEngine
from repro.dse.space import SweepSpec


@pytest.fixture(scope="module")
def profile():
    program = generate_program(WorkloadConfig(
        name="unit", seed=7, n_blocks=12, mean_block_size=4,
        working_set_kb=32, n_memory_streams=4))
    trace = run_program(program, n_instructions=1200)
    return profile_trace(trace, baseline_config(), order=1)


@pytest.fixture(scope="module")
def points():
    spec = SweepSpec(mode="grid", parameters=(
        ("ruu_size", (32, 64)), ("width", (2, 4))))
    return spec.expand()


class TestEngineInterrupt:
    def test_immediate_interrupt_reports_everything_unstarted(
            self, profile, points, monkeypatch):
        def interrupted(self, tasks):
            raise KeyboardInterrupt()

        monkeypatch.setattr(SweepEngine, "_run_serial", interrupted)
        sweep = SweepEngine(profile, jobs=1).evaluate(
            points, seeds=(0, 1), reduction_factor=4.0)
        assert sweep.interrupted
        assert sweep.unstarted == len(points) * 2
        assert sweep.evaluated == 0
        assert "INTERRUPTED" in sweep.summary()

    def test_partial_results_survive_interrupt(self, profile, points,
                                               monkeypatch, tmp_path):
        real_run = SweepEngine._run_serial

        def finish_one_then_interrupt(self, tasks):
            raise SweepInterrupted(real_run(self, tasks[:1]))

        monkeypatch.setattr(SweepEngine, "_run_serial",
                            finish_one_then_interrupt)
        cache = ResultCache(tmp_path / "cache", fault_plan=None)
        sweep = SweepEngine(profile, jobs=1, cache=cache).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert sweep.interrupted
        assert sweep.evaluated == 1
        assert sweep.unstarted == len(points) - 1
        finished = [r for r in sweep.results if r.per_seed]
        assert len(finished) == 1
        # The finished evaluation went into the cache: an interrupted
        # sweep is resumable, not wasted.
        assert cache.stats.writes == 1

    def test_interrupt_still_writes_quarantine_manifest(
            self, profile, points, monkeypatch, tmp_path):
        def interrupted(self, tasks):
            raise KeyboardInterrupt()

        monkeypatch.setattr(SweepEngine, "_run_serial", interrupted)
        manifest = tmp_path / "quarantine.json"
        sweep = SweepEngine(profile, jobs=1,
                            quarantine_path=manifest).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert sweep.interrupted
        assert manifest.exists()

    def test_resume_after_interrupt_skips_finished_work(
            self, profile, points, monkeypatch, tmp_path):
        real_run = SweepEngine._run_serial

        def finish_one_then_interrupt(self, tasks):
            raise SweepInterrupted(real_run(self, tasks[:1]))

        monkeypatch.setattr(SweepEngine, "_run_serial",
                            finish_one_then_interrupt)
        cache_dir = tmp_path / "cache"
        SweepEngine(profile, jobs=1,
                    cache=ResultCache(cache_dir,
                                      fault_plan=None)).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        monkeypatch.setattr(SweepEngine, "_run_serial", real_run)
        resumed = SweepEngine(
            profile, jobs=1,
            cache=ResultCache(cache_dir, fault_plan=None)).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert not resumed.interrupted
        assert resumed.cached == 1
        assert resumed.evaluated == len(points) - 1

    def test_ctrl_c_mid_parallel_sweep_cleans_up(self, profile, points,
                                                 monkeypatch):
        """Ctrl-C while a parallel sweep is running hands the caller
        an INTERRUPTED partial report and leaves no lease directory
        behind."""
        import tempfile
        from pathlib import Path

        from repro.dse.supervisor import PoolSupervisor

        tmp = Path(tempfile.gettempdir())
        leases_before = set(tmp.glob("repro-leases-*"))
        real_run = PoolSupervisor.run

        def run_then_interrupt(self, tasks):
            raise SweepInterrupted(real_run(self, tasks))

        monkeypatch.setattr(PoolSupervisor, "run", run_then_interrupt)
        sweep = SweepEngine(profile, jobs=2).evaluate(
            points[:2], seeds=(0,), reduction_factor=4.0)
        assert sweep.interrupted
        assert "INTERRUPTED" in sweep.summary()
        assert sweep.evaluated == 2
        stale = set(tmp.glob("repro-leases-*")) - leases_before
        assert not stale, stale


class TestCliInterrupt:
    def test_exit_status_is_130(self):
        assert cli.EXIT_INTERRUPTED == 130

    def test_main_converts_interrupt_to_status(self, monkeypatch,
                                               capsys):
        def interrupted():
            raise KeyboardInterrupt()

        monkeypatch.setattr(cli, "_cmd_benchmarks", interrupted)
        status = cli.main(["benchmarks"])
        assert status == cli.EXIT_INTERRUPTED
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "interrupted" in captured.err

    def test_dse_interrupt_prints_partial_report(self, monkeypatch,
                                                 capsys):
        import repro.dse as dse

        fake_study = SimpleNamespace(
            sweep=SimpleNamespace(interrupted=True, unstarted=3),
            render=lambda margin: "PARTIAL REPORT",
        )
        monkeypatch.setattr(dse, "run_study",
                            lambda *args, **kwargs: fake_study)
        status = cli.main(["dse", "--benchmark", "gzip"])
        captured = capsys.readouterr()
        assert status == cli.EXIT_INTERRUPTED
        assert "PARTIAL REPORT" in captured.out
        assert "never started" in captured.err
        assert "Traceback" not in captured.err
