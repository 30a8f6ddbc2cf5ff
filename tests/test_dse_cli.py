"""The ``repro dse`` CLI command and the sec46/speedup rewiring."""

import json

import pytest

from repro.cli import main
from repro.experiments.common import ExperimentScale

TINY = ExperimentScale(warmup=2_000, reference=3_000,
                       reduction_factor=4.0, seeds=(0,),
                       benchmarks=("gzip",))


def write_sweep(tmp_path, n_points=2):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "name": "cli-tiny", "mode": "grid",
        "parameters": {"ruu_size": [32, 64][:n_points], "width": [4]},
    }))
    return str(path)


class TestArgValidation:
    def test_resume_requires_cache_dir(self, capsys):
        assert main(["dse", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_unknown_benchmark_rejected(self, capsys):
        assert main(["dse", "--benchmark", "quake3"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bad_seeds_rejected(self, capsys):
        assert main(["dse", "--seeds", "0,x"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["dse", "--jobs", "0"])

    @pytest.mark.parametrize("argv", [["bench", "--quick"],
                                      ["dse", "--bench", "out.json"]])
    def test_retired_bench_harness_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_missing_sweep_file_errors_cleanly(self, capsys, tmp_path):
        assert main(["dse", "--sweep", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_with_cache_then_resume(self, capsys, tmp_path):
        sweep = write_sweep(tmp_path)
        cache = str(tmp_path / "cache")
        args = ["dse", "--sweep", sweep, "--benchmark", "gzip",
                "--seeds", "0", "-R", "4", "--cache-dir", cache,
                "--no-verify"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 evaluated / 0 cached" in first
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 evaluated / 2 cached" in second

    def test_verify_pass_reports_optimum(self, capsys, tmp_path):
        sweep = write_sweep(tmp_path)
        assert main(["dse", "--sweep", sweep, "--benchmark", "gzip",
                     "--seeds", "0", "-R", "4"]) == 0
        out = capsys.readouterr().out
        assert "SS optimum" in out
        assert "re-checked execution-driven" in out


class TestConsoleChannel:
    """Each runner message reaches the console once: as its event, with
    no callback echoing it a second time."""

    CHAOS = "seed=1;task-fail:rate=1,attempts=1,match=ruu_size=16"

    def _stderr(self, capsys, tmp_path, *extra):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "name": "cli-chaos", "mode": "grid",
            "parameters": {"ruu_size": [16, 32], "lsq_size": [8],
                           "width": [4]}}))
        capsys.readouterr()
        assert main(["dse", "--sweep", str(path), "--benchmark", "gzip",
                     "--seeds", "0", "-R", "4", "--no-verify",
                     "--chaos", self.CHAOS, *extra]) == 0
        return capsys.readouterr().err.splitlines()

    def test_retry_line_printed_once(self, capsys, tmp_path):
        lines = [line for line in self._stderr(capsys, tmp_path)
                 if "attempt 1 failed" in line]
        assert len(lines) == 1, lines
        assert "ruu_size=16" in lines[0]

    def test_failure_line_printed_once(self, capsys, tmp_path):
        lines = [line for line in self._stderr(capsys, tmp_path,
                                               "--retries", "0")
                 if "failed after" in line]
        assert len(lines) == 1, lines
        assert "ruu_size=16" in lines[0]


class TestExperimentRewiring:
    def test_sec46_supports_jobs_and_cache(self, tmp_path):
        from repro.experiments import sec46_design_space

        cache = str(tmp_path / "cache")
        kwargs = dict(scale=TINY, ruu_sizes=(16, 64), lsq_sizes=(8,),
                      widths=(4,), cache_dir=cache)
        cold = sec46_design_space.run("gzip", **kwargs)
        assert cold["grid_points"] == 2
        assert cold["evaluations"] == 2
        assert cold["cached_evaluations"] == 0
        warm = sec46_design_space.run("gzip", jobs=2, **kwargs)
        assert warm["evaluations"] == 0
        assert warm["cached_evaluations"] == 2
        assert warm["ss_optimal"] == cold["ss_optimal"]
        assert warm["edp_gap"] == cold["edp_gap"]
        assert sec46_design_space.format_rows([cold, warm])

    def test_speedup_measures_engine_path(self):
        from repro.experiments import speedup

        rows = speedup.run(TINY)
        for row in rows:
            assert row["ss_seconds"] > 0
            assert row["synthetic_instructions"] > 0
            assert row["per_point_speedup"] > 0
