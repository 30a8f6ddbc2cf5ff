"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_experiment_registry_complete(self):
        # Every evaluation section of the paper plus the extensions.
        assert {"table1", "fig3", "fig4", "table3", "fig5", "fig6",
                "sec41", "fig7", "fig8", "table4", "sec46"} <= \
            set(EXPERIMENTS)


class TestCommands:
    def test_benchmarks(self, capsys):
        assert main(["benchmarks"]) == 0
        output = capsys.readouterr().out
        for name in ("bzip2", "gcc", "vpr"):
            assert name in output

    def test_simulate(self, capsys):
        code = main(["simulate", "gzip", "--instructions", "4000",
                     "--warmup", "2000", "-R", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "execution-driven" in output
        assert "IPC error" in output

    @pytest.mark.parametrize("mode", [[], ["--vector"]],
                             ids=["scalar", "vector"])
    def test_profile_and_synthesize(self, tmp_path, capsys, mode):
        path = tmp_path / "p.json"
        assert main(["profile", "vpr", "-o", str(path),
                     "--instructions", "4000", "--warmup", "2000"]) == 0
        assert path.exists()
        assert main(["synthesize", str(path), "-R", "4", "--simulate"]
                    + mode) == 0
        lines = capsys.readouterr().out.splitlines()
        header = [line for line in lines
                  if line.startswith("synthetic trace: ")]
        assert len(header) == 1
        assert header[0].endswith(" [vector]") == bool(mode)
        for key in ("load_fraction", "branch_fraction", "il1_miss_rate",
                    "dl1_miss_rate", "misprediction_rate"):
            rate = [line for line in lines
                    if line.startswith(f"  {key}: ")]
            assert len(rate) == 1, key
            assert 0.0 <= float(rate[0].split(": ")[1]) <= 1.0
        assert any(line.startswith("  simulated: IPC ") for line in lines)
