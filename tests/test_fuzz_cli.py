"""The ``repro fuzz`` subcommand: determinism and chaos spec handling."""

import json

from repro.cli import main


class TestFuzzCommand:
    def test_green_run_exits_zero(self, capsys):
        assert main(["fuzz", "--cases", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "4 ok" in out

    def test_identical_invocations_identical_stats(self, tmp_path,
                                                   capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["fuzz", "--cases", "5", "--seed", "7",
                     "--stats-only", str(first)]) == 0
        assert main(["fuzz", "--cases", "5", "--seed", "7",
                     "--stats-only", str(second)]) == 0
        assert first.read_text() == second.read_text()
        payload = json.loads(first.read_text())
        assert payload["schema"] == 1
        assert payload["cases"] == 5
        assert payload["seed"] == 7
        assert payload["verdicts"]["ok"] == 5
        assert payload["acceptance_margins"]
        for stats in payload["acceptance_margins"].values():
            assert stats["min"] > 0

    def test_bad_chaos_spec_exits_two(self, capsys):
        assert main(["fuzz", "--cases", "1",
                     "--chaos", "no-such-site:rate=1"]) == 2
