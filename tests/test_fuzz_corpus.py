"""Corpus round-trips, checksums, and the committed regression corpus.

``TestCommittedCorpus`` is the tier-1 wiring the issue asks for: every
entry under ``tests/fuzz_corpus/`` replays green on every test run, so
a pipeline change that re-introduces a pinned discrepancy fails the
suite immediately.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ArtifactCorruptError
from repro.frontend.functional import run_program
from repro.fuzz.corpus import (
    CorpusEntry,
    list_entries,
    load_entry,
    program_from_dict,
    program_to_dict,
    save_entry,
)
from repro.fuzz.generator import random_case
from repro.fuzz.harness import replay_corpus, replay_entry

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"


class TestProgramRoundTrip:
    @pytest.mark.parametrize("index", [0, 3, 8, 15])
    def test_functional_behaviour_preserved(self, index):
        program = random_case(seed=13, index=index).program()
        rebuilt = program_from_dict(program_to_dict(program))
        original = run_program(program, 600)
        replayed = run_program(rebuilt, 600)
        assert len(original) == len(replayed)
        for a, b in zip(original, replayed):
            assert (a.pc, a.iclass, a.taken, a.mem_addr) \
                == (b.pc, b.iclass, b.taken, b.mem_addr)

    def test_dict_round_trip_is_stable(self):
        program = random_case(seed=13, index=2).program()
        once = program_to_dict(program)
        twice = program_to_dict(program_from_dict(once))
        assert once == twice


class TestEntryIO:
    def _entry(self):
        case = random_case(seed=13, index=1)
        return CorpusEntry(
            case_id=case.case_id, kind="differential",
            case=case.to_dict(),
            report={"identical": False, "field_diffs": []},
            program=program_to_dict(case.program()),
            minimization={"original_size": 10, "minimized_size": 2,
                          "n_instructions": 400},
        )

    def test_save_load_round_trip(self, tmp_path):
        entry = self._entry()
        path = save_entry(str(tmp_path), entry)
        loaded = load_entry(path)
        assert loaded.to_dict() == entry.to_dict()
        assert list_entries(str(tmp_path)) == [path]

    def test_tampered_entry_rejected(self, tmp_path):
        path = save_entry(str(tmp_path), self._entry())
        payload = json.loads(Path(path).read_text())
        payload["case_id"] = "caseXXX"
        Path(path).write_text(json.dumps(payload))
        with pytest.raises(ArtifactCorruptError):
            load_entry(path)

    def test_unknown_schema_rejected(self, tmp_path):
        data = self._entry().to_dict()
        data["schema"] = 999
        with pytest.raises(Exception, match="schema"):
            CorpusEntry.from_dict(data)

    def test_empty_corpus_dir(self, tmp_path):
        assert list_entries(str(tmp_path / "missing")) == []
        assert replay_corpus(str(tmp_path / "missing")) == []


class TestCommittedCorpus:
    def test_corpus_is_present(self):
        assert list_entries(str(CORPUS_DIR)), \
            "the seeded regression corpus must ship with the tests"

    def test_every_committed_entry_replays_green(self):
        results = replay_corpus(str(CORPUS_DIR), raise_on_failure=True)
        assert results
        for result in results:
            assert result.passed, \
                f"{result.case_id} regressed: {result.detail}"

    def test_replay_ignores_ambient_chaos(self, monkeypatch):
        """Replay runs chaos-free: a pipeline-skew spec in the
        environment would otherwise re-inject the very discrepancy each
        differential entry pins."""
        monkeypatch.setenv("REPRO_CHAOS", "pipeline-skew:rate=1")
        results = replay_corpus(str(CORPUS_DIR))
        assert results
        for result in results:
            assert result.passed, \
                f"{result.case_id} regressed: {result.detail}"

    def test_committed_entries_are_minimized_skew_canaries(self):
        """Differential entries pin injected skews (and are minimized);
        vector entries pin the columnar generator's statistical health
        on a healthy case, so they carry no injected defect."""
        for path in list_entries(str(CORPUS_DIR)):
            entry = load_entry(path)
            if entry.kind == "vector":
                assert not entry.skew_injected
                continue
            assert entry.skew_injected, \
                "committed entries document their injected origin"
            minimization = entry.minimization
            assert (minimization["minimized_size"]
                    <= minimization["original_size"] // 4)
