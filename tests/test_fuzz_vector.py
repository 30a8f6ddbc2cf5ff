"""The fuzz harness's vector layer (``repro fuzz --vector``): columnar
draws must pass the same statistical acceptance as scalar draws, and
columnar-specific failures are minimized, corpus-filed under kind
``vector`` and replayable."""

import pytest

from repro.core.synthetic import SyntheticTrace
from repro.cpu.locality import EV_LOCALITY
from repro.fuzz.corpus import load_entry
from repro.fuzz.generator import random_case
from repro.fuzz.harness import (
    OK,
    VECTOR,
    FuzzPolicy,
    FuzzReport,
    CaseVerdict,
    evaluate_case,
    replay_entry,
)
from repro.isa.iclass import IClass


def _case():
    return random_case(0, 0)


class TestVectorLayer:
    def test_vector_margins_recorded_on_pass(self):
        policy = FuzzPolicy(vector=True, minimize=False)
        verdict = evaluate_case(_case(), policy)
        assert verdict.status == OK
        vector_margins = {name: margin
                         for name, margin in verdict.margins.items()
                         if name.startswith("vector.")}
        assert vector_margins, "vector layer left no margins"
        assert all(margin >= 0 for margin in vector_margins.values())

    def test_vector_layer_off_by_default(self):
        verdict = evaluate_case(_case(), FuzzPolicy(minimize=False))
        assert verdict.status == OK
        assert not any(name.startswith("vector.")
                       for name in verdict.margins)

    def test_stats_payload_counts_vector_verdicts(self):
        report = FuzzReport(seed=0, verdicts=[
            CaseVerdict(case_id="a", status=OK),
            CaseVerdict(case_id="b", status=VECTOR, detail="drift"),
        ])
        payload = report.stats_payload()
        assert payload["verdicts"][VECTOR] == 1
        assert "vector" in report.summary()


def _broken_vector_synthetic(profile, case):
    """A columnar stand-in whose instruction mix cannot match any real
    profile: every instruction collapsed to INT_ALU."""
    from repro.core.columnar import generate_columnar_trace

    columnar = generate_columnar_trace(profile, case.reduction_factor,
                                       seed=case.synthesis_seed)
    trace = columnar.to_synthetic_trace()
    entries = [(IClass.INT_ALU, events & EV_LOCALITY, deps, False, outcome)
               for _iclass, events, deps, _taken, outcome
               in map(trace.distinct.__getitem__, trace.keys)]
    return SyntheticTrace.from_entries(
        trace.name, entries, trace.order, trace.reduction_factor,
        trace.seed)


class TestVectorFailure:
    def test_failure_minimized_filed_and_replayed(self, tmp_path,
                                                  monkeypatch):
        import repro.fuzz.harness as harness

        monkeypatch.setattr(harness, "_vector_synthetic",
                            _broken_vector_synthetic)
        policy = FuzzPolicy(vector=True, corpus_dir=str(tmp_path),
                            max_trials=8)
        verdict = evaluate_case(_case(), policy)
        assert verdict.status == VECTOR
        assert verdict.corpus_path
        assert verdict.minimization

        entry = load_entry(verdict.corpus_path)
        assert entry.kind == VECTOR

        # While the defect persists, replay reports it as regressed.
        result = replay_entry(verdict.corpus_path)
        assert result.kind == VECTOR
        assert not result.passed

        # Once the columnar generator is healthy again, the pinned
        # entry replays green.
        monkeypatch.undo()
        result = replay_entry(verdict.corpus_path)
        assert result.passed, result.detail
