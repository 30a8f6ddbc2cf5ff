"""Durable job store: idempotent submission, journaled recovery,
checkpoint compaction, lease staleness, cancellation."""

import json
import os
import time

import pytest

from repro.faults import ChaosPlan
from repro.runner.lease import lease_path
from repro.service.jobs import JobStore, job_key


def store_at(tmp_path, **kwargs):
    kwargs.setdefault("checkpoint_every", 1000)  # journal-only unless asked
    return JobStore(tmp_path / "state", **kwargs)


PAYLOAD = {"kind": "sleep", "seconds": 0.01, "tag": "t"}


class TestSubmitIdempotency:
    def test_job_id_is_content_hash_prefix(self, tmp_path):
        store = store_at(tmp_path)
        job, created = store.submit(PAYLOAD, client="a")
        assert created
        assert job.job_id == job_key(PAYLOAD)[:12]

    def test_field_order_cannot_split_jobs(self, tmp_path):
        store = store_at(tmp_path)
        a, _ = store.submit({"kind": "sleep", "seconds": 1}, "a")
        b, created = store.submit({"seconds": 1, "kind": "sleep"}, "b")
        assert not created
        assert a.job_id == b.job_id

    def test_resubmit_queued_dedups(self, tmp_path):
        store = store_at(tmp_path)
        first, _ = store.submit(PAYLOAD, "a")
        second, created = store.submit(PAYLOAD, "a")
        assert not created
        assert second is first
        assert store.queue_depth() == 1

    def test_resubmit_done_short_circuits(self, tmp_path):
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        store.mark_done(job.job_id, {"answer": 42})
        again, created = store.submit(PAYLOAD, "a")
        assert not created
        assert again.state == "done"
        assert again.result == {"answer": 42}
        assert store.queue_depth() == 0

    def test_resubmit_failed_revives(self, tmp_path):
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        store.mark_failed(job.job_id, {"type": "ValueError",
                                       "message": "boom"})
        again, created = store.submit(PAYLOAD, "a")
        assert not created
        assert again.state == "queued"
        assert again.error is None

    def test_distinct_payloads_distinct_jobs(self, tmp_path):
        store = store_at(tmp_path)
        a, _ = store.submit({"kind": "sleep", "seconds": 1}, "a")
        b, _ = store.submit({"kind": "sleep", "seconds": 2}, "a")
        assert a.job_id != b.job_id
        assert store.queue_depth() == 2


class TestRecovery:
    def test_kill_and_replay_loses_nothing(self, tmp_path):
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        other, _ = store.submit({"kind": "sleep", "seconds": 9}, "b")
        store.mark_running(job.job_id)
        store.mark_done(job.job_id, {"ok": 1})
        # kill -9: no checkpoint(), no close() — just a fresh store.
        revived = store_at(tmp_path)
        report = revived.recover()
        assert report.jobs == 2
        assert revived.get(job.job_id).state == "done"
        assert revived.get(job.job_id).result == {"ok": 1}
        assert revived.get(other.job_id).state == "queued"

    def test_checkpoint_then_journal_tail(self, tmp_path):
        store = store_at(tmp_path, checkpoint_every=2)
        jobs = [store.submit({"kind": "sleep", "seconds": s}, "a")[0]
                for s in range(5)]
        # checkpoint_every=2 → compactions happened; tail is short.
        revived = store_at(tmp_path)
        report = revived.recover()
        assert report.checkpoint_loaded
        assert report.jobs == 5
        assert {j.job_id for j in jobs} == set(revived.jobs)

    def test_corrupt_checkpoint_falls_back_to_journal(self, tmp_path):
        store = store_at(tmp_path, checkpoint_every=1000)
        job, _ = store.submit(PAYLOAD, "a")
        store.checkpoint()
        store.submit({"kind": "sleep", "seconds": 9}, "b")
        store.checkpoint_path.write_text("{not json")
        revived = store_at(tmp_path)
        report = revived.recover()
        assert report.checkpoint_corrupt
        # The checkpointed job's journal lines were compacted away, so
        # a corrupt checkpoint can only recover the post-checkpoint
        # tail — which is why the checkpoint is written atomically
        # with a checksum in the first place.
        assert report.jobs >= 1

    def test_requeues_stale_running_job(self, tmp_path):
        store = store_at(tmp_path, lease_ttl=0.05)
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        time.sleep(0.1)  # heartbeat goes stale
        revived = store_at(tmp_path, lease_ttl=0.05)
        report = revived.recover()
        assert report.requeued == [job.job_id]
        revived_job = revived.get(job.job_id)
        assert revived_job.state == "queued"
        assert revived_job.requeues == 1

    def test_missing_lease_counts_as_stale(self, tmp_path):
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        store.clear_lease(job.job_id)
        revived = store_at(tmp_path)
        assert revived.recover().requeued == [job.job_id]

    def test_fresh_own_lease_is_not_stale(self, tmp_path):
        store = store_at(tmp_path, lease_ttl=30.0)
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        # Same pid, fresh heartbeat: recovery in the same process (the
        # daemon re-running recover would be a bug, but staleness must
        # still be judged correctly).
        assert not store._lease_is_stale(store.get(job.job_id))

    def test_dead_pid_is_stale_even_when_fresh(self, tmp_path):
        store = store_at(tmp_path, lease_ttl=300.0)
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        lease = lease_path(store.lease_dir, job.job_id)
        record = json.loads(lease.read_text())
        record["pid"] = 2 ** 22 + 12345  # vanishingly unlikely to exist
        lease.write_text(json.dumps(record))
        revived = store_at(tmp_path, lease_ttl=300.0)
        assert revived.recover().requeued == [job.job_id]

    def test_torn_journal_tail_drops_unacknowledged_only(self, tmp_path):
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        path = store.state_dir / "journal.jsonl"
        data = path.read_bytes()
        path.write_bytes(data + b'{"seq": 99, "torn')
        revived = store_at(tmp_path)
        report = revived.recover()
        assert report.dropped_lines == 1
        assert revived.get(job.job_id).state == "queued"


class TestHeartbeatChaos:
    def test_lost_heartbeats_leave_lease_stale(self, tmp_path):
        plan = ChaosPlan.parse("seed=1;heartbeat-loss")
        store = store_at(tmp_path, fault_plan=plan, lease_ttl=0.05)
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        time.sleep(0.1)
        for beat in range(1, 5):
            store.write_heartbeat(job.job_id, beat=beat)  # all swallowed
        revived = store_at(tmp_path, lease_ttl=0.05)
        assert revived.recover().requeued == [job.job_id]

    def test_delivered_heartbeats_keep_lease_fresh(self, tmp_path):
        store = store_at(tmp_path, fault_plan=None, lease_ttl=0.2)
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        time.sleep(0.1)
        store.write_heartbeat(job.job_id, beat=1)
        assert not store._lease_is_stale(store.get(job.job_id))


class TestCheckpointCompaction:
    def test_checkpoint_truncates_journal(self, tmp_path):
        store = store_at(tmp_path, checkpoint_every=3)
        for s in range(3):
            store.submit({"kind": "sleep", "seconds": s}, "a")
        journal = store.state_dir / "journal.jsonl"
        assert journal.read_text() == ""
        assert store.checkpoint_path.exists()

    def test_journal_stays_bounded_by_churn(self, tmp_path):
        store = store_at(tmp_path, checkpoint_every=4)
        for s in range(22):
            store.submit({"kind": "sleep", "seconds": s}, "a")
        journal = store.state_dir / "journal.jsonl"
        lines = [line for line in journal.read_text().splitlines()
                 if line]
        assert len(lines) < 4


class TestCancel:
    def test_cancel_queued(self, tmp_path):
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        assert store.cancel(job.job_id) == "cancelled"
        assert store.get(job.job_id).state == "cancelled"
        assert store.queue_depth() == 0

    def test_cancel_running_defers(self, tmp_path):
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        assert store.cancel(job.job_id) == "cancel-requested"
        finished = store.mark_done(job.job_id, {"ok": 1})
        assert finished.state == "cancelled"

    def test_cancel_queued_releases_inflight_cap(self, tmp_path):
        """A cancelled queued job must stop counting against its
        client's in-flight cap immediately — not only once a worker
        dequeues the corpse — or a submit/cancel loop wedges the
        client out of the service."""
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        assert store.client_inflight("a") == 1
        store.cancel(job.job_id)
        assert store.client_inflight("a") == 0

    def test_mark_running_after_cancel_is_refused(self, tmp_path):
        """The dispatch race: the daemon claims a job, the client
        cancels it before _execute runs.  mark_running must refuse the
        stale claim (return None) and leave the job cancelled."""
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        store.cancel(job.job_id)
        assert store.mark_running(job.job_id) is None
        assert store.get(job.job_id).state == "cancelled"

    def test_mark_running_returns_job_when_queued(self, tmp_path):
        store = store_at(tmp_path)
        job, _ = store.submit(PAYLOAD, "a")
        claimed = store.mark_running(job.job_id)
        assert claimed is job
        assert claimed.state == "running"

    def test_cancel_unknown_or_terminal(self, tmp_path):
        store = store_at(tmp_path)
        assert store.cancel("nope") is None
        job, _ = store.submit(PAYLOAD, "a")
        store.mark_running(job.job_id)
        store.mark_done(job.job_id, None)
        assert store.cancel(job.job_id) == "done"


class TestQueries:
    def test_fifo_order_and_counts(self, tmp_path):
        store = store_at(tmp_path)
        ids = []
        for s in range(3):
            job, _ = store.submit({"kind": "sleep", "seconds": s}, "a")
            ids.append(job.job_id)
            time.sleep(0.01)
        assert [j.job_id for j in store.queued_jobs()] == ids
        store.mark_running(ids[0])
        assert store.counts()["queued"] == 2
        assert store.counts()["running"] == 1
        assert store.client_inflight("a") == 3
        assert store.client_inflight("b") == 0
