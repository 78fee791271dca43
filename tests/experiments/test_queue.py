"""Work-queue core: leases, retry, quarantine, and the run journal.

These are the unit-level guarantees under the kill/resume integration
test (test_resume.py): leases expire on deadline and count against
the retry budget; retry exhaustion quarantines the shard with a
replayable JSON artifact instead of failing the run; stale leases
cannot corrupt the ledger; and journal replay survives exactly
the corruption a SIGKILL can produce (a truncated final line).
"""

import multiprocessing
import os
import sys
import types

import pytest

from repro.experiments.journal import (
    RunJournal,
    derive_run_id,
    replay_journal,
)
from repro.experiments import queue as queue_mod
from repro.experiments.queue import (
    COMPLETED,
    PENDING,
    QUARANTINED,
    QueuePolicy,
    ShardTask,
    WorkQueue,
    load_quarantined_shard,
    quarantine_artifact_name,
    replay_quarantined_shard,
    run_queue,
)

FAKE_MODULE = "tests_fake_queue_driver"


def _task(i: int = 0, module: str = FAKE_MODULE) -> ShardTask:
    return ShardTask(
        plan=0,
        index=i,
        module=module,
        config={"exp_id": "X", "tier": "smoke", "seed": 0, "params": {}},
        shard={"cell": i},
        key=f"{i:02d}" + "ab" * 31,
    )


def _install_fake_driver(monkeypatch, run_shard) -> None:
    mod = types.ModuleType(FAKE_MODULE)
    mod.run_shard = run_shard
    monkeypatch.setitem(sys.modules, FAKE_MODULE, mod)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestLeaseDiscipline:
    def test_leases_issue_in_plan_order(self):
        queue = WorkQueue([_task(0), _task(1)])
        assert queue.lease().task.index == 0
        assert queue.lease().task.index == 1
        assert queue.lease() is None  # everything leased

    def test_complete_is_idempotent_first_result_wins(self):
        task = _task()
        queue = WorkQueue([task])
        queue.lease()
        assert queue.complete(task) is True
        assert queue.complete(task) is False
        assert queue.counts()[COMPLETED] == 1

    def test_stale_lease_failure_is_ignored(self):
        # A straggler from a superseded lease must not burn the retry
        # budget of the attempt that replaced it.
        task = _task()
        queue = WorkQueue([task], policy=QueuePolicy(max_retries=0))
        old = queue.lease()
        queue.fail(old, "boom")  # attempt 1 fails -> pending again...
        assert queue.state_of(task)[0] == QUARANTINED  # max_retries=0

        queue2 = WorkQueue([task], policy=QueuePolicy(max_retries=5))
        stale = queue2.lease()
        queue2.fail(stale, "transient")  # back to pending
        fresh = queue2.lease()
        assert fresh.token != stale.token
        # The stale lease reporting again changes nothing.
        queue2.fail(stale, "late straggler")
        assert queue2.state_of(task) == ("leased", 2)
        queue2.complete(task)
        assert queue2.state_of(task)[0] == COMPLETED

    def test_deadline_expiry_counts_as_failed_attempt(self, tmp_path):
        clock = FakeClock()
        task = _task()
        queue = WorkQueue(
            [task],
            policy=QueuePolicy(max_retries=1, shard_timeout=10.0),
            run_dir=tmp_path,
            clock=clock,
        )
        lease = queue.lease()
        assert lease.deadline == clock.now + 10.0
        clock.now += 5.0
        assert queue.expire_stale_leases() == []  # still within deadline
        clock.now += 6.0
        assert queue.expire_stale_leases() == [lease]
        assert queue.state_of(task) == (PENDING, 1)  # re-leasable

        # Second timeout exhausts the budget -> quarantine + artifact.
        lease2 = queue.lease()
        clock.now += 11.0
        queue.expire_stale_leases()
        status, attempts = queue.state_of(task)
        assert (status, attempts) == (QUARANTINED, 2)
        [(qt, error, artifact)] = queue.quarantined()
        assert qt is task and "shard-timeout" in error.replace("--", "-")
        assert artifact is not None and artifact.is_file()
        # And a late result from the expired lease is a no-op.
        assert queue.complete(lease2.task) is False


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity calls"
)
class TestWorkerPlacement:
    def test_each_worker_starts_on_the_next_cpu_then_gets_all_back(
        self, monkeypatch
    ):
        cpus = [3, 5, 8]
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        monkeypatch.setattr(
            os, "sched_setaffinity", lambda pid, mask: calls.append(set(mask))
        )
        slots = multiprocessing.Value("i", 0)
        for _ in range(4):
            queue_mod._start_on_own_cpu(slots)
        assert calls[0::2] == [{3}, {5}, {8}, {3}]
        assert calls[1::2] == [set(cpus)] * 4

    def test_pool_workers_keep_the_full_cpu_set(self):
        allowed = os.sched_getaffinity(0)
        pool = queue_mod._worker_pool(2)
        try:
            masks = [pool.submit(os.sched_getaffinity, 0) for _ in range(4)]
            assert all(mask.result() == allowed for mask in masks)
        finally:
            pool.shutdown()


class TestQuarantineArtifacts:
    def test_retry_exhaustion_writes_replayable_artifact(
        self, tmp_path, monkeypatch
    ):
        calls = []

        def poison(config, shard):
            calls.append(shard)
            raise ValueError(f"deterministic failure on {shard['cell']}")

        _install_fake_driver(monkeypatch, poison)
        task = _task()
        journal = RunJournal(tmp_path / "journal.jsonl", fresh=True)
        queue = WorkQueue(
            [task],
            policy=QueuePolicy(max_retries=2),
            journal=journal,
            run_dir=tmp_path,
        )
        landed = []
        run_queue(queue, jobs=1, on_result=lambda *a: landed.append(a))
        journal.close()

        assert landed == [] and len(calls) == 3  # 1 attempt + 2 retries
        [(_, error, artifact)] = queue.quarantined()
        assert "deterministic failure" in error
        assert artifact.name == quarantine_artifact_name(task)

        payload = load_quarantined_shard(artifact)
        assert payload["kind"] == "quarantined-shard"
        assert payload["module"] == FAKE_MODULE
        assert payload["shard"] == task.shard
        assert payload["attempts"] == 3

        # Replay reproduces the failure from the artifact alone...
        with pytest.raises(ValueError, match="deterministic failure"):
            replay_quarantined_shard(artifact)
        # ...and reports recovery once the driver is fixed.
        _install_fake_driver(monkeypatch, lambda config, shard: {"ok": 1})
        assert replay_quarantined_shard(artifact) == {"ok": 1}

    def test_load_rejects_non_artifacts(self, tmp_path):
        path = tmp_path / "not-artifact.json"
        path.write_text('{"module": "m"}')
        with pytest.raises(ValueError, match="required fields"):
            load_quarantined_shard(path)

    def test_run_continues_past_poisoned_shard(self, tmp_path, monkeypatch):
        def flaky(config, shard):
            if shard["cell"] == 1:
                raise RuntimeError("poison")
            return {"cell": shard["cell"]}

        _install_fake_driver(monkeypatch, flaky)
        tasks = [_task(i) for i in range(3)]
        queue = WorkQueue(
            tasks, policy=QueuePolicy(max_retries=1), run_dir=tmp_path
        )
        landed = {}
        run_queue(
            queue,
            jobs=1,
            on_result=lambda t, r, s: landed.__setitem__(t.index, r),
        )
        assert landed == {0: {"cell": 0}, 2: {"cell": 2}}
        counts = queue.counts()
        assert counts[COMPLETED] == 2 and counts[QUARANTINED] == 1


class TestJournal:
    def _lifecycle(self, path) -> None:
        with RunJournal(path, fresh=True) as journal:
            journal.append(
                {
                    "event": "plan",
                    "run_id": "run-abc",
                    "tier": "smoke",
                    "seed": 0,
                    "experiments": [{"exp_id": "X", "keys": ["k1", "k2"]}],
                }
            )
            journal.append({"event": "lease", "key": "k1", "attempt": 1})
            journal.append({"event": "complete", "key": "k1"})
            journal.append({"event": "lease", "key": "k2", "attempt": 1})

    def test_replay_folds_lifecycle(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._lifecycle(path)
        state = replay_journal(path)
        assert state.run_id == "run-abc"
        assert state.planned == {"X": ["k1", "k2"]}
        assert state.status == {"k1": "completed", "k2": "leased"}
        assert state.counts() == {
            "planned": 2,
            "completed": 1,
            "leased": 1,
            "quarantined": 0,
            "pending": 0,
        }
        assert not state.truncated_tail

    def test_truncated_final_line_is_dropped(self, tmp_path):
        # The only corruption a SIGKILL mid-append can produce.
        path = tmp_path / "journal.jsonl"
        self._lifecycle(path)
        with open(path, "a") as fh:
            fh.write('{"event": "complete", "key": "k2')  # cut mid-write
        state = replay_journal(path)
        assert state.truncated_tail
        assert state.status == {"k1": "completed", "k2": "leased"}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._lifecycle(path)
        lines = path.read_text().splitlines()
        lines[1] = "{garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt journal line 2"):
            replay_journal(path)

    def test_retry_returns_key_to_pending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path, fresh=True) as journal:
            journal.append({"event": "lease", "key": "k1", "attempt": 1})
            journal.append(
                {"event": "retry", "key": "k1", "attempt": 1, "error": "x"}
            )
        state = replay_journal(path)
        assert "k1" not in state.status
        assert state.errors["k1"] == "x"

    def test_quarantine_event_carries_triage_fields(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path, fresh=True) as journal:
            journal.append(
                {
                    "event": "quarantine",
                    "key": "k1",
                    "attempts": 3,
                    "error": "boom",
                    "artifact": "shard-k1.json",
                }
            )
        state = replay_journal(path)
        assert state.status == {"k1": "quarantined"}
        assert state.attempts["k1"] == 3
        assert state.artifacts["k1"] == "shard-k1.json"


class TestDeriveRunId:
    def test_stable_and_content_sensitive(self):
        plan = [("X", ["k1", "k2"]), ("Y", ["k3"])]
        rid = derive_run_id(plan, "smoke", 0)
        assert rid == derive_run_id(plan, "smoke", 0)
        assert rid.startswith("run-") and len(rid) == 16
        assert rid != derive_run_id(plan, "fast", 0)
        assert rid != derive_run_id(plan, "smoke", 1)
        assert rid != derive_run_id([("X", ["k1"])], "smoke", 0)
