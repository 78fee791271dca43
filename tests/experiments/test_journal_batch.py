"""The planning batch: one journal append for a run's plan and cache hits.

A warm run journals its ``plan`` header and every cache hit's
``complete`` event in a single append (one write, one flush, one
fsync).  A SIGKILL can tear that write at any byte, so these tests cut
a warm journal at every offset inside the batch and check that replay
drops only the torn line and that ``--resume`` still serves every
shard from the store, merges byte-identically, and leaves a ledger
that accounts for every shard.  ``test_resume.py`` SIGKILLs a real
warm run.
"""

import os

from repro.experiments import journal as journal_module
from repro.experiments.journal import (
    JOURNAL_NAME,
    RunJournal,
    replay_journal,
    run_dir,
)
from repro.experiments.orchestrator import journal_status, run_suite
from repro.experiments.store import ResultStore
from repro.util.encoding import canonical_json

SELECTION = ["FIG1", "EXP-L31"]


def _digest(runs) -> str:
    return canonical_json([run.record.to_json_dict() for run in runs])


def _assert_full_ledger(store: ResultStore, run_id: str, total: int) -> None:
    state, rows = journal_status(store, run_id)
    assert state.counts() == {
        "planned": total,
        "completed": total,
        "leased": 0,
        "quarantined": 0,
        "pending": 0,
    }
    assert all(c["cached"] == c["planned"] for _, c in rows)


def test_append_writes_events_with_one_fsync(tmp_path, monkeypatch):
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        journal_module.os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
    )
    path = tmp_path / JOURNAL_NAME
    events = [
        {"event": "plan", "run_id": "run-x", "experiments": []},
        {"event": "complete", "key": "k1", "cached": True},
        {"event": "complete", "key": "k2", "cached": True},
    ]
    with RunJournal(path, fresh=True) as journal:
        journal.append(*events)
        assert len(fsyncs) == 1
        journal.append({"event": "lease", "key": "k3", "attempt": 1})
        assert len(fsyncs) == 2
    lines = path.read_text().splitlines()
    assert lines == [canonical_json(e) for e in events] + [
        canonical_json({"event": "lease", "key": "k3", "attempt": 1})
    ]


def test_resume_after_every_torn_planning_batch(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "cache")
    cold = run_suite(SELECTION, tier="smoke", store=store)
    appends = []
    real_append = RunJournal.append
    with monkeypatch.context() as patch:
        patch.setattr(
            RunJournal,
            "append",
            lambda self, *events: appends.append(events) or real_append(self, *events),
        )
        warm = run_suite(SELECTION, tier="smoke", store=store)
    run_id = warm[0].run_id
    total = sum(len(run.shards) for run in warm)
    # A warm run journals once: the plan header and a cache-hit
    # ``complete`` per shard, and its journal is exactly that batch.
    assert [len(events) for events in appends] == [1 + total]
    assert [e["event"] for e in appends[0]] == ["plan"] + ["complete"] * total
    _assert_full_ledger(store, run_id, total)
    path = run_dir(store.root, run_id) / JOURNAL_NAME
    batch = path.read_bytes()
    assert batch.count(b"\n") == 1 + total and batch.endswith(b"\n")
    line_ends = [i + 1 for i, byte in enumerate(batch) if byte == ord("\n")]

    for offset in range(len(batch) + 1):
        path.write_bytes(batch[:offset])
        state = replay_journal(path)
        # A line counts once its closing brace is on disk, newline or
        # not; replay drops the torn line only and folds every other.
        whole = [end for end in line_ends if end - 1 <= offset]
        at_boundary = offset == 0 or any(offset in (e - 1, e) for e in line_ends)
        assert state.truncated_tail == (not at_boundary), offset
        assert state.run_id == (run_id if whole else ""), offset
        assert len(state.status) == max(len(whole) - 1, 0), offset

        resumed = run_suite(SELECTION, tier="smoke", store=store, resume=True)
        assert sum(run.shards_computed for run in resumed) == 0, offset
        assert _digest(resumed) == _digest(cold), offset
        _assert_full_ledger(store, run_id, total)
        assert path.read_bytes().endswith(b"\n"), offset
