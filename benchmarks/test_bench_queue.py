"""Work-queue benchmarks: lease overhead and resume cost.

The PR-10 acceptance benchmarks for the checkpointed work queue:

* the lease/complete state machine must be cheap enough to disappear
  behind real shards (>= 1000 lease+complete cycles/s un-journaled);
* journaling costs one fsynced line per event — measured here so a
  regression (e.g. an accidental flush-per-field) shows up as a
  per-event cost jump;
* a ``--resume`` of a fully-completed smoke run must recompute zero
  shards and stay byte-identical to the original merge.

With ``--benchmark-json PATH``, consolidated numbers are appended to
``BENCH_queue.json`` next to PATH, uploaded by the CI benchmarks job
next to the other BENCH_* exports.
"""

import time

from conftest import emit, export_bench

from repro.experiments.journal import JOURNAL_NAME, RunJournal, run_dir
from repro.experiments.orchestrator import run_suite
from repro.experiments.queue import QueuePolicy, ShardTask, WorkQueue
from repro.experiments.records import ExperimentRecord
from repro.experiments.runner import to_markdown
from repro.experiments.store import ResultStore


def _tasks(count: int) -> list[ShardTask]:
    return [
        ShardTask(
            plan=0,
            index=i,
            module="repro.experiments.e_fig1",
            config={"exp_id": "X", "tier": "smoke", "seed": 0, "params": {}},
            shard={"cell": i},
            key=f"{i:064x}",
        )
        for i in range(count)
    ]


def _drain(queue: WorkQueue) -> None:
    while True:
        lease = queue.lease()
        if lease is None:
            break
        queue.complete(lease.task)


def test_lease_state_machine_throughput(tmp_path):
    """Lease+complete cycles per second, with and without the journal."""
    n_plain, n_journaled = 2000, 200

    queue = WorkQueue(_tasks(n_plain), policy=QueuePolicy())
    t0 = time.perf_counter()
    _drain(queue)
    plain_s = time.perf_counter() - t0
    plain_ops = n_plain / plain_s if plain_s > 0 else float("inf")

    journal = RunJournal(tmp_path / JOURNAL_NAME, fresh=True)
    queue = WorkQueue(
        _tasks(n_journaled),
        policy=QueuePolicy(),
        journal=journal,
        run_dir=tmp_path,
    )
    t0 = time.perf_counter()
    _drain(queue)
    journaled_s = time.perf_counter() - t0
    journal.close()
    # Two events (lease + complete) per cycle, each an fsynced append.
    per_event_us = journaled_s / (2 * n_journaled) * 1e6

    export_bench(
        "BENCH_queue.json",
        "queue_lease_throughput",
        {
            "plain_cycles_per_s": round(plain_ops),
            "journaled_cycles_per_s": round(
                n_journaled / journaled_s if journaled_s > 0 else 0
            ),
            "journal_event_us": round(per_event_us, 1),
            "cycles_plain": n_plain,
            "cycles_journaled": n_journaled,
        },
    )
    # The state machine itself must vanish next to real shards.
    assert plain_ops >= 1000, plain_ops


def test_resume_overhead_smoke_suite(tmp_path):
    """A --resume of a finished run: zero recompute, near-zero cost."""
    store = ResultStore(tmp_path / "cache")

    t0 = time.perf_counter()
    cold = run_suite(None, tier="smoke", jobs=1, store=store)
    cold_s = time.perf_counter() - t0
    shards = sum(len(r.shards) for r in cold)
    run_id = cold[0].run_id
    assert run_id and (run_dir(store.root, run_id) / JOURNAL_NAME).is_file()

    t0 = time.perf_counter()
    resumed = run_suite(None, tier="smoke", jobs=1, store=store, resume=True)
    resume_s = time.perf_counter() - t0
    recomputed = sum(r.shards_computed for r in resumed)
    speedup = cold_s / resume_s if resume_s > 0 else float("inf")

    def _md(runs) -> str:
        return to_markdown([(r.record, r.seconds) for r in runs], tier="smoke")

    assert _md(resumed) == _md(cold)  # byte-identical after resume

    export_bench(
        "BENCH_queue.json",
        "smoke_suite_resume",
        {
            "cold_s": round(cold_s, 3),
            "resume_s": round(resume_s, 3),
            "speedup": round(speedup, 2),
            "shards": shards,
            "recomputed_on_resume": recomputed,
        },
    )

    record = ExperimentRecord(
        exp_id="BENCH-QUEUE",
        title="Checkpointed work queue: resume cost on the smoke suite",
        paper_claim=(
            "journaled runs resume with zero recomputation of completed "
            "shards and byte-identical merges"
        ),
        columns=["mode", "seconds", "shards", "recomputed"],
    )
    record.add_row(
        mode="cold journaled", seconds=round(cold_s, 2), shards=shards,
        recomputed=shards,
    )
    record.add_row(
        mode="--resume", seconds=round(resume_s, 2), shards=shards,
        recomputed=recomputed,
    )
    record.passed = recomputed == 0
    record.measured_summary = (
        f"{shards} smoke shards: resume recomputed {recomputed} at "
        f"{speedup:.0f}x the cold run"
    )
    emit(record)

    assert recomputed == 0, "resume recomputed completed shards"
