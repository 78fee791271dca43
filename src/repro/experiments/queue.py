"""Work-queue core: leased shards, bounded retry, poison quarantine.

The middle layer of the execution spine (the result store below, the
``run_suite`` frontend above — docs/orchestration.md).  Planning turns
every missing shard into a :class:`ShardTask`; a :class:`WorkQueue`
then hands tasks to workers under a **lease** discipline instead of
fire-and-forget futures:

* a lease carries a token and (optionally) a deadline.  Under a
  worker pool (``jobs >= 2``) a lease past its deadline is **expired
  and the shard re-leased** rather than lost with the run; the expired
  worker is not killed, so a shard that hangs forever still holds its
  pool slot and blocks the run.  A worker that *crashes* breaks the
  pool and loses every in-flight shard; each lost shard is re-run
  alone on a fresh worker, so only the shard that crashes there too
  is charged a failed attempt;
* failures are retried up to ``QueuePolicy.max_retries`` extra
  attempts; a shard that fails deterministically every time is
  **quarantined** — recorded in the run journal and written out as a
  JSON replay artifact (module + config + shard + error), exactly like
  a campaign failure artifact — and the run *continues* instead of
  dying mid-grid;
* completion is idempotent and first-result-wins: a shard re-leased
  after a timeout may eventually finish twice, but shard results are
  pure functions of ``(config, shard)`` (the REPRO106 lint rule
  enforces this statically), so whichever copy lands first is *the*
  result and the straggler is a no-op.

Merge order never depends on any of this: the plan (journaled as the
``plan`` event) fixes it up front, so a run that limps through three
worker crashes and a resume still merges byte-identically to a clean
serial run.

All timing here uses the monotonic clock (never wall time — the
determinism contract bans it from ``src/``); the clock is injectable
for tests.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.experiments.journal import QUARANTINE_DIR, RunJournal
from repro.experiments.scenarios import RunConfig
from repro.experiments.store import write_atomic
from repro.util.encoding import canonical_json

__all__ = [
    "PENDING",
    "LEASED",
    "COMPLETED",
    "QUARANTINED",
    "DEFAULT_MAX_RETRIES",
    "ShardTask",
    "QueuePolicy",
    "Lease",
    "WorkQueue",
    "execute_shard_task",
    "run_queue",
    "quarantine_artifact_name",
    "load_quarantined_shard",
    "replay_quarantined_shard",
]

#: Task lifecycle states (journal ``status`` values reuse these names).
PENDING = "pending"
LEASED = "leased"
COMPLETED = "completed"
QUARANTINED = "quarantined"

#: Default extra attempts after the first failure; one retry separates
#: "worker died / transient" from "this shard is poison".
DEFAULT_MAX_RETRIES = 1

#: Seconds the pooled loop waits for a result before re-checking
#: lease deadlines.
POLL_INTERVAL = 0.1


@dataclass(frozen=True)
class ShardTask:
    """One durable shard descriptor: everything a worker needs.

    ``config`` is the ``RunConfig.to_json_dict()`` payload (plain JSON
    so the task crosses process boundaries and lands in artifacts
    verbatim); ``key`` is the shard's content address in the store.
    """

    plan: int
    index: int
    module: str
    config: dict
    shard: dict
    key: str

    @property
    def uid(self) -> tuple[int, int]:
        return (self.plan, self.index)


@dataclass(frozen=True)
class QueuePolicy:
    """Lease/retry knobs (CLI: ``--max-retries`` / ``--shard-timeout``).

    ``shard_timeout`` is a per-lease deadline, checked only by the
    pooled loop (``jobs >= 2``): a lease older than this is expired and
    re-issued, counting as a failed attempt.  The expired worker is not
    killed and keeps its pool slot, so a shard that hangs forever still
    blocks the run rather than quarantining.  Serial runs never expire
    a lease.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    shard_timeout: float | None = None


@dataclass
class Lease:
    """One issued lease: the task, its token and its deadline."""

    task: ShardTask
    token: int
    deadline: float | None = None


@dataclass
class _TaskState:
    task: ShardTask
    status: str = PENDING
    attempts: int = 0
    token: int = 0
    lease: Lease | None = None
    error: str | None = None
    artifact: Path | None = None


class WorkQueue:
    """Lease-based shard queue with bounded retry and quarantine.

    Single-coordinator, many-worker: the coordinating process owns the
    queue and journal; workers (a local process pool today, remote
    hosts behind the same interface tomorrow) only ever see
    :class:`ShardTask` payloads.
    """

    def __init__(
        self,
        tasks: list[ShardTask],
        *,
        policy: QueuePolicy | None = None,
        journal: RunJournal | None = None,
        run_dir: Path | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy or QueuePolicy()
        self.journal = journal
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.clock = clock
        self._states: dict[tuple[int, int], _TaskState] = {
            task.uid: _TaskState(task) for task in tasks
        }
        self._order = [task.uid for task in tasks]

    # -- introspection -------------------------------------------------

    def counts(self) -> dict[str, int]:
        out = {PENDING: 0, LEASED: 0, COMPLETED: 0, QUARANTINED: 0}
        for state in self._states.values():
            out[state.status] += 1
        return out

    def state_of(self, task: ShardTask) -> tuple[str, int]:
        state = self._states[task.uid]
        return state.status, state.attempts

    def quarantined(self) -> list[tuple[ShardTask, str, Path | None]]:
        """Quarantined tasks with their last error and artifact path."""
        return [
            (s.task, s.error or "", s.artifact)
            for uid in self._order
            if (s := self._states[uid]).status == QUARANTINED
        ]

    # -- lifecycle -----------------------------------------------------

    def mark_quarantined(
        self, task: ShardTask, *, error: str, attempts: int
    ) -> None:
        """Pre-quarantine a task (resume honoring a prior run's verdict).

        The prior attempt count and error carry over, the artifact is
        the one the prior run wrote, and the verdict is journaled again
        so a replay of this invocation still shows the shard
        quarantined.
        """
        state = self._states[task.uid]
        state.status = QUARANTINED
        state.attempts = attempts
        state.error = error
        state.artifact = self._artifact_path(task)
        self._journal_quarantine(state)

    def lease(self) -> Lease | None:
        """Issue a lease over the first pending task, in plan order."""
        for uid in self._order:
            state = self._states[uid]
            if state.status != PENDING:
                continue
            state.status = LEASED
            state.attempts += 1
            state.token += 1
            lease = Lease(task=state.task, token=state.token)
            if self.policy.shard_timeout is not None:
                lease.deadline = self.clock() + self.policy.shard_timeout
            state.lease = lease
            self._journal(
                {
                    "event": "lease",
                    "key": state.task.key,
                    "attempt": state.attempts,
                }
            )
            return lease
        return None

    def complete(self, task: ShardTask, *, cached: bool = False) -> bool:
        """Mark a task done; idempotent (False if it already was).

        Accepts completions from *expired* leases too — the result of a
        pure shard is the result no matter which lease computed it.
        """
        state = self._states[task.uid]
        if state.status in (COMPLETED, QUARANTINED):
            return False
        state.status = COMPLETED
        state.lease = None
        event: dict = {"event": "complete", "key": task.key}
        if cached:
            event["cached"] = True
        self._journal(event)
        return True

    def fail(self, lease: Lease, error: str) -> str:
        """Record a failed attempt; returns the task's new status.

        Stale leases (superseded by a re-lease, or the task already
        finished) are ignored so a timed-out straggler cannot burn the
        retry budget of the attempt that replaced it.
        """
        state = self._states[lease.task.uid]
        if state.status != LEASED or state.token != lease.token:
            return state.status
        state.error = error
        state.lease = None
        if state.attempts > self.policy.max_retries:
            state.status = QUARANTINED
            state.artifact = self._write_quarantine(state)
            self._journal_quarantine(state)
            return QUARANTINED
        state.status = PENDING
        self._journal(
            {
                "event": "retry",
                "key": state.task.key,
                "attempt": state.attempts,
                "error": error,
            }
        )
        return PENDING

    def expire_stale_leases(self) -> list[Lease]:
        """Expire leases past their deadline.

        Each expiry is a failed attempt routed through :meth:`fail`, so
        the retry bound (and eventual quarantine) applies to it exactly
        as to a raised exception.  Returns the expired leases.
        """
        expired: list[Lease] = []
        now = self.clock()
        for uid in self._order:
            state = self._states[uid]
            lease = state.lease
            if state.status != LEASED or lease is None:
                continue
            if lease.deadline is not None and now > lease.deadline:
                expired.append(lease)
                self.fail(
                    lease,
                    f"lease expired: shard exceeded --shard-timeout "
                    f"{self.policy.shard_timeout}s",
                )
        return expired

    # -- quarantine artifacts -----------------------------------------

    def _artifact_path(self, task: ShardTask) -> Path | None:
        if self.run_dir is None:
            return None
        return self.run_dir / QUARANTINE_DIR / quarantine_artifact_name(task)

    def _write_quarantine(self, state: _TaskState) -> Path | None:
        path = self._artifact_path(state.task)
        if path is None:
            return None
        artifact = {
            "kind": "quarantined-shard",
            "exp_id": state.task.config.get("exp_id"),
            "tier": state.task.config.get("tier"),
            "seed": state.task.config.get("seed"),
            "module": state.task.module,
            "config": state.task.config,
            "shard": state.task.shard,
            "key": state.task.key,
            "attempts": state.attempts,
            "error": state.error,
        }
        write_atomic(path, canonical_json(artifact) + "\n")
        return path

    def _journal_quarantine(self, state: _TaskState) -> None:
        self._journal(
            {
                "event": "quarantine",
                "key": state.task.key,
                "attempts": state.attempts,
                "error": state.error,
                "artifact": state.artifact.name if state.artifact else None,
            }
        )

    def _journal(self, event: dict) -> None:
        if self.journal is not None:
            self.journal.append(event)


def quarantine_artifact_name(task: ShardTask) -> str:
    """Stable artifact filename for one shard (content-addressed)."""
    return f"shard-{task.key[:16]}.json"


def load_quarantined_shard(path: str | os.PathLike) -> dict:
    """Read and validate a quarantined-shard artifact file."""
    with open(path) as fh:
        artifact = json.load(fh)
    required = ("module", "config", "shard")
    if not isinstance(artifact, dict) or any(
        field_name not in artifact for field_name in required
    ):
        raise ValueError(
            f"{path}: not a quarantined-shard artifact "
            f"(required fields: {list(required)})"
        )
    return artifact


def replay_quarantined_shard(path: str | os.PathLike) -> dict:
    """Re-execute the exact shard a quarantine artifact describes.

    Raises whatever the shard raises — that traceback is the triage
    payload — and returns the shard result if the failure no longer
    reproduces.
    """
    artifact = load_quarantined_shard(path)
    result, _seconds = execute_shard_task(
        artifact["module"], artifact["config"], artifact["shard"]
    )
    return result


# -- worker side -------------------------------------------------------


def execute_shard_task(
    module: str, config_dict: dict, shard: dict
) -> tuple[dict, float]:
    """Worker entry point (top-level so it pickles across processes).

    Returns ``(result, seconds)`` with the execution time measured in
    the worker itself, so parallel runs attribute time correctly.
    """
    driver = importlib.import_module(module)
    t0 = time.perf_counter()
    result = driver.run_shard(RunConfig.from_json_dict(config_dict), shard)
    return result, time.perf_counter() - t0


# -- coordinator loop --------------------------------------------------


def run_queue(
    queue: WorkQueue,
    *,
    jobs: int,
    on_result: Callable[[ShardTask, dict, float], None],
) -> None:
    """Drain the queue: lease, execute, retry, quarantine, until done.

    ``on_result`` fires exactly once per completed task (first result
    wins) in completion order; merge determinism comes from the plan,
    not from this callback's ordering.  With ``jobs <= 1`` shards run
    in-process and leases never expire; with ``jobs > 1`` a worker pool
    executes leases, leases past their deadline are re-issued, and a
    worker crash that breaks the pool is charged only to the shard
    that crashes again when re-run alone.  An expired lease's worker is
    not killed: it keeps its pool slot until its shard returns.
    """
    if jobs <= 1:
        _run_serial(queue, on_result)
    else:
        _run_pooled(queue, jobs, on_result)


def _run_serial(
    queue: WorkQueue, on_result: Callable[[ShardTask, dict, float], None]
) -> None:
    while True:
        lease = queue.lease()
        if lease is None:
            return
        task = lease.task
        try:
            result, seconds = execute_shard_task(
                task.module, task.config, task.shard
            )
        except Exception as exc:
            queue.fail(lease, f"{type(exc).__name__}: {exc}")
            continue
        if queue.complete(task):
            on_result(task, result, seconds)


def _submit(pool: ProcessPoolExecutor, lease: Lease) -> Future:
    task = lease.task
    return pool.submit(execute_shard_task, task.module, task.config, task.shard)


def _settle(
    queue: WorkQueue,
    lease: Lease,
    future: Future,
    on_result: Callable[[ShardTask, dict, float], None],
) -> bool:
    """Apply one finished future to the queue; True if its pool broke."""
    try:
        result, seconds = future.result()
    except BrokenProcessPool:
        return True
    except Exception as exc:
        queue.fail(lease, f"{type(exc).__name__}: {exc}")
    else:
        if queue.complete(lease.task):
            on_result(lease.task, result, seconds)
    return False


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """A pool of ``jobs`` workers, each started on its own CPU.

    A forked worker begins on the coordinator's CPU, and the scheduler
    may leave the workers stacked there: on a 2-vCPU host, two workers
    of a ``jobs=2`` fast-tier run often each took twice their CPU time
    per shard, and the run was no faster than ``jobs=1``.
    """
    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_start_on_own_cpu,
        initargs=(multiprocessing.Value("i", 0),),
    )


def _start_on_own_cpu(slots) -> None:
    """Worker initializer: move to the next allowed CPU (round robin over
    ``slots``, a shared counter), then hand the full set back so the
    scheduler can still rebalance the worker later."""
    if not hasattr(os, "sched_setaffinity"):
        return
    with slots.get_lock():
        slot = slots.value
        slots.value += 1
    cpus = sorted(os.sched_getaffinity(0))
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
        os.sched_setaffinity(0, cpus)


def _run_pooled(
    queue: WorkQueue,
    jobs: int,
    on_result: Callable[[ShardTask, dict, float], None],
) -> None:
    pool = _worker_pool(jobs)
    in_flight: dict[Future, Lease] = {}
    try:
        while True:
            # Expired leases are re-issued below; their straggler
            # futures stay mapped — a late success still completes the
            # task idempotently.
            queue.expire_stale_leases()
            broken: list[Lease] = []
            while len(in_flight) < jobs:
                lease = queue.lease()
                if lease is None:
                    break
                try:
                    in_flight[_submit(pool, lease)] = lease
                except BrokenProcessPool:
                    # A worker died after the last wait returned, before
                    # its future failed: this lease never ran.
                    broken.append(lease)
                    break
            if not in_flight and not broken:
                return
            if not broken:
                done, _ = wait(
                    in_flight, timeout=POLL_INTERVAL, return_when=FIRST_COMPLETED
                )
                for future in done:
                    lease = in_flight.pop(future)
                    if _settle(queue, lease, future, on_result):
                        broken.append(lease)
            if broken:
                # A broken pool loses every in-flight future, so the
                # crash cannot be pinned on one shard.  Re-run each lost
                # lease alone on a fresh worker: a healthy neighbour
                # completes uncharged, and a shard that kills its worker
                # there too fails (bounded, so it still quarantines).
                lost = broken + list(in_flight.values())
                in_flight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                for lease in lost:
                    with ProcessPoolExecutor(max_workers=1) as solo:
                        if _settle(queue, lease, _submit(solo, lease), on_result):
                            queue.fail(lease, "worker process died (pool broke)")
                pool = _worker_pool(jobs)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
