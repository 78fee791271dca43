"""Experiment frontend over the checkpointed work-queue service.

``run_suite``/``run_experiment`` keep their PR-4 public API — plan the
selected experiments' shards, execute the missing ones, merge in plan
order — but execution now rides the three-layer spine
(docs/orchestration.md):

* :mod:`repro.experiments.queue` — shards become leased tasks with
  bounded retry and poison-shard **quarantine** (a deterministically-
  failing shard is recorded as a JSON replay artifact and the run
  continues).  A per-shard lease deadline applies only under
  ``jobs >= 2``, and an expired worker is not killed, so a shard that
  hangs forever still blocks the run;
* :mod:`repro.experiments.journal` — every run with a store gets an
  append-only canonical-JSON **run journal** under
  ``<cache-dir>/runs/<run-id>/``; ``resume=True`` re-attaches to it,
  recomputing nothing that completed before a kill;
* :mod:`repro.experiments.store` — completed shard results live in
  the content-addressed :class:`ResultStore`, one atomically written
  JSON file per shard.

Determinism guarantees (pinned by tests/experiments/):

* shard results are pure functions of ``(config, shard)``; all
  randomness derives from ``config.seed``;
* shards merge **in plan order**, never completion order, so
  ``--jobs N``, kill/resume, and retried-lease runs are all
  bit-identical to a serial run;
* every shard result is normalized through a canonical-JSON round
  trip before merging, so warm-cache, cold, and cache-disabled runs
  also agree byte-for-byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.experiments.journal import (
    JOURNAL_NAME,
    JOURNAL_VERSION,
    RunJournal,
    RunState,
    derive_run_id,
    replay_journal,
    run_dir,
)
from repro.experiments.queue import (
    DEFAULT_MAX_RETRIES,
    QUARANTINED,
    QueuePolicy,
    ShardTask,
    WorkQueue,
    run_queue,
)
from repro.experiments.records import ExperimentRecord
from repro.experiments.scenarios import (
    SCENARIO_MODULES,
    RunConfig,
    ScenarioSpec,
    get_scenario,
)
from repro.experiments.store import ResultStore, shard_key
from repro.util.encoding import json_roundtrip

__all__ = [
    "ShardOutcome",
    "ExperimentRun",
    "validate_experiment_ids",
    "resolve_specs",
    "plan_shards",
    "run_experiment",
    "run_suite",
    "shard_status",
    "journal_status",
]


@dataclass(frozen=True)
class ShardOutcome:
    """One executed, cache-served, or quarantined shard.

    ``seconds`` is the shard's own execution time as measured in the
    worker that ran it (0.0 for cache hits), so it is meaningful for
    finding slow shards even under ``--jobs N``.  ``result`` is the
    shard's normalized payload — what ``merge`` consumed — so callers
    that need per-shard detail beyond the merged record (the campaign
    CLI extracting replay artifacts, say) get it without a cache read.
    Quarantined shards carry ``result=None`` plus the error and the
    replay-artifact path.
    """

    index: int
    shard: dict
    key: str
    cached: bool
    seconds: float
    result: dict | None = None
    quarantined: bool = False
    attempts: int = 0
    error: str | None = None
    artifact: str | None = None


@dataclass(frozen=True)
class ExperimentRun:
    """A merged experiment: the record plus its execution ledger.

    ``seconds`` is the compute time attributed to *this* experiment —
    the sum of its shards' execution times plus its merge — not wall
    clock, so it is comparable across serial, parallel, and
    warm-cache runs (cached shards contribute 0).  ``run_id`` names
    the journaled run this experiment executed under (None without a
    store).
    """

    record: ExperimentRecord
    config: RunConfig
    shards: list[ShardOutcome]
    seconds: float
    run_id: str | None = None

    @property
    def shards_cached(self) -> int:
        return sum(outcome.cached for outcome in self.shards)

    @property
    def shards_quarantined(self) -> int:
        return sum(outcome.quarantined for outcome in self.shards)

    @property
    def shards_computed(self) -> int:
        return len(self.shards) - self.shards_cached - self.shards_quarantined


def validate_experiment_ids(ids: list[str] | None) -> list[str]:
    """Resolve the selection, rejecting *every* unknown id up front.

    Validation happens before any shard executes, so a typo in the last
    requested id cannot burn the minutes of the ids before it.
    """
    if ids is None:
        return list(SCENARIO_MODULES)
    unknown = [exp_id for exp_id in ids if exp_id not in SCENARIO_MODULES]
    if unknown:
        raise KeyError(
            f"unknown experiment{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(e) for e in unknown)}; "
            f"known: {sorted(SCENARIO_MODULES)}"
        )
    return list(ids)


def resolve_specs(
    selection: list[str | ScenarioSpec] | None,
) -> list[ScenarioSpec]:
    """Resolve a mixed selection of registry ids and literal specs.

    Strings go through the experiment registry (every unknown id is
    rejected before anything executes); :class:`ScenarioSpec` instances
    pass through as-is, which is how off-registry scenarios — the
    randomized campaigns of :mod:`repro.campaigns` — ride the same
    sharded/cached execution path as the registered experiments.
    """
    if selection is None:
        return [get_scenario(exp_id) for exp_id in SCENARIO_MODULES]
    ids = [item for item in selection if isinstance(item, str)]
    validate_experiment_ids(ids)
    return [
        item if isinstance(item, ScenarioSpec) else get_scenario(item)
        for item in selection
    ]


def plan_shards(spec: ScenarioSpec, config: RunConfig) -> list[dict]:
    """The spec's shard list for one config (delegates to the driver)."""
    return spec.driver().make_shards(config)


@dataclass
class _Plan:
    spec: ScenarioSpec
    config: RunConfig
    shards: list[dict]
    keys: list[str]
    data: list[dict | None]  # cache hits pre-filled, None = must compute


def _make_plan(
    spec: ScenarioSpec,
    *,
    tier: str,
    seed: int | None,
    store: ResultStore | None,
) -> _Plan:
    config = spec.config(tier, seed=seed)
    shards = plan_shards(spec, config)
    keys = [shard_key(config, shard, spec.code_version) for shard in shards]
    data = [store.get(key) if store is not None else None for key in keys]
    return _Plan(spec, config, shards, keys, data)


def _quarantined_record(
    plan: _Plan, lost: list[ShardOutcome]
) -> ExperimentRecord:
    """Placeholder record for an experiment with poisoned shards.

    The run as a whole keeps going (and other experiments merge
    normally); this record carries the triage pointers instead of a
    merged table, and ``passed=False`` makes the exit status honest.
    """
    record = ExperimentRecord(
        exp_id=plan.config.exp_id,
        title=plan.spec.title,
        paper_claim="(not evaluated: shards quarantined)",
        columns=["shard", "attempts", "error"],
        measured_summary=(
            f"{len(lost)}/{len(plan.shards)} shards quarantined after "
            "exhausting retries; merged record unavailable"
        ),
        passed=False,
        notes=(
            "replay each artifact with `python -m repro --replay-shard "
            "<artifact.json>`; fix the driver (or environment) and "
            "re-run without --resume to retry quarantined shards"
        ),
    )
    for outcome in lost:
        record.add_row(
            shard=outcome.key[:16],
            attempts=outcome.attempts,
            error=(outcome.error or "")[:120],
        )
    return record


def _finish_plan(
    plan: _Plan,
    durations: list[float],
    quarantine: dict[int, ShardOutcome],
    run_id: str | None,
) -> ExperimentRun:
    outcomes = []
    for i, (shard, key, duration, result) in enumerate(
        zip(plan.shards, plan.keys, durations, plan.data)
    ):
        if i in quarantine:
            outcomes.append(quarantine[i])
            continue
        outcomes.append(
            ShardOutcome(
                index=i,
                shard=shard,
                key=key,
                cached=duration < 0,
                seconds=max(duration, 0.0),
                result=result,
            )
        )
    lost = [o for o in outcomes if o.quarantined]
    if lost:
        record = _quarantined_record(plan, lost)
        merge_seconds = 0.0
    else:
        t0 = time.perf_counter()
        record = plan.spec.driver().merge(plan.config, plan.data)
        merge_seconds = time.perf_counter() - t0
    return ExperimentRun(
        record=record,
        config=plan.config,
        shards=outcomes,
        seconds=sum(o.seconds for o in outcomes) + merge_seconds,
        run_id=run_id,
    )


def run_suite(
    ids: list[str | ScenarioSpec] | None = None,
    *,
    tier: str = "fast",
    seed: int | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    shard_timeout: float | None = None,
    run_id: str | None = None,
    resume: bool = False,
) -> list[ExperimentRun]:
    """Run a selection of experiments through the work-queue service.

    The selection mixes registry ids with literal
    :class:`ScenarioSpec` objects (see :func:`resolve_specs`).  All
    experiments' missing shards share one leased work queue, so a wide
    selection saturates ``--jobs`` workers even when individual
    experiments have few shards.  Results come back in selection order
    with shard order preserved inside each experiment.

    With a ``store``, the run is **journaled** under
    ``<cache-dir>/runs/<run-id>/`` (``run_id`` defaults to a content
    hash of the planned work, so the same invocation always maps to
    the same journal).  ``resume=True`` re-attaches to that journal:
    completed shards are served from the store (zero recomputation),
    previously quarantined shards stay quarantined, and only the rest
    execute.  ``max_retries``/``shard_timeout`` tune the lease
    discipline (see :class:`QueuePolicy`).
    """
    plans = [
        _make_plan(spec, tier=tier, seed=seed, store=store)
        for spec in resolve_specs(ids)
    ]

    rid: str | None = None
    journal: RunJournal | None = None
    rdir: Path | None = None
    prior: RunState | None = None
    if store is not None:
        rid = run_id or derive_run_id(
            [(plan.config.exp_id, plan.keys) for plan in plans], tier, seed
        )
        rdir = run_dir(store.root, rid)
        journal_path = rdir / JOURNAL_NAME
        if resume and journal_path.is_file():
            prior = replay_journal(journal_path)
        journal = RunJournal(journal_path, fresh=prior is None)

    try:
        return _run_planned(
            plans,
            jobs=jobs,
            store=store,
            queue_policy=QueuePolicy(
                max_retries=max_retries, shard_timeout=shard_timeout
            ),
            rid=rid,
            rdir=rdir,
            journal=journal,
            prior=prior,
        )
    finally:
        if journal is not None:
            journal.close()


def _run_planned(
    plans: list[_Plan],
    *,
    jobs: int,
    store: ResultStore | None,
    queue_policy: QueuePolicy,
    rid: str | None,
    rdir: Path | None,
    journal: RunJournal | None,
    prior: RunState | None,
) -> list[ExperimentRun]:
    if journal is not None:
        if prior is None:
            journal.append(
                {
                    "event": "plan",
                    "run_id": rid,
                    "version": JOURNAL_VERSION,
                    "tier": plans[0].config.tier if plans else "",
                    "seed": plans[0].config.seed if plans else None,
                    "experiments": [
                        {"exp_id": plan.config.exp_id, "keys": plan.keys}
                        for plan in plans
                    ],
                }
            )
        else:
            journal.append({"event": "resume", "run_id": rid})

    # Journal cache hits the journal has not seen complete yet, so a
    # resumed/warm run's ledger still accounts for every shard.
    tasks: list[ShardTask] = []
    for p, plan in enumerate(plans):
        for s, payload in enumerate(plan.data):
            key = plan.keys[s]
            if payload is not None:
                if journal is not None and (
                    prior is None or prior.status.get(key) != "completed"
                ):
                    journal.append(
                        {"event": "complete", "key": key, "cached": True}
                    )
                continue
            tasks.append(
                ShardTask(
                    plan=p,
                    index=s,
                    module=plan.spec.module,
                    config=plan.config.to_json_dict(),
                    shard=plan.shards[s],
                    key=key,
                )
            )

    queue = WorkQueue(
        tasks, policy=queue_policy, journal=journal, run_dir=rdir
    )
    if prior is not None:
        for task in tasks:
            if prior.status.get(task.key) == QUARANTINED:
                queue.mark_quarantined(
                    task,
                    error=prior.errors.get(task.key, "quarantined in prior run"),
                    attempts=prior.attempts.get(task.key, 0),
                )
    durations: list[list[float]] = [[-1.0] * len(plan.shards) for plan in plans]

    def on_result(task: ShardTask, result: dict, seconds: float) -> None:
        plan = plans[task.plan]
        # Normalize through canonical JSON so cold == warm byte-for-byte.
        result = json_roundtrip(result)
        plan.data[task.index] = result
        durations[task.plan][task.index] = seconds
        if store is not None:
            # Persist each shard as it lands (not in plan order): an
            # interrupted run keeps everything that finished before
            # the interrupt, so the resume recomputes only the rest.
            # Merging stays deterministic — results land by index.
            store.put(
                task.key,
                result,
                meta={
                    "exp_id": plan.config.exp_id,
                    "tier": plan.config.tier,
                    "seed": plan.config.seed,
                    "shard": plan.shards[task.index],
                    "code_version": plan.spec.code_version,
                    "seconds": round(seconds, 4),
                },
            )

    run_queue(queue, jobs=jobs, on_result=on_result)

    quarantine: dict[int, dict[int, ShardOutcome]] = {
        p: {} for p in range(len(plans))
    }
    for task, error, artifact in queue.quarantined():
        _status, attempts = queue.state_of(task)
        quarantine[task.plan][task.index] = ShardOutcome(
            index=task.index,
            shard=task.shard,
            key=task.key,
            cached=False,
            seconds=0.0,
            result=None,
            quarantined=True,
            attempts=attempts,
            error=error,
            artifact=str(artifact) if artifact is not None else None,
        )

    return [
        _finish_plan(plan, durations[p], quarantine[p], rid)
        for p, plan in enumerate(plans)
    ]


def run_experiment(spec_or_id: str | ScenarioSpec, **options: Any) -> ExperimentRun:
    """Run one experiment; ``options`` are :func:`run_suite`'s keywords."""
    return run_suite([spec_or_id], **options)[0]


def shard_status(
    ids: list[str | ScenarioSpec] | None,
    *,
    tier: str,
    seed: int | None,
    store: ResultStore,
) -> list[tuple[str, int, int]]:
    """Per-experiment ``(exp_id, cached, total)`` cache occupancy."""
    rows = []
    for spec in resolve_specs(ids):
        plan = _make_plan(spec, tier=tier, seed=seed, store=store)
        cached = sum(payload is not None for payload in plan.data)
        rows.append((spec.exp_id, cached, len(plan.shards)))
    return rows


def journal_status(
    store: ResultStore, run_id: str
) -> tuple[RunState, list[tuple[str, dict[str, int]]]]:
    """A journaled run's progress, live or post-mortem.

    Reuses the :func:`shard_status` idea — planned keys checked
    against the store — but sourced from the run journal, so it works
    for killed runs, literal (off-registry) campaign specs, and runs
    still executing in another process.  Returns the folded
    :class:`RunState` plus per-experiment count rows
    ``{planned, completed, cached, leased, quarantined, pending}``
    (``cached`` is live store occupancy; ``completed`` is what the
    journal recorded).
    """
    journal_path = run_dir(store.root, run_id) / JOURNAL_NAME
    if not journal_path.is_file():
        raise FileNotFoundError(
            f"no journal for run {run_id!r} under {store.root}/runs"
        )
    state = replay_journal(journal_path)
    rows: list[tuple[str, dict[str, int]]] = []
    for exp_id, keys in state.planned.items():
        counts = {
            "planned": len(keys),
            "completed": 0,
            "cached": 0,
            "leased": 0,
            "quarantined": 0,
        }
        for key in keys:
            status = state.status.get(key)
            if status == "completed":
                counts["completed"] += 1
            elif status == "leased":
                counts["leased"] += 1
            elif status == "quarantined":
                counts["quarantined"] += 1
            if store.get(key) is not None:
                counts["cached"] += 1
        counts["pending"] = (
            counts["planned"]
            - counts["completed"]
            - counts["leased"]
            - counts["quarantined"]
        )
        rows.append((exp_id, counts))
    return state, rows
