"""Checkpointed run state: the append-only run journal.

A **run** is one invocation of the orchestrator over a planned set of
shards.  Its journal is a file of canonical-JSON lines (one event per
line) under the cache directory::

    <cache-dir>/runs/<run-id>/journal.jsonl     the event log
    <cache-dir>/runs/<run-id>/quarantine/       poison-shard artifacts

Events (``{"event": ..., ...}``):

``plan``
    Run header: run id, tier, seed, and — per experiment — the exp id
    and every planned shard key *in merge order*.  This is the durable
    shard descriptor set: merge order comes from this plan, never from
    completion order, which is what makes a killed-and-resumed run
    byte-identical to an uninterrupted one.
``resume``
    A later invocation re-attached to the run.
``lease`` / ``retry`` / ``complete`` / ``quarantine``
    Per-shard lifecycle, keyed by the shard's content address.

An append is one event, or a run's **planning batch** (the ``plan`` or
``resume`` header plus a ``complete`` for every cache hit), written
once, then flushed and fsynced once.  Per-shard queue events are one
append each.  The journal is **crash-tolerant by construction**: lines
are only ever appended, in order, so a SIGKILL truncates at most the
last line that reached the file, which :func:`replay_journal` detects
and drops, and which :class:`RunJournal` cuts before a resume appends.
Cache-hit ``complete`` events lost that way are journaled again by the
``--resume`` that follows.  Replay folds the event stream into a
:class:`RunState` — the per-key status a resumed run (or ``repro
campaign status``) starts from.

Run ids are *content-derived* (:func:`derive_run_id`): the SHA-256 of
the planned key set.  The same selection, tier, and seed always maps
to the same run id, so ``--resume`` without an explicit id re-attaches
to exactly the run the same command line started earlier.

Nothing here reads a wall clock or OS entropy — the journal is a pure
function of the planned work and the execution events, per the repo's
determinism contract (docs/static_analysis.md).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from repro.util.encoding import canonical_json

__all__ = [
    "JOURNAL_NAME",
    "QUARANTINE_DIR",
    "RUNS_DIR",
    "derive_run_id",
    "run_dir",
    "list_runs",
    "RunJournal",
    "RunState",
    "replay_journal",
]

#: File names inside ``<cache-dir>/runs/<run-id>/``.
JOURNAL_NAME = "journal.jsonl"
QUARANTINE_DIR = "quarantine"

#: Sub-directory of the cache root holding all run state.
RUNS_DIR = "runs"

#: Journal format version, recorded in the ``plan`` event.
JOURNAL_VERSION = 1


def derive_run_id(plan: list[tuple[str, list[str]]], tier: str, seed: Any) -> str:
    """Content-derived run id over the planned ``(exp_id, keys)`` sets.

    Shard keys already hash the config, params, shard payloads, and
    code versions, so two invocations get the same run id exactly when
    they would execute the same work — which is precisely when
    ``--resume`` should re-attach.
    """
    payload = {
        "experiments": [{"exp_id": e, "keys": ks} for e, ks in plan],
        "tier": tier,
        "seed": seed,
    }
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    return f"run-{digest[:12]}"


def run_dir(cache_root: str | os.PathLike, run_id: str) -> Path:
    """Directory holding one run's journal and quarantine artifacts."""
    return Path(cache_root) / RUNS_DIR / run_id


def list_runs(cache_root: str | os.PathLike) -> list[str]:
    """Run ids with a journal under ``cache_root``, sorted."""
    base = Path(cache_root) / RUNS_DIR
    if not base.is_dir():
        return []
    return sorted(
        p.name for p in base.iterdir() if (p / JOURNAL_NAME).is_file()
    )


class RunJournal:
    """Append-only event log of one run (crash-safe line appends).

    Opened in append mode; every :meth:`append` writes one event, or a
    run's planning batch, as canonical-JSON lines in a single write,
    then flushes and fsyncs once.  A SIGKILL truncates at most the last
    line that reached the file — it never reorders or corrupts earlier
    ones — and :func:`replay_journal` drops that line.
    """

    def __init__(self, path: str | os.PathLike, *, fresh: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not fresh:
            _end_at_line_boundary(self.path)
        self._fh: IO[str] = open(self.path, "w" if fresh else "a")

    def append(self, *events: dict) -> None:
        self._fh.write("".join(canonical_json(event) + "\n" for event in events))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - double close
            pass

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _end_at_line_boundary(path: Path) -> None:
    """Settle a final line a crash left without its newline, so the
    next append starts a line of its own.

    The line is judged as :func:`replay_journal` judges it: kept (and
    terminated) when it parses, cut when it is torn.
    """
    try:
        with open(path, "rb+") as fh:
            data = fh.read()
            if not data or data.endswith(b"\n"):
                return
            start = data.rfind(b"\n") + 1
            try:
                json_roundtrip_line(data[start:].decode())
            except ValueError:
                fh.truncate(start)
            else:
                fh.write(b"\n")
    except FileNotFoundError:
        pass


@dataclass
class RunState:
    """Folded journal state: what a resume (or a status query) sees."""

    run_id: str = ""
    tier: str = ""
    seed: Any = None
    #: exp_id -> planned shard keys, in merge order.
    planned: dict[str, list[str]] = field(default_factory=dict)
    #: shard key -> "leased" | "completed" | "quarantined".
    status: dict[str, str] = field(default_factory=dict)
    #: shard key -> execution attempts observed so far.
    attempts: dict[str, int] = field(default_factory=dict)
    #: shard key -> quarantine artifact filename (within quarantine/).
    artifacts: dict[str, str] = field(default_factory=dict)
    #: shard key -> last recorded error string.
    errors: dict[str, str] = field(default_factory=dict)
    #: number of ``resume`` events seen.
    resumes: int = 0
    #: True when the final line was truncated (dropped during replay).
    truncated_tail: bool = False

    def counts(self) -> dict[str, int]:
        planned = sum(len(ks) for ks in self.planned.values())
        completed = sum(1 for s in self.status.values() if s == "completed")
        leased = sum(1 for s in self.status.values() if s == "leased")
        quarantined = sum(
            1 for s in self.status.values() if s == "quarantined"
        )
        return {
            "planned": planned,
            "completed": completed,
            "leased": leased,
            "quarantined": quarantined,
            "pending": max(planned - completed - leased - quarantined, 0),
        }


def _fold(state: RunState, event: dict) -> None:
    kind = event.get("event")
    key = event.get("key")
    if kind == "plan":
        state.run_id = event.get("run_id", state.run_id)
        state.tier = event.get("tier", state.tier)
        state.seed = event.get("seed", state.seed)
        state.planned = {
            exp["exp_id"]: list(exp["keys"])
            for exp in event.get("experiments", [])
        }
    elif kind == "resume":
        state.resumes += 1
    elif kind == "lease" and isinstance(key, str):
        # A lease over a completed shard never happens; over a
        # quarantined one only via an explicit retry (fresh run).
        if state.status.get(key) != "completed":
            state.status[key] = "leased"
        state.attempts[key] = max(
            state.attempts.get(key, 0), int(event.get("attempt", 1))
        )
    elif kind == "retry" and isinstance(key, str):
        if state.status.get(key) == "leased":
            del state.status[key]  # back to pending
        if "error" in event:
            state.errors[key] = str(event["error"])
    elif kind == "complete" and isinstance(key, str):
        state.status[key] = "completed"
    elif kind == "quarantine" and isinstance(key, str):
        state.status[key] = "quarantined"
        state.attempts[key] = max(
            state.attempts.get(key, 0), int(event.get("attempts", 1))
        )
        if "artifact" in event:
            state.artifacts[key] = str(event["artifact"])
        if "error" in event:
            state.errors[key] = str(event["error"])


def replay_journal(path: str | os.PathLike) -> RunState:
    """Fold a journal file into a :class:`RunState`.

    Tolerates exactly the corruption a SIGKILL can produce: a
    truncated (unparseable) **final** line is dropped and flagged via
    ``truncated_tail``.  An unparseable line *before* the end means
    the file was damaged by something other than an append-crash and
    raises ``ValueError`` rather than silently skipping events.
    """
    state = RunState()
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline of a cleanly-written file
    for index, line in enumerate(lines):
        try:
            event = json_roundtrip_line(line)
        except ValueError:
            if index == len(lines) - 1:
                state.truncated_tail = True
                break
            raise ValueError(
                f"{path}: corrupt journal line {index + 1} "
                "(not the final line, so not an append-crash artifact)"
            )
        _fold(state, event)
    return state


def json_roundtrip_line(line: str) -> dict:
    """Parse one journal line, requiring a JSON object."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(str(exc)) from exc
    if not isinstance(event, dict):
        raise ValueError(f"journal line is not an object: {line[:80]!r}")
    return event

