"""Kill/resume and quarantine, end to end through ``run_suite``.

The headline guarantee of the checkpointed work queue: a run killed
with SIGKILL mid-flight resumes with **zero recomputation** of the
shards that completed before the kill, and the final merge (and the
written EXPERIMENTS.md) is **byte-identical** to an uninterrupted run.
And a shard that fails deterministically is quarantined with a replay
artifact while the rest of the suite completes normally.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments import e_fig1
from repro.experiments.journal import list_runs, replay_journal, run_dir
from repro.experiments.orchestrator import journal_status, run_suite
from repro.experiments.store import ResultStore

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _repro(*args: str, cache: Path, md: Path) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "--tier",
        "smoke",
        "--cache-dir",
        str(cache),
        "--write-md",
        str(md),
        *args,
    ]


def _summary(stdout: str) -> tuple[int, int, int]:
    match = re.search(
        r"shards: total=(\d+) recomputed=(\d+) cached=(\d+)", stdout
    )
    assert match, f"no shard summary in output:\n{stdout}"
    return tuple(int(g) for g in match.groups())


def test_sigkill_then_resume_zero_recompute_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    md_resumed = tmp_path / "resumed.md"

    # Start the run in its own process group and SIGKILL it as soon as
    # the store holds a first batch of results.  (On a fast machine the
    # run may finish before the kill lands — then this degenerates to
    # the plain warm-resume case, which must hold just as well.)
    proc = subprocess.Popen(
        _repro("--jobs", "2", cache=cache, md=md_resumed),
        env=_env(),
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    store = ResultStore(cache)
    while time.monotonic() < deadline:
        if proc.poll() is not None or len(store.keys()) >= 2:
            break
        time.sleep(0.005)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=60)

    # Whatever landed before the kill is the resume's starting capital.
    completed_at_kill = len(store.keys())
    [run_id] = list_runs(cache)
    # A SIGKILL mid-append corrupts at most the journal's final line;
    # replay must still parse everything before it.
    state = replay_journal(run_dir(cache, run_id) / "journal.jsonl")
    assert state.run_id == run_id

    result = subprocess.run(
        _repro("--jobs", "2", "--resume", cache=cache, md=md_resumed),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    total, recomputed, cached = _summary(result.stdout)
    # Zero recomputation of completed shards: the resume computed
    # exactly the complement of what the killed run finished.
    assert cached == completed_at_kill
    assert recomputed == total - completed_at_kill
    assert f"run id: {run_id}" in result.stdout

    # Byte-identity: an uninterrupted cold run writes the same file.
    md_clean = tmp_path / "clean.md"
    clean = subprocess.run(
        _repro("--jobs", "2", cache=tmp_path / "cache2", md=md_clean),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert md_resumed.read_bytes() == md_clean.read_bytes()

    # The journal agrees: every planned shard completed, none leased.
    state, rows = journal_status(store, run_id)
    counts = state.counts()
    assert counts["completed"] == counts["planned"] == total
    assert counts["leased"] == counts["quarantined"] == 0
    assert all(c["cached"] == c["planned"] for _, c in rows)


def test_quarantine_isolates_poison_shard_from_suite(tmp_path, monkeypatch):
    # FIG1's only smoke shard fails deterministically; the suite must
    # quarantine it (with a replayable artifact) and still merge the
    # other experiment normally.
    def poison(config, shard):
        raise RuntimeError("injected poison")

    monkeypatch.setattr(e_fig1, "run_shard", poison)
    store = ResultStore(tmp_path / "cache")
    runs = run_suite(
        ["FIG1", "TAB-SHRINK"], tier="smoke", store=store, max_retries=1
    )

    fig1, shrink = runs
    assert fig1.shards_quarantined == 1 and not fig1.record.passed
    assert "quarantined" in fig1.record.measured_summary
    [outcome] = fig1.shards
    assert outcome.quarantined and outcome.attempts == 2
    assert "injected poison" in outcome.error
    artifact = Path(outcome.artifact)
    assert artifact.is_file()
    assert artifact.parent.name == "quarantine"

    # The healthy experiment is untouched by its neighbour's poison.
    assert shrink.shards_quarantined == 0 and shrink.record.passed

    # Resume honors the quarantine verdict instead of retrying it.
    resumed = run_suite(
        ["FIG1", "TAB-SHRINK"],
        tier="smoke",
        store=store,
        max_retries=1,
        resume=True,
    )
    assert resumed[0].shards_quarantined == 1
    assert resumed[1].shards_cached == len(resumed[1].shards)
    # ... and reports it exactly as the original run did: same record
    # (attempts included) and the same full artifact path.
    assert resumed[0].record == fig1.record
    assert resumed[0].shards[0].artifact == outcome.artifact

    # A fresh (non-resume) run retries the shard; with the driver
    # fixed, it completes and the record recovers.
    monkeypatch.undo()
    retried = run_suite(["FIG1", "TAB-SHRINK"], tier="smoke", store=store)
    assert retried[0].shards_quarantined == 0 and retried[0].record.passed


def test_resume_without_journal_is_a_fresh_run(tmp_path):
    # --resume on a cache that has no journal must not fail; it just
    # runs fresh (and leaves a journal for next time).
    store = ResultStore(tmp_path / "cache")
    runs = run_suite(["FIG1"], tier="smoke", store=store, resume=True)
    assert runs[0].record.passed and runs[0].run_id
    assert list_runs(store.root) == [runs[0].run_id]
