"""Worker crashes under ``jobs=2``, with real worker processes.

A shard that kills its worker breaks the whole process pool, and every
in-flight shard's future fails with it.  The queue must pin the crash
on the shard that causes it: a healthy shard running next to it
completes with its result, while the crashing shard and a raising
shard quarantine once their retry budget is spent.  The driver module
is written to disk and imported by name, so workers find it under any
multiprocessing start method.
"""

from repro.experiments.orchestrator import run_suite
from repro.experiments.scenarios import ScenarioSpec
from repro.experiments.store import ResultStore

MODULE = "repro_test_crash_driver"

DRIVER = '''
import os
import time


def make_shards(config):
    return [{"cell": name} for name in ("slow", "crash", "raise")]


def run_shard(config, shard):
    if shard["cell"] == "crash":
        os._exit(3)
    if shard["cell"] == "raise":
        raise RuntimeError("injected failure")
    time.sleep(1.5)
    return {"cell": "slow", "ok": True}


def merge(config, shard_results):
    raise AssertionError("merge must not run with quarantined shards")
'''


def test_crash_is_charged_to_the_crashing_shard_only(tmp_path, monkeypatch):
    (tmp_path / f"{MODULE}.py").write_text(DRIVER)
    monkeypatch.syspath_prepend(str(tmp_path))
    spec = ScenarioSpec(
        exp_id="CRASH",
        title="worker crash isolation",
        module=MODULE,
        shard_axis="cell",
        tiers={"smoke": {}},
    )
    store = ResultStore(tmp_path / "cache")

    [run] = run_suite([spec], tier="smoke", jobs=2, store=store, max_retries=1)

    slow, crash, boom = run.shards
    # The healthy shard was in flight when the pool broke; re-run
    # alone, it completes uncharged and its result is kept.
    assert not slow.quarantined
    assert slow.result == {"cell": "slow", "ok": True}
    assert store.get(slow.key) == slow.result
    assert crash.quarantined and crash.attempts == 2
    assert "worker process died" in crash.error
    assert boom.quarantined and boom.attempts == 2
    assert "injected failure" in boom.error
    assert run.shards_quarantined == 2 and not run.record.passed
