"""Self-test of the benchmark's tracing and result format.

    python3 -m pytest perfbench/selftest_spans.py -q

Runs one traced pass (after one untraced pass) of every workload, so it
takes about a minute.  The name keeps it out of the repository's
default ``test_*.py`` collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_check_ids_match_the_campaign_registry():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.campaigns.checks import CHECKS

    assert spans.CHECK_IDS == tuple(CHECKS)


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.metric_units()


def test_self_time_subtracts_direct_children():
    recorder = spans.Recorder()
    with recorder.phase("w/1/cold"):
        outer = recorder.open("outer")
        inner = recorder.open("inner")
        recorder.close(inner)
        recorder.close(outer)
    outer.start, outer.end, inner.start, inner.end = 0.0, 3.0, 1.0, 2.5
    recorder.phases[0] = ("w/1/cold", -1.0, 4.0)
    assert spans.self_times(recorder.spans) == [1.5, 1.5]
    assert spans.layer_metrics(recorder)["bench.unattributed_s"] == 2.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_covers_every_designated_layer(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # correct also requires the traced pass's records to equal the
    # untraced pass's.
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m.name for m in spans.METRICS}
    zero = [
        m.name for m in spans.METRICS
        if m.workload == workload and not metrics[m.name]["value"]
    ]
    assert zero == []
    if workload == "campaign_core":
        assert metrics["store.get.hit_ratio"]["value"] == 1.0
        assert metrics["queue.fail.calls"]["value"] == 0


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fast_tier", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
