"""CLI smoke tests for ``python -m repro.experiments.runner`` and the
EXP-ASYNC/RAND determinism guarantee.

The runner's ``--write-md`` path regenerates EXPERIMENTS.md from
scratch; the smoke test exercises the real console entry point in a
subprocess against a tmp path (previously untested).  The determinism
test pins the satellite requirement that the async/random experiment
is a pure function of its seed.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.orchestrator import run_experiment

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
        env=env,
    )


def test_write_md_smoke(tmp_path):
    """`runner --write-md` regenerates the results file and exits 0."""
    md = tmp_path / "EXPERIMENTS.md"
    proc = _run_cli(["EXP-ASYNC/RAND", "--write-md", str(md)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert md.exists()
    text = md.read_text()
    assert text.startswith("# EXPERIMENTS — paper vs. measured")
    assert "EXP-ASYNC/RAND" in text
    assert "reproduced" in text.lower()
    assert f"wrote {md}" in proc.stdout


def test_write_md_and_json_smoke(tmp_path):
    md = tmp_path / "out.md"
    js = tmp_path / "out.json"
    proc = _run_cli(
        ["EXP-ASYNC/RAND", "--write-md", str(md), "--write-json", str(js)],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    import json

    payload = json.loads(js.read_text())
    assert payload and payload[0]["exp_id"] == "EXP-ASYNC/RAND"
    assert payload[0]["passed"] is True


def test_unknown_experiment_fails_loudly(tmp_path):
    proc = _run_cli(["NO-SUCH-EXP"], tmp_path)
    assert proc.returncode != 0
    assert "unknown experiment" in (proc.stderr + proc.stdout)


def test_unknown_experiment_rejected_before_any_run(tmp_path):
    """A typo after a valid id fails fast: no table is ever printed."""
    proc = _run_cli(["FIG1", "NO-SUCH-EXP"], tmp_path)
    assert proc.returncode != 0
    assert "unknown experiment" in (proc.stderr + proc.stdout)
    assert "== FIG1" not in proc.stdout


def test_list_scenarios(tmp_path):
    proc = _run_cli(["--list"], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for exp_id in ("FIG1", "EXP-T41", "EXP-ASYNC/RAND"):
        assert exp_id in proc.stdout
    assert "smoke/fast/full/stress" in proc.stdout


def test_smoke_tier_cache_round_trip(tmp_path):
    """Cold run computes, warm run is a pure cache hit, identical md."""
    md = tmp_path / "EXPERIMENTS.md"
    args = [
        "FIG1", "EXP-OPEN",
        "--tier", "smoke", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--write-md", str(md),
    ]
    cold = _run_cli(args, tmp_path)
    assert cold.returncode == 0, cold.stderr[-2000:]
    assert "recomputed=4 cached=0" in cold.stdout
    first = md.read_bytes()

    warm = _run_cli(args, tmp_path)
    assert warm.returncode == 0, warm.stderr[-2000:]
    assert "recomputed=0 cached=4" in warm.stdout
    assert md.read_bytes() == first

    status = _run_cli(
        [
            "FIG1", "EXP-OPEN",
            "--tier", "smoke",
            "--cache-dir", str(tmp_path / "cache"),
            "--shard-status",
        ],
        tmp_path,
    )
    assert status.returncode == 0, status.stderr[-2000:]
    assert "TOTAL           4/4 shards cached" in status.stdout


def test_no_cache_disables_store(tmp_path):
    args = [
        "FIG1", "--tier", "smoke", "--no-cache",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    for _ in range(2):
        proc = _run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "recomputed=1 cached=0" in proc.stdout
    assert not (tmp_path / "cache").exists()


def test_bad_jobs_rejected(tmp_path):
    proc = _run_cli(["--jobs", "0"], tmp_path)
    assert proc.returncode != 0
    assert "--jobs" in proc.stderr


@pytest.mark.parametrize(
    "flag,value", [("--max-retries", "-1"), ("--shard-timeout", "0")]
)
def test_bad_retry_options_rejected_before_running(tmp_path, flag, value):
    """--max-retries < 0 and --shard-timeout <= 0 are usage errors."""
    proc = _run_cli(["FIG1", "--tier", "smoke", flag, value], tmp_path)
    assert proc.returncode == 2, proc.stdout
    assert flag in proc.stderr
    assert "== FIG1" not in proc.stdout
    assert not (tmp_path / ".repro-cache").exists()


def _async_random(seed):
    return run_experiment("EXP-ASYNC/RAND", tier="fast", seed=seed).record


def test_async_random_is_seed_deterministic():
    """EXP-ASYNC/RAND is a pure function of its seed, run to run."""
    first = _async_random(123)
    second = _async_random(123)
    assert first.to_json_dict() == second.to_json_dict()
    assert first.passed
    other = _async_random(321)
    # A different seed reroots the adversary schedules and coin streams;
    # the verdict must hold regardless.
    assert other.passed
    assert other.to_json_dict() != first.to_json_dict()
