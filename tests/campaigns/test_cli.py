"""``repro campaign`` CLI: list/run/replay round trips, artifact
writing on failure, and the runner's subcommand dispatch."""

import json

import pytest

import repro.campaigns.checks as checks_module
import repro.campaigns.cli as cli_module
from repro.campaigns.cli import main as campaign_main
from repro.campaigns.registry import make_campaign
from repro.experiments.runner import main as runner_main

MINI = make_campaign(
    "mini-cli",
    title="CLI-test campaign",
    tiers={
        "smoke": {
            "families": [
                {"family": "oriented_ring", "rungs": [{"n": 5}]},
                {"family": "random_tree", "rungs": [{"n": 6}]},
            ],
            "checks": ["differential/uxs-cover", "statistical/meeting-time"],
            "seeds_per_cell": 1,
            "knobs": {"max_pairs": 3},
        }
    },
)


@pytest.fixture
def mini_registry(monkeypatch):
    registry = {"mini-cli": MINI}
    monkeypatch.setattr(cli_module, "CAMPAIGNS", registry)
    import repro.campaigns.registry as registry_module

    monkeypatch.setattr(registry_module, "CAMPAIGNS", registry)
    return registry


def test_list_prints_campaigns_and_checks(capsys):
    assert campaign_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "core" in out and "random" in out
    assert "differential/stic-sweep" in out
    assert "metamorphic/node-relabel" in out


def test_run_clean_campaign_exits_zero(tmp_path, capsys, mini_registry):
    code = campaign_main(
        [
            "run",
            "mini-cli",
            "--tier",
            "smoke",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--artifacts",
            str(tmp_path / "artifacts"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "failures=0" in out
    assert "CAMPAIGN/mini-cli" in out
    # A clean run writes no artifacts.
    assert not (tmp_path / "artifacts").exists()
    # Warm re-run: pure cache hit.
    code = campaign_main(
        [
            "run",
            "mini-cli",
            "--tier",
            "smoke",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--artifacts",
            str(tmp_path / "artifacts"),
        ]
    )
    assert code == 0
    assert "recomputed=0" in capsys.readouterr().out


def test_run_writes_artifacts_and_replay_reproduces(
    tmp_path, capsys, monkeypatch, mini_registry
):
    artifacts_dir = tmp_path / "artifacts"
    with monkeypatch.context() as patch:
        patch.setattr(
            checks_module, "is_uxs_for_graph_vectorized", lambda graph, seq: True
        )
        code = campaign_main(
            [
                "run",
                "mini-cli",
                "--no-cache",
                "--artifacts",
                str(artifacts_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED cell differential/uxs-cover" in out
        paths = sorted(artifacts_dir.glob("replay-*.json"))
        assert paths
        # Replay while the bug is live: reproduces, exit 1.
        assert campaign_main(["replay", str(paths[0])]) == 1
        assert "FAILED (reproduced)" in capsys.readouterr().out
    # Bug reverted: the artifact no longer fails, exit 0.
    assert campaign_main(["replay", str(paths[0])]) == 0
    assert "no longer reproduces" in capsys.readouterr().out


def test_replay_rejects_bad_artifacts(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert campaign_main(["replay", str(missing)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"check": "differential/uxs-cover"}))
    assert campaign_main(["replay", str(invalid)]) == 2
    err = capsys.readouterr().err
    assert "cannot load artifact" in err


def test_run_unknown_campaign_exits_two(capsys):
    assert campaign_main(["run", "nope"]) == 2
    assert "unknown campaign" in capsys.readouterr().err


def test_runner_dispatches_campaign_subcommand(capsys):
    assert runner_main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    assert "campaign" in out and "checks" in out


def test_status_shows_completed_ledger(tmp_path, capsys, mini_registry):
    cache = str(tmp_path / "cache")
    code = campaign_main(
        ["run", "mini-cli", "--tier", "smoke", "--cache-dir", cache,
         "--artifacts", str(tmp_path / "artifacts")]
    )
    out = capsys.readouterr().out
    assert code == 0
    run_id = next(
        word for word in out.split() if word.startswith("run-")
    )
    assert campaign_main(["status", run_id, "--cache-dir", cache]) == 0
    status_out = capsys.readouterr().out
    assert f"run {run_id}" in status_out
    assert "CAMPAIGN/mini-cli" in status_out
    assert "0 leased, 0 quarantined, 0 pending" in status_out


def test_status_unknown_run_exits_two(tmp_path, capsys):
    code = campaign_main(
        ["status", "run-doesnotexist", "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 2
    assert "no journal" in capsys.readouterr().err


def test_resume_recomputes_nothing_completed(tmp_path, capsys, mini_registry):
    cache = str(tmp_path / "cache")
    base = ["run", "mini-cli", "--tier", "smoke", "--cache-dir", cache,
            "--artifacts", str(tmp_path / "artifacts")]
    assert campaign_main(base) == 0
    capsys.readouterr()
    # --resume re-attaches to the journaled run: everything completed.
    assert campaign_main(base + ["--resume"]) == 0
    assert "recomputed=0" in capsys.readouterr().out


def test_resume_conflicts_with_no_cache(tmp_path, capsys, mini_registry):
    code = campaign_main(
        ["run", "mini-cli", "--tier", "smoke", "--no-cache", "--resume"]
    )
    assert code == 2
    assert "--resume needs the journal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value", [("--max-retries", "-1"), ("--shard-timeout", "0")]
)
def test_run_rejects_bad_retry_options(tmp_path, capsys, mini_registry, flag, value):
    """The shared run options reject these before any cell runs."""
    cache = tmp_path / "cache"
    code = campaign_main(
        ["run", "mini-cli", "--tier", "smoke", "--cache-dir", str(cache), flag, value]
    )
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not cache.exists()
