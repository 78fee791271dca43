"""Mutation tests: deliberately broken engines must be *caught* by a
differential check and *shrunk* to a replay artifact that reproduces
the failure exactly — the acceptance contract of the campaign layer.

Each test injects one bug (a lying UXS certifier, an off-by-one batch
meeting solver, a corrupted symmetry-kernel witness), runs a small
two-rung campaign, and asserts: the campaign fails, the larger rung's
failure shrinks to the smallest rung, and the artifact replays to the
same failure while the bug is live — then passes once it is reverted.
"""


import repro.campaigns.checks as checks_module
import repro.exec.meeting as meeting_module
from repro.campaigns.artifacts import load_artifact, replay_artifact, write_artifact
from repro.campaigns.registry import make_campaign
from repro.experiments.orchestrator import run_experiment
from repro.symmetry.context import SymmetryContext


def _campaign(check_id):
    return make_campaign(
        "mutation-probe",
        title="mutation probe",
        tiers={
            "smoke": {
                "families": [
                    {
                        "family": "random_connected",
                        "rungs": [
                            {"n": 5, "extra_edges": 2},
                            {"n": 8, "extra_edges": 4},
                        ],
                    }
                ],
                "checks": [check_id],
                "seeds_per_cell": 2,
                "knobs": {},
            }
        },
    )


def _failing_artifacts(run):
    return [
        artifact
        for outcome in run.shards
        for artifact in (outcome.result or {}).get("failures", [])
    ]


def _assert_caught_shrunk_and_replayable(check_id, tmp_path, monkeypatch, mutate):
    spec = _campaign(check_id)
    with monkeypatch.context() as patch:
        mutate(patch)
        run = run_experiment(spec, tier="smoke")
        assert run.record.passed is False
        artifacts = _failing_artifacts(run)
        assert len(artifacts) == 2  # both rungs fail independently
        # The larger rung's failure shrank to the smallest rung: its
        # artifact records the shrink origin and a rung-0 graph spec.
        larger = next(a for a in artifacts if "shrunk_from" in a)
        assert larger["shrunk_from"] == {"rung_index": 1, "seed_index": 0}
        assert larger["rung"] == {"n": 5, "extra_edges": 2}
        assert larger["graph_spec"]["n"] == 5
        assert larger["check"] == check_id
        assert larger["detail"]
        # ...and the artifact reproduces the failure while the bug lives.
        path = write_artifact(larger, tmp_path / "artifacts")
        replayed = replay_artifact(load_artifact(path))
        assert replayed.ok is False
        assert replayed.detail == larger["detail"]
    # Bug reverted: the same artifact now passes (the failure is the
    # engine's, not the harness's).
    assert replay_artifact(load_artifact(path)).ok is True


def test_lying_uxs_certifier_is_caught(tmp_path, monkeypatch):
    def mutate(patch):
        patch.setattr(
            checks_module, "is_uxs_for_graph_vectorized", lambda graph, seq: True
        )

    _assert_caught_shrunk_and_replayable(
        "differential/uxs-cover", tmp_path, monkeypatch, mutate
    )


def test_off_by_one_batch_meeting_solver_is_caught(tmp_path, monkeypatch):
    original = meeting_module.solve_sync_meeting

    def skewed(trace_a, trace_b, delta, limit):
        hit = original(trace_a, trace_b, delta, limit)
        if hit is None:
            return None
        t, node = hit
        return t + 1, node

    def mutate(patch):
        patch.setattr(meeting_module, "solve_sync_meeting", skewed)

    _assert_caught_shrunk_and_replayable(
        "differential/stic-sweep", tmp_path, monkeypatch, mutate
    )


def test_corrupted_symmetry_witness_is_caught(tmp_path, monkeypatch):
    original = SymmetryContext.shrink_witness

    def corrupted(self, u, v):
        value, alpha, pair = original(self, u, v)
        # Drop the last witness step: the pair claim no longer holds.
        return value, alpha[:-1] if alpha else alpha, pair

    def mutate(patch):
        patch.setattr(SymmetryContext, "shrink_witness", corrupted)

    _assert_caught_shrunk_and_replayable(
        "differential/symmetry-kernel", tmp_path, monkeypatch, mutate
    )


def test_off_by_one_blocked_bfs_is_caught(tmp_path, monkeypatch):
    """An off-by-one in the frontier-compressed multi-source BFS — the
    engine every blocked distance/Shrink path rides on — must be caught
    by the sparse-symmetry differential, shrunk, and replayed."""
    original = SymmetryContext._bfs_block

    def skewed(self, sources, max_level=None):
        dist = original(self, sources, max_level)
        dist[dist > 0] += 1  # every non-source level lands one step late
        return dist

    def mutate(patch):
        patch.setattr(SymmetryContext, "_bfs_block", skewed)

    _assert_caught_shrunk_and_replayable(
        "differential/sparse-symmetry", tmp_path, monkeypatch, mutate
    )


def test_crashing_engine_is_caught_not_propagated(tmp_path, monkeypatch):
    """An engine that *raises* instead of answering wrong is still a
    failing verdict: the campaign completes, the cell shrinks, and the
    artifact replays — no traceback escapes to kill the grid."""

    def exploding(graph, seq):
        raise RuntimeError("engine blew up")

    def mutate(patch):
        patch.setattr(checks_module, "is_uxs_for_graph_vectorized", exploding)

    spec = _campaign("differential/uxs-cover")
    with monkeypatch.context() as patch:
        mutate(patch)
        run = run_experiment(spec, tier="smoke")  # must not raise
        assert run.record.passed is False
        artifacts = _failing_artifacts(run)
        assert len(artifacts) == 2
        larger = next(a for a in artifacts if "shrunk_from" in a)
        assert "RuntimeError: engine blew up" in larger["detail"]
        path = write_artifact(larger, tmp_path / "artifacts")
        replayed = replay_artifact(load_artifact(path))
        assert replayed.ok is False
        assert replayed.detail == larger["detail"]
    assert replay_artifact(load_artifact(path)).ok is True


def test_healthy_engines_produce_no_artifacts():
    run = run_experiment(_campaign("differential/uxs-cover"), tier="smoke")
    assert run.record.passed is True
    assert _failing_artifacts(run) == []


def test_skewed_word_batch_is_caught(tmp_path, monkeypatch):
    original = checks_module.simulate_word_batch

    def skewed(graph, word, u, starts, delta, max_rounds):
        return [
            None if m is None else m + 1
            for m in original(graph, word, u, starts, delta, max_rounds)
        ]

    def mutate(patch):
        patch.setattr(checks_module, "simulate_word_batch", skewed)

    _assert_caught_shrunk_and_replayable(
        "differential/hardness-word", tmp_path, monkeypatch, mutate
    )


def test_start_dependent_coverage_miscount_is_caught(tmp_path, monkeypatch):
    """A coverage kernel that miscounts for one start id breaks the
    node-permutation equivariance the metamorphic check asserts."""
    original = checks_module.covered_counts

    def miscounting(graph, seq, **kwargs):
        counts = original(graph, seq, **kwargs).copy()
        if counts[0] > 1:
            counts[0] -= 1
        return counts

    def mutate(patch):
        patch.setattr(checks_module, "covered_counts", miscounting)

    _assert_caught_shrunk_and_replayable(
        "metamorphic/uxs-relabel", tmp_path, monkeypatch, mutate
    )
