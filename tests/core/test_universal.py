"""Tests for Algorithm UniversalRV (Theorem 3.1 / Corollary 3.1)."""

import pytest

from repro.core import (
    CertificationError,
    certify_instance,
    phase_duration,
    rendezvous,
    tuned_profile,
    universal_round_budget,
)
from repro.core.pairing import triple, untriple
from repro.core.profile import TUNED
from repro.graphs import (
    complete_graph,
    labeled_ring,
    oriented_ring,
    path_graph,
    star_graph,
    symmetric_tree,
    two_node_graph,
)
from repro.symmetry import classify_stic, shrink


class TestFeasibleSTICs:
    @pytest.mark.parametrize(
        "graph,u,v,delta",
        [
            (two_node_graph(), 0, 1, 1),
            (two_node_graph(), 0, 1, 5),
            (oriented_ring(4), 0, 1, 1),
            (oriented_ring(4), 0, 2, 2),
            (oriented_ring(4), 0, 2, 4),
            (complete_graph(4), 0, 3, 1),
            (symmetric_tree(1, 1), 0, 2, 1),
        ],
        ids=["P2-d1", "P2-d5", "ring-adj", "ring-opp", "ring-opp-slack", "K4", "tree"],
    )
    def test_symmetric_feasible_meets(self, graph, u, v, delta):
        verdict = classify_stic(graph, u, v, delta)
        assert verdict.feasible and verdict.symmetric
        result = rendezvous(graph, u, v, delta)
        assert result.met
        budget = universal_round_budget(TUNED, graph.n, verdict.shrink, delta)
        assert result.time_from_later <= budget

    @pytest.mark.parametrize(
        "graph,u,v,delta",
        [
            (path_graph(3), 0, 2, 0),
            (path_graph(3), 0, 2, 4),
            (path_graph(4), 0, 3, 1),
            (star_graph(3), 1, 2, 0),
            (labeled_ring([(0, 1), (1, 0), (0, 1), (0, 1)]), 0, 3, 2),
        ],
        ids=["P3-d0", "P3-d4", "P4", "star", "labring"],
    )
    def test_nonsymmetric_meets_any_delay(self, graph, u, v, delta):
        verdict = classify_stic(graph, u, v, delta)
        assert verdict.feasible and not verdict.symmetric
        result = rendezvous(graph, u, v, delta)
        assert result.met

    def test_no_knowledge_needed(self):
        # The same algorithm object works across different graphs —
        # nothing about the instance is baked in except via oracles
        # (which expose only view-derived data).
        for graph, u, v, delta in [
            (two_node_graph(), 0, 1, 1),
            (path_graph(3), 0, 2, 0),
        ]:
            assert rendezvous(graph, u, v, delta).met


class TestInfeasibleSTICs:
    @pytest.mark.parametrize(
        "graph,u,v",
        [
            (two_node_graph(), 0, 1),
            (oriented_ring(4), 0, 2),
            (complete_graph(4), 0, 1),
        ],
    )
    def test_below_shrink_never_meets(self, graph, u, v):
        s = shrink(graph, u, v)
        for delta in range(s):
            result = rendezvous(graph, u, v, delta, max_rounds=40_000)
            assert not result.met


class TestPhaseAccounting:
    def test_phase_duration_zero_when_skipped(self):
        # Phases whose triple has d >= n are skipped.
        for p in range(1, 200):
            n, d, _ = untriple(p)
            if d >= n:
                assert phase_duration(TUNED, p) == 0

    def test_budget_is_sum_of_phases(self):
        total = universal_round_budget(TUNED, 2, 1, 1)
        assert total == sum(
            phase_duration(TUNED, p) for p in range(1, triple(2, 1, 2) + 1)
        )

    @pytest.mark.parametrize(
        "profile", [TUNED, tuned_profile(view_mode="faithful")], ids=repr
    )
    def test_budget_prefix_sums_match_direct_sum(self, profile, monkeypatch):
        """The memoized running sum equals the direct phase sum, both
        when every query extends the memo (ascending phases) and when
        all but the first read inside it (descending)."""
        import repro.core.universal as universal

        def last(t):
            return triple(t[0], t[1], t[2] + 1)

        grid = [
            (n, d, dl) for n in range(1, 6) for d in range(1, n + 1) for dl in (0, 1, 3)
        ]
        for order in (sorted(grid, key=last), sorted(grid, key=last, reverse=True)):
            monkeypatch.setattr(universal, "_PHASE_PREFIX", {})
            for n, d, delta in order:
                phases = range(1, last((n, d, delta)) + 1)
                direct = sum(phase_duration(profile, p) for p in phases)
                assert universal_round_budget(profile, n, d, delta) == direct

    def test_duration_depends_only_on_profile_and_phase(self):
        assert phase_duration(TUNED, 17) == phase_duration(TUNED, 17)


class TestCertification:
    def test_uxs_shortfall_detected(self):
        # A profile with an absurdly short exploration sequence must be
        # rejected at certification time, not fail silently.
        broken = tuned_profile(uxs_scale=0, name="broken")
        g = oriented_ring(5)
        with pytest.raises(CertificationError, match="uxs_scale"):
            certify_instance(g, 0, 2, broken)

    def test_good_profile_certifies(self):
        certify_instance(oriented_ring(5), 0, 2, TUNED)

    def test_oracle_profile_requires_oracle(self):
        from repro.core import make_universal_algorithm
        from repro.sim.actions import Perception

        algorithm = make_universal_algorithm(TUNED)
        script = algorithm(Perception(degree=1, entry_port=None, clock=0))
        with pytest.raises(ValueError, match="oracle"):
            next(script)


class TestResultShape:
    def test_result_fields(self):
        result = rendezvous(two_node_graph(), 0, 1, 1, record_traces=True)
        assert result.met
        assert result.meeting_node in (0, 1)
        assert result.meeting_time == result.time_from_later + 1
        assert result.traces is not None

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            rendezvous(two_node_graph(), 0, 1, -1)
