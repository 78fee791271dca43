"""Tests for the feasibility characterization (Corollary 3.1)."""

import pytest

from repro.graphs import (
    complete_graph,
    mirror_node,
    oriented_ring,
    oriented_torus,
    path_graph,
    star_graph,
    symmetric_tree,
    torus_node,
    two_node_graph,
)
from repro.symmetry import classify_stic, is_feasible, shrink


class TestCharacterization:
    def test_nonsymmetric_feasible_for_all_delays(self):
        g = path_graph(4)
        for delta in range(5):
            verdict = classify_stic(g, 0, 3, delta)
            assert verdict.feasible and not verdict.symmetric
            assert verdict.shrink is None

    def test_symmetric_boundary(self):
        g = oriented_torus(3, 3)
        v = torus_node(1, 1, 3)
        s = shrink(g, 0, v)
        assert s == 2
        assert not is_feasible(g, 0, v, s - 1)
        assert is_feasible(g, 0, v, s)
        assert is_feasible(g, 0, v, s + 7)

    def test_two_node_introduction_example(self):
        g = two_node_graph()
        # delay 0: impossible; delay 3: the paper's "meet after 3 rounds".
        assert not is_feasible(g, 0, 1, 0)
        assert is_feasible(g, 0, 1, 3)

    def test_mirror_tree_needs_only_delay_one(self):
        g = symmetric_tree(2, 2)
        leaf = g.n // 2 - 1
        m = mirror_node(leaf, 2, 2)
        assert g.distance(leaf, m) == 5
        assert is_feasible(g, leaf, m, 1)  # Shrink = 1 despite distance 5

    def test_complete_graph(self):
        g = complete_graph(5)
        assert not is_feasible(g, 0, 3, 0)
        assert is_feasible(g, 0, 3, 1)

    def test_reasons_mention_results(self):
        g = two_node_graph()
        assert "Lemma 3.1" in classify_stic(g, 0, 1, 0).reason
        assert "Lemma 3.2" in classify_stic(g, 0, 1, 1).reason
        assert "Proposition 3.1" in classify_stic(path_graph(3), 0, 2, 0).reason

    def test_validation(self):
        g = star_graph(2)
        with pytest.raises(ValueError):
            classify_stic(g, 1, 1, 0)
        with pytest.raises(ValueError):
            classify_stic(g, 0, 1, -2)

    def test_every_ring_pair_boundary(self):
        g = oriented_ring(5)
        for v in range(1, 5):
            s = shrink(g, 0, v)
            assert not is_feasible(g, 0, v, s - 1)
            assert is_feasible(g, 0, v, s)


class TestEmpiricalAtlas:
    """The batched atlas: Corollary 3.1 verdicts checked by simulation."""

    @staticmethod
    def _universal_atlas(graph, max_delta):
        from repro.core import universal_feasibility_atlas

        return universal_feasibility_atlas(
            graph, max_delta, infeasible_horizon=256
        )

    @pytest.mark.parametrize(
        "graph, max_delta",
        [(oriented_ring(5), 3), (path_graph(4), 2), (star_graph(3), 2)],
        ids=["ring5", "path4", "star3"],
    )
    def test_simulation_matches_characterization(self, graph, max_delta):
        entries = self._universal_atlas(graph, max_delta)
        n = graph.n
        assert len(entries) == n * (n - 1) // 2 * (max_delta + 1)
        for entry in entries:
            assert entry.consistent, (entry.u, entry.v, entry.delta)
            assert entry.verdict == classify_stic(
                graph, entry.u, entry.v, entry.delta
            )

    def test_enumeration_order_and_verdicts(self):
        """Atlas verdicts line up with `enumerate_stics` exactly."""
        from repro.core import enumerate_stics

        g = oriented_torus(3, 3)
        entries = self._universal_atlas(g, 1)
        listed = list(enumerate_stics(g, 1))
        assert len(entries) == len(listed)
        for entry, (stic, verdict) in zip(entries, listed):
            assert (entry.u, entry.v, entry.delta) == (stic.u, stic.v, stic.delta)
            assert entry.verdict.feasible == verdict.feasible
            assert entry.verdict.symmetric == verdict.symmetric
            assert entry.verdict.shrink == verdict.shrink

    def test_inconsistent_entry_flagged(self):
        """A waiting algorithm never meets distinct feasible starts, so
        `consistent` must go False — the property is falsifiable."""
        from repro.sim.actions import Wait
        from repro.symmetry import empirical_feasibility_atlas

        def sitter(percept):
            while True:
                percept = yield Wait()

        g = path_graph(3)
        entries = empirical_feasibility_atlas(g, sitter, 1, max_rounds=50)
        assert any(not e.consistent for e in entries)
        for e in entries:
            assert e.consistent == (e.result.met == e.verdict.feasible)

    def test_single_node_graph_has_empty_atlas(self):
        """One node admits no STIC, so the one batched sweep gets no
        cells and the atlas is empty under either budget form."""
        from repro.graphs.port_graph import PortLabeledGraph
        from repro.sim.actions import Wait
        from repro.symmetry import empirical_feasibility_atlas

        def sitter(percept):
            while True:
                percept = yield Wait()

        g = PortLabeledGraph(1, [])
        assert empirical_feasibility_atlas(g, sitter, 2, max_rounds=5) == []
        assert (
            empirical_feasibility_atlas(
                g, sitter, 2, max_rounds=lambda u, v, delta, verdict: 5
            )
            == []
        )
