"""Tests for universal exploration sequences, including the exhaustive
small-size certification promised in the
``repro.core.profile`` module docstring."""

import pytest

from repro.core import (
    apply_uxs,
    apply_uxs_ports,
    covers_from,
    is_uxs_for_graph,
    uxs_for_size,
    uxs_length,
)
from repro.core.profile import REFERENCE, TUNED
from repro.graphs import (
    complete_graph,
    hypercube,
    oriented_ring,
    oriented_torus,
    path_graph,
    random_connected_graph,
    star_graph,
    symmetric_tree,
)
from repro.graphs.enumeration import enumerate_port_labeled_graphs


class TestApplication:
    def test_application_semantics(self):
        # u1 = succ(u0, 0); u_{i+1} = succ(u_i, (p + a_i) mod d).
        g = oriented_ring(5)
        walk = apply_uxs(g, 0, [0, 0])
        # step 1: 0 -> 1 (port 0); entered by port 1.
        # a=0: port (1+0)%2=1 -> back to 0; entered by port 0.
        # a=0: port (0+0)%2=0 -> 1.
        assert walk == [0, 1, 0, 1]

    def test_ports_match_walk(self):
        # apply_uxs walks on its own; the two must stay in lockstep.
        graphs = [oriented_torus(3, 3)] + [
            random_connected_graph(n, n // 2, seed=seed)
            for n, seed in ((5, 1), (8, 2), (11, 3), (14, 4))
        ]
        for g in graphs:
            seq = TUNED.uxs(g.n)[:200]
            for start in range(g.n):
                ports = apply_uxs_ports(g, start, seq)
                assert len(ports) == len(seq) + 1
                assert g.walk(start, ports) == apply_uxs(g, start, seq), (g.n, start)

    def test_length_formula(self):
        assert uxs_length(1) == 1
        assert uxs_length(4) > uxs_length(2)
        with pytest.raises(ValueError):
            uxs_length(0)

    def test_sequences_are_deterministic(self):
        assert uxs_for_size(5) == uxs_for_size(5)


class TestCoverageCertification:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_certification_small(self, n):
        """Tuned and reference Y(n) cover every port-labeled graph of
        size n from every start — the exhaustive tier."""
        tuned = TUNED.uxs(n)
        reference = REFERENCE.uxs(n)
        for g in enumerate_port_labeled_graphs(n):
            assert is_uxs_for_graph(g, tuned)
            assert is_uxs_for_graph(g, reference)

    def test_exhaustive_certification_n4_tuned(self):
        tuned = TUNED.uxs(4)
        for g in enumerate_port_labeled_graphs(4):
            assert is_uxs_for_graph(g, tuned)

    @pytest.mark.parametrize(
        "graph",
        [
            oriented_ring(6),
            oriented_torus(3, 3),
            path_graph(7),
            star_graph(5),
            symmetric_tree(2, 2),
            hypercube(3),
            complete_graph(6),
        ],
        ids=["ring6", "torus9", "path7", "star6", "tree14", "cube8", "K6"],
    )
    def test_family_coverage_tuned(self, graph):
        assert is_uxs_for_graph(graph, TUNED.uxs(graph.n))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graph_coverage(self, seed):
        g = random_connected_graph(9, extra_edges=4, seed=seed)
        assert is_uxs_for_graph(g, TUNED.uxs(9))

    def test_covers_from_detects_failure(self):
        g = path_graph(6)
        assert not covers_from(g, 0, [0])  # two steps cannot see 6 nodes

    def test_single_node(self):
        from repro.graphs.port_graph import PortLabeledGraph

        g = PortLabeledGraph(1, [])
        assert is_uxs_for_graph(g, ())


class TestMinimalVerified:
    def test_genuinely_universal(self):
        from repro.core import minimal_verified_uxs

        for n in (2, 3):
            seq = minimal_verified_uxs(n)
            for g in enumerate_port_labeled_graphs(n):
                assert is_uxs_for_graph(g, seq)

    def test_much_shorter_than_default(self):
        from repro.core import minimal_verified_uxs

        for n in (2, 3, 4):
            assert len(minimal_verified_uxs(n)) < len(TUNED.uxs(n))

    def test_guard_rails(self):
        from repro.core import minimal_verified_uxs

        with pytest.raises(ValueError):
            minimal_verified_uxs(0)
        with pytest.raises(ValueError):
            minimal_verified_uxs(9)

    def test_single_node_trivial(self):
        from repro.core import minimal_verified_uxs

        assert minimal_verified_uxs(1) == ()


class TestSequenceCache:
    """``uxs_for_size`` memoization is bounded by total retained terms,
    not entry count — a single ``Y(n)`` is ~36M ints at n = 50, so an
    entry-counting LRU could pin gigabytes (see ISSUE 1)."""

    @pytest.fixture()
    def small_budget(self, monkeypatch):
        from repro.core import uxs as uxs_module

        saved = dict(uxs_module._UXS_CACHE)
        saved_total = uxs_module._uxs_cache_total
        uxs_module._UXS_CACHE.clear()
        monkeypatch.setattr(uxs_module, "_uxs_cache_total", 0)
        yield uxs_module
        uxs_module._UXS_CACHE.clear()
        uxs_module._UXS_CACHE.update(saved)
        uxs_module._uxs_cache_total = saved_total

    def test_determinism_survives_eviction(self, small_budget):
        mod = small_budget
        first = {n: uxs_for_size(n) for n in (1, 2, 3)}
        # Evict everything by shrinking the budget below any entry.
        mod._UXS_CACHE.clear()
        mod._uxs_cache_total = 0
        for n, seq in first.items():
            assert uxs_for_size(n) == seq
            assert len(seq) == uxs_length(n)

    def test_total_retained_length_bounded(self, small_budget, monkeypatch):
        mod = small_budget
        budget = uxs_length(2) + uxs_length(1) + 10
        monkeypatch.setattr(mod, "_UXS_CACHE_BUDGET", budget)
        for n in (1, 2, 3, 2, 1, 3):
            uxs_for_size(n)
            total = sum(len(s) for s in mod._UXS_CACHE.values())
            assert total == mod._uxs_cache_total
            assert total <= budget

    def test_oversized_sequences_returned_uncached(self, small_budget, monkeypatch):
        mod = small_budget
        monkeypatch.setattr(mod, "_UXS_CACHE_BUDGET", uxs_length(2))
        a = uxs_for_size(3)  # longer than the whole budget
        assert 3 not in mod._UXS_CACHE
        assert a == uxs_for_size(3)  # still deterministic

    def test_lru_eviction_order(self, small_budget, monkeypatch):
        mod = small_budget
        monkeypatch.setattr(
            mod, "_UXS_CACHE_BUDGET", uxs_length(2) + uxs_length(1) - 1
        )
        uxs_for_size(1)
        uxs_for_size(2)  # pushes total over budget -> evicts n=1
        assert 1 not in mod._UXS_CACHE
        assert 2 in mod._UXS_CACHE
