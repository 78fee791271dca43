"""The batched multi-STIC engine must agree with the scalar scheduler.

Mirrors ``tests/hardness/test_batch.py``: every observable field of
:class:`RendezvousResult` that batch mode reports (``met``,
``meeting_node``, ``meeting_time``, ``time_from_later``,
``rounds_executed``) must be *identical* to a scalar
:func:`run_rendezvous` loop — on the example families, on random
graphs with random port labelings, for mixed delays, for the
degenerate ``u == v`` configurations, and for agent-code failures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    TUNED,
    UniversalOracle,
    make_symm_rv_algorithm,
    make_universal_algorithm,
    universal_round_budget,
)
from repro.graphs import (
    complete_graph,
    hypercube,
    oriented_ring,
    oriented_torus,
    path_graph,
    star_graph,
    symmetric_tree,
)
from repro.graphs.random_graphs import random_connected_graph, random_tree
from repro.sim.actions import Move, Wait, WaitBlock
from repro.sim.batch import PortTrace, TraceCompiler, run_rendezvous_batch
from repro.sim.scheduler import SimulationLimit, run_rendezvous, run_single_agent
from repro.symmetry.shrink import shrink
from repro.symmetry.views import symmetric_pairs
from repro.util.lcg import derive_seed


def make_walker(seed, stop_after=None, raise_at=None, bad_port_at=None):
    """Deterministic pseudo-random agent: every choice is a pure
    function of the perception stream (hash-chained), mixing ``Move``,
    ``Wait`` and ``WaitBlock`` — the adversarial workload for the
    trace compiler's class splitting and wait fast-forwarding."""

    def algorithm(percept):
        state = derive_seed("walker", seed)
        steps = 0
        while True:
            e = -1 if percept.entry_port is None else percept.entry_port
            state = derive_seed("w", state, percept.degree, e)
            if raise_at is not None and steps == raise_at:
                raise RuntimeError(f"boom@{steps} clock={percept.clock}")
            if bad_port_at is not None and steps == bad_port_at:
                percept = yield Move(percept.degree + 3)
                steps += 1
                continue
            if stop_after is not None and steps >= stop_after:
                return
            r = state % 8
            if r < 5:
                action = Move(state % percept.degree)
            elif r < 7:
                action = Wait()
            else:
                action = WaitBlock(1 + state % 7)
            steps += 1
            percept = yield action

    return algorithm


def key(result):
    return (
        result.met,
        result.meeting_node,
        result.meeting_time,
        result.time_from_later,
        result.rounds_executed,
    )


def assert_matches_scalar(graph, stics, algorithm_factory, max_rounds, **kw):
    batch = run_rendezvous_batch(
        graph, stics, algorithm_factory(), max_rounds=max_rounds, **kw
    )
    for (u, v, delta), got in zip(stics, batch):
        oracles = None
        if "oracle_factory" in kw:
            of = kw["oracle_factory"]
            oracles = (of(u), of(v))
        budget = max_rounds(u, v, delta) if callable(max_rounds) else max_rounds
        ref = run_rendezvous(
            graph,
            u,
            v,
            delta,
            algorithm_factory(),
            max_rounds=budget,
            oracles=oracles,
        )
        assert key(got) == key(ref), (u, v, delta)
        assert got.crossings == () and got.traces is None


FAMILIES = [
    oriented_ring(5),
    oriented_ring(6),
    oriented_torus(3, 3),
    path_graph(4),
    star_graph(3),
    symmetric_tree(2, 1),
    complete_graph(4),
    hypercube(3),
]


class TestAgainstScalar:
    @pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: f"n{g.n}")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_families_full_sweep(self, graph, seed):
        """All ordered pairs (including u == v) at mixed delays."""
        stics = [
            (u, v, delta)
            for u in range(graph.n)
            for v in range(graph.n)
            for delta in (0, 1, 5)
        ]
        assert_matches_scalar(graph, stics, lambda: make_walker(seed), 48)

    @given(
        n=st.integers(3, 8),
        extra=st.integers(0, 3),
        gseed=st.integers(0, 5),
        wseed=st.integers(0, 5),
        deltas=st.lists(st.integers(0, 9), min_size=1, max_size=4),
        budget=st.integers(0, 60),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_graphs(self, n, extra, gseed, wseed, deltas, budget):
        graph = random_connected_graph(n, extra, gseed)
        stics = [
            (u, v, delta)
            for delta in deltas
            for u in (0, n // 2)
            for v in range(n)
        ]
        assert_matches_scalar(graph, stics, lambda: make_walker(wseed), budget)

    @given(n=st.integers(2, 8), gseed=st.integers(0, 3), wseed=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_random_trees_terminating_agent(self, n, gseed, wseed):
        """Scripts that return (StopIteration) wait in place forever."""
        graph = random_tree(n, gseed)
        stics = [
            (u, v, delta)
            for u in range(graph.n)
            for v in range(graph.n)
            for delta in (0, 2)
        ]
        assert_matches_scalar(
            graph, stics, lambda: make_walker(wseed, stop_after=3), 40
        )

    def test_u_equals_v_edge_cases(self):
        graph = oriented_torus(3, 3)
        # delta == 0 from the same node meets instantly at round 0.
        res = run_rendezvous_batch(
            graph, [(4, 4, 0)], make_walker(1), max_rounds=10
        )[0]
        assert (res.met, res.meeting_time, res.meeting_node) == (True, 0, 4)
        # Positive delay from the same node: the earlier agent may have
        # left by the time the later one appears — scalar decides.
        stics = [(u, u, delta) for u in range(graph.n) for delta in (1, 3, 6)]
        assert_matches_scalar(graph, stics, lambda: make_walker(2), 50)

    def test_symm_rv_exact_meetings(self):
        """Dedicated SymmRV: the paper workload, exact on every field."""
        for graph in (oriented_ring(6), oriented_torus(3, 3)):
            uxs = TUNED.uxs(graph.n)
            groups = {}
            for u, v in symmetric_pairs(graph):
                groups.setdefault(shrink(graph, u, v), []).append((u, v))
            for d, pairs in groups.items():
                bound = TUNED.symm_bound(graph.n, d, d)
                algo = make_symm_rv_algorithm(graph.n, d, d, uxs=uxs)
                stics = [(u, v, d) for u, v in pairs]
                assert_matches_scalar(
                    graph, stics, lambda a=algo: a, 2 * bound + d + 10
                )

    def test_universal_oracle_mode(self):
        """UniversalRV with per-start oracles (resumable per-start compiles)."""
        graph = oriented_ring(5)
        algo = make_universal_algorithm(TUNED)
        budgets = {}
        for u in range(graph.n):
            for v in range(graph.n):
                for delta in (0, 1, 2):
                    d = max(shrink(graph, u, v), 1) if u != v else 1
                    budgets[(u, v, delta)] = (
                        delta
                        + universal_round_budget(TUNED, graph.n, d, delta)
                        + 1
                    )
        stics = [k for k in budgets if k[2] >= (shrink(graph, *k[:2]) if k[0] != k[1] else 0)]
        assert_matches_scalar(
            graph,
            stics,
            lambda: algo,
            lambda u, v, delta: budgets[(u, v, delta)],
            oracle_factory=lambda s: UniversalOracle(graph, s, TUNED),
        )

    @pytest.mark.parametrize(
        "kw", [{"raise_at": 0}, {"raise_at": 4}, {"bad_port_at": 2}]
    )
    def test_error_parity(self, kw):
        """Agent failures surface iff (and as) the scalar run would
        raise them — including the global-round wording for the later
        agent's invalid moves."""
        graph = oriented_ring(6)
        for u, v, delta in [(0, 3, 0), (0, 3, 2), (2, 2, 5), (1, 4, 9)]:
            for budget in (1, 3, 30):
                try:
                    ref = run_rendezvous(
                        graph, u, v, delta,
                        make_walker(3, **kw), max_rounds=budget,
                    )
                    ref_exc = None
                except Exception as exc:
                    ref, ref_exc = None, (type(exc), str(exc))
                try:
                    got = run_rendezvous_batch(
                        graph, [(u, v, delta)],
                        make_walker(3, **kw), max_rounds=budget,
                    )[0]
                    got_exc = None
                except Exception as exc:
                    got, got_exc = None, (type(exc), str(exc))
                assert ref_exc == got_exc, (u, v, delta, budget)
                if ref is not None:
                    assert key(got) == key(ref)

    def test_raise_on_limit_parity(self):
        graph = path_graph(4)
        walker = lambda: make_walker(0, stop_after=0)  # both agents sit
        with pytest.raises(SimulationLimit):
            run_rendezvous(
                graph, 0, 3, 1, walker(), max_rounds=9, raise_on_limit=True
            )
        with pytest.raises(SimulationLimit, match="within 9 rounds"):
            run_rendezvous_batch(
                graph, [(0, 3, 1)], walker(), max_rounds=9, raise_on_limit=True
            )
        # A meeting STIC is unaffected by the flag.
        res = run_rendezvous_batch(
            graph, [(0, 0, 0)], walker(), max_rounds=9, raise_on_limit=True
        )[0]
        assert res.met

    def test_validation(self):
        graph = path_graph(3)
        with pytest.raises(ValueError, match="non-negative"):
            run_rendezvous_batch(graph, [(0, 1, -1)], make_walker(0), max_rounds=5)
        with pytest.raises(ValueError, match="non-negative"):
            run_rendezvous_batch(graph, [(0, 1, 0)], make_walker(0), max_rounds=-2)

    def test_empty_stics(self):
        graph = path_graph(3)
        assert run_rendezvous_batch(graph, [], make_walker(0), max_rounds=5) == []

    def test_stic_objects_accepted(self):
        from repro.core import STIC

        graph = oriented_ring(5)
        stics = [STIC(0, 2, 1), STIC(1, 3, 2)]
        batch = run_rendezvous_batch(graph, stics, make_walker(4), max_rounds=40)
        for s, got in zip(stics, batch):
            ref = run_rendezvous(
                graph, s.u, s.v, s.delta, make_walker(4), max_rounds=40
            )
            assert key(got) == key(ref)


class TestTraceCompiler:
    def test_reuse_across_calls(self):
        """A shared compiler must not change results — only skip work."""
        graph = oriented_torus(3, 3)
        compiler = TraceCompiler(graph, make_walker(1))
        first = run_rendezvous_batch(
            graph, [(0, 4, 1)], make_walker(1),
            max_rounds=30, compiler=compiler,
        )
        stics = [(0, 4, 1), (2, 6, 0), (4, 4, 3), (8, 1, 2)]
        second = run_rendezvous_batch(
            graph, stics, make_walker(1), max_rounds=300, compiler=compiler
        )
        assert key(first[0]) == key(
            run_rendezvous(graph, 0, 4, 1, make_walker(1), max_rounds=30)
        )
        for (u, v, delta), got in zip(stics, second):
            ref = run_rendezvous(
                graph, u, v, delta, make_walker(1), max_rounds=300
            )
            assert key(got) == key(ref)

    def test_port_trace_step_function(self):
        graph = oriented_ring(6)
        compiler = TraceCompiler(graph, make_walker(7))
        trace = compiler.trace(2, 25)
        assert isinstance(trace, PortTrace)
        positions, _ = run_single_agent(graph, 2, make_walker(7), max_rounds=25)
        for clock in range(26):
            assert trace.position(clock) == positions[clock], clock

    def test_position_outside_range_raises(self):
        graph = oriented_ring(6)
        compiler = TraceCompiler(graph, make_walker(7))
        trace = compiler.trace(0, 10)
        with pytest.raises(ValueError):
            trace.position(-1)
        if not trace.complete:
            with pytest.raises(ValueError):
                trace.position(trace.valid_through + 10**9)

    def test_terminated_trace_is_complete(self):
        graph = path_graph(4)
        compiler = TraceCompiler(graph, make_walker(0, stop_after=2))
        trace = compiler.trace(0, 5)
        assert trace.complete and trace.limit == np.inf
        # Positions defined arbitrarily far: the agent sits forever.
        assert trace.position(10**12) == trace.position(trace.times[-1])
