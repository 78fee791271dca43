"""Differential fuzz: both paths of the synchronous meeting solve.

:func:`repro.exec.meeting.solve_sync_meeting` compares round-indexed
positions while the traces are dense in the compared window, and
merges breakpoints otherwise (the module's density rule).  This corpus
reaches both: seeded agents that move in most rounds take the
round-indexed path, and agents whose ``WaitBlock``s are far longer
than their bursts of moves, under budgets of thousands of rounds, take
the merge.  Every STIC is compared with the scalar
:func:`repro.sim.scheduler.run_rendezvous`, and a spy checks that each
path found meetings and ruled them out.  A direct check then forces
each path on the same traces and compares both with a per-round walk.
"""

import numpy as np
import pytest

from harness import graph_pool, seeded_agent, stic_corpus
import repro.exec.meeting as meeting_module
from repro.exec.trace import TraceCompiler
from repro.sim import Move, WaitBlock
from repro.sim.batch import run_rendezvous_batch
from repro.sim.scheduler import run_rendezvous
from repro.util.lcg import SplitMix64, derive_seed

FIELDS = ("met", "meeting_node", "meeting_time", "time_from_later", "rounds_executed")


def waiting_agent(seed: int):
    """Bursts of one to three moves between ``WaitBlock``s of 50 to 449
    rounds: far more rounds than breakpoints."""

    def algorithm(percept):
        rng = SplitMix64(seed)
        while True:
            for _ in range(1 + rng.randrange(3)):
                percept = yield Move(rng.randrange(percept.degree))
            percept = yield WaitBlock(50 + rng.randrange(400))

    return algorithm


#: kind -> (agent factory, per-STIC round budget)
KINDS = {
    "moving": (seeded_agent, lambda u, v, d: derive_seed("sync-solve", u, v, d) % 801),
    "waiting": (
        waiting_agent,
        lambda u, v, d: 2000 + derive_seed("sync-solve", u, v, d) % 6000,
    ),
}
CASES = [
    (graph_idx, seed, kind)
    for graph_idx in range(len(graph_pool()))
    for seed in (5, 31)
    for kind in KINDS
]


def solve_case(graph_idx: int, seed: int, kind: str) -> str | None:
    """Batch vs scalar on the 12 STICs of one corpus cell."""
    graph, stics = stic_corpus(graph_idx, 300 + seed)
    factory, budget = KINDS[kind]
    algorithm = factory(seed)
    results = run_rendezvous_batch(graph, stics, algorithm, max_rounds=budget)
    for (u, v, delta), got in zip(stics, results):
        ref = run_rendezvous(
            graph, u, v, delta, algorithm, max_rounds=budget(u, v, delta)
        )
        mine = tuple(getattr(got, f) for f in FIELDS)
        theirs = tuple(getattr(ref, f) for f in FIELDS)
        if mine != theirs:
            return f"stic {(u, v, delta)}: batch={mine} scalar={theirs}"
    return None


def test_corpus_takes_both_paths_and_matches_scalar(monkeypatch):
    """Inline (a spy does not reach pool workers): every STIC equals
    the scalar, and each path both found a meeting and found none."""
    seen: dict[str, list[bool]] = {"dense": [], "merge": []}

    def spy(name, solve):
        def counted(*args):
            hit = solve(*args)
            seen[name].append(hit is not None)
            return hit

        return counted

    monkeypatch.setattr(
        meeting_module, "_solve_dense", spy("dense", meeting_module._solve_dense)
    )
    monkeypatch.setattr(
        meeting_module, "_solve_merge", spy("merge", meeting_module._solve_merge)
    )
    failures = [f"{case}: {d}" for case in CASES if (d := solve_case(*case))]
    assert not failures, "\n".join(failures[:10])
    for name, hits in seen.items():
        assert any(hits) and not all(hits), (name, len(hits), sum(hits))


def per_round(trace_a, trace_b, delta, limit):
    """The definition, one round at a time."""
    for t in range(delta, limit + 1):
        node = trace_a.position(t)
        if node == trace_b.position(t - delta):
            return t, node
    return None


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_forced_paths_agree_with_per_round_walk(monkeypatch, kind):
    """Each path, forced through the density constant, on the same
    traces and windows: equal to the per-round definition."""
    factory, _ = KINDS[kind]
    horizon = 900 if kind == "moving" else 3000
    checked = 0
    for graph_idx in (0, 2, 5):
        graph = graph_pool()[graph_idx]
        compiler = TraceCompiler(graph, factory(graph_idx))
        traces = compiler.traces({s: horizon for s in range(graph.n)})
        rng = SplitMix64(derive_seed("sync-solve-windows", graph_idx, kind))
        for _ in range(40):
            u, v = rng.randrange(graph.n), rng.randrange(graph.n)
            delta = rng.randrange(40)
            limit = delta + rng.randrange(horizon - 40)
            want = per_round(traces[u], traces[v], delta, limit)
            for density in (10**9, 0):  # the dense path, then the merge
                monkeypatch.setattr(
                    meeting_module, "DENSE_ROUNDS_PER_BREAKPOINT", density
                )
                got = meeting_module.solve_sync_meeting(
                    traces[u], traces[v], delta, limit
                )
                assert got == want, (graph_idx, u, v, delta, limit, density)
            checked += want is not None
    assert checked > 0


def test_dense_arrays_are_not_kept_on_traces():
    """The round-indexed positions are transient: solving leaves every
    trace's arrays as they were."""
    graph = graph_pool()[3]
    traces = TraceCompiler(graph, seeded_agent(7)).traces({0: 500, 4: 500})
    before = {
        s: (t.times.copy(), t.nodes.copy(), set(vars(t))) for s, t in traces.items()
    }
    meeting_module.solve_sync_meeting(traces[0], traces[4], 3, 400)
    for s, trace in traces.items():
        times, nodes, fields = before[s]
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.nodes, nodes)
        assert set(vars(trace)) == fields
