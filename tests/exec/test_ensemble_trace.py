"""The ensemble stepper of :class:`repro.exec.trace.TraceCompiler`
against single-start compiles.

A call that compiles several starts at once (no oracle) runs them as
classes of lanes in lockstep, sharing one generator per class and
splitting a class when its lanes' perceptions diverge: one part keeps
the generator, and every other part re-steps a fresh one on one of its
lanes.  A call with one start runs a one-lane class in a fresh
compiler.  Both must give the same :class:`~repro.exec.trace.PortTrace`
for every start, on every field and dtype, including for classes that
split late or after waits, and for a deeper second call that resumes
the classes the first one cut.  A compiled class keeps no log of its
perceptions.
"""

import gc

import numpy as np
import pytest

from harness import graph_pool, seeded_agent, terminating_agent
from repro.exec.trace import TraceCompiler
from repro.graphs import (
    hypercube,
    labeled_ring,
    oriented_ring,
    oriented_torus,
    star_graph,
)
from repro.graphs.random_graphs import random_connected_graph
from repro.sim import Move, Perception, Wait, WaitBlock
from repro.sim.batch import run_rendezvous_batch
from repro.sim.scheduler import run_rendezvous
from repro.util.lcg import SplitMix64

#: A 24-ring whose node 12 has its ports swapped: every other node looks
#: alike, so classes split only when a lane reaches node 12's side.
FAR_SWAP_RING = labeled_ring([(0, 1)] * 12 + [(1, 0)] + [(0, 1)] * 11)

GRAPHS = {
    "oriented_ring_12": oriented_ring(12),
    "oriented_torus_4x4": oriented_torus(4, 4),
    "hypercube_4": hypercube(4),
    "far_swap_ring_24": FAR_SWAP_RING,
    "random_12": random_connected_graph(12, 6, seed=5),
    "random_10": random_connected_graph(10, 4, seed=2),
    "star_9": star_graph(9),
    **{f"pool_{i}": g for i, g in enumerate(graph_pool()) if g.n >= 9},
}


def erring_agent(seed: int):
    """A seeded walker that raises when it enters a node by port 0 late
    in its run, and picks an invalid port when it enters by port 1 even
    later; which lanes fail, and when, depends on their perceptions."""

    def algorithm(percept):
        rng = SplitMix64(seed)
        while True:
            if percept.clock > 60 and percept.entry_port == 0:
                raise RuntimeError(f"entered by port 0 at clock {percept.clock}")
            if percept.clock > 40 and percept.entry_port == 1:
                percept = yield Move(percept.degree)
            elif rng.randrange(3):
                percept = yield Move(rng.randrange(percept.degree))
            elif rng.randrange(2):
                percept = yield Wait()
            else:
                percept = yield WaitBlock(rng.randrange(5) + 1)

    return algorithm


AGENTS = {
    "seeded_11": seeded_agent(11),
    "seeded_47": seeded_agent(47),
    "terminating": terminating_agent(3, 90),
    "erring": erring_agent(7),
}


def _single(graph, algorithm, start: int, horizon: int):
    """The start's trace from a fresh compiler, compiled alone."""
    return TraceCompiler(graph, algorithm).traces({start: horizon})[start]


def _assert_same_trace(got, want):
    assert type(got.start) is type(want.start) and got.start == want.start
    for field in ("times", "nodes"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.int64, (field, a.dtype, b.dtype)
        assert np.array_equal(a, b), field
    assert got.valid_through == want.valid_through
    assert got.complete == want.complete
    assert got.tail_waits == want.tail_waits
    assert type(got.error) is type(want.error)
    assert str(got.error) == str(want.error)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("agent_name", sorted(AGENTS))
def test_group_matches_single_start(graph_name, agent_name):
    graph, algorithm = GRAPHS[graph_name], AGENTS[agent_name]
    starts = list(range(graph.n))
    assert len(starts) >= 9
    compiler = TraceCompiler(graph, algorithm)
    shallow = compiler.traces({s: 150 for s in starts})
    for s in starts:
        _assert_same_trace(shallow[s], _single(graph, algorithm, s, 150))
    # Deeper: the classes the first call cut resume.
    deep = compiler.traces({s: 700 for s in starts})
    for s in starts:
        _assert_same_trace(deep[s], _single(graph, algorithm, s, 700))


def test_late_split_resteps_new_parts():
    """On the far-swap ring, a seeded walker's lanes share one class for
    dozens of moves and then split; the second, deeper call resumes the
    cut classes, and each split builds one generator per new part, so
    at most one per final class."""
    graph = FAR_SWAP_RING
    built = []
    walker = seeded_agent(23)

    def counting(percept):
        built.append(percept.clock)
        return walker(percept)

    starts = [0, 1, 2, 3, 4, 20, 21, 22, 23]
    compiler = TraceCompiler(graph, counting)
    first = compiler.traces({s: 200 for s in starts})
    first_built = len(built)
    # The walker's ports ignore its perceptions, so lanes are rotations
    # of each other until one of them enters node 12.
    rotated = [((first[s].nodes - s) % graph.n).tolist() for s in starts]
    common = 0
    while all(len(r) > common and r[common] == rotated[0][common] for r in rotated):
        common += 1
    assert 20 <= common < max(len(r) for r in rotated)
    deep = compiler.traces({s: 2000 for s in starts})
    # Lanes of one final class share its ``times`` array.
    classes = {id(deep[s].times) for s in starts}
    assert len(classes) > 1
    assert len(built) - first_built <= len(classes)
    for s in starts:
        _assert_same_trace(first[s], _single(graph, seeded_agent(23), s, 200))
        _assert_same_trace(deep[s], _single(graph, seeded_agent(23), s, 2000))


@pytest.mark.parametrize(
    "graph", [oriented_ring(6), oriented_torus(4, 4)], ids=["ring_6", "torus_4x4"]
)
def test_deepening_resumes_the_live_class(graph):
    """On a vertex-transitive graph every start is one class; deepening
    resumes it, so a 1024/4096/16384 ladder builds one generator, and
    the traces are those of a one-shot compile."""
    built = []
    walker = seeded_agent(31)

    def counting(percept):
        built.append(percept.clock)
        return walker(percept)

    starts = list(range(graph.n))
    compiler = TraceCompiler(graph, counting)
    for horizon in (1024, 4096, 16_384):
        deep = compiler.traces({s: horizon for s in starts})
    assert len(built) == 1
    one_shot = TraceCompiler(graph, walker).traces({s: 16_384 for s in starts})
    for s in starts:
        _assert_same_trace(deep[s], one_shot[s])


def waiting_walker(percept):
    """Waits a round, then a three-round block, then walks on a seeded
    stream mixed with its entry port: a generator re-stepped to the
    wrong decision draws from the wrong point of its stream."""
    rng = SplitMix64(9)
    percept = yield Wait()
    percept = yield WaitBlock(3)
    while True:
        roll = rng.randrange(6)
        if roll == 0:
            percept = yield WaitBlock(rng.randrange(3) + 1)
        elif roll == 1:
            percept = yield Wait()
        else:
            entry = percept.entry_port or 0
            percept = yield Move((entry + roll) % percept.degree)


def test_split_after_waits_matches_single_start_and_scalar():
    """Every ring node perceives alike until it has moved, and the
    first move comes after a ``Wait`` and a ``WaitBlock``; the class
    then splits at node 12's swapped ports.  Parts re-stepped through
    both waits give the traces of single-start compiles and the
    meetings of the scalar scheduler."""
    graph = FAR_SWAP_RING
    starts = [5, 8, 10, 11, 14, 17]
    horizon = 300
    traces = TraceCompiler(graph, waiting_walker).traces(
        {s: horizon for s in starts}
    )
    for s in starts:
        assert int(traces[s].times[1]) == 5  # first move at clock 4
        _assert_same_trace(traces[s], _single(graph, waiting_walker, s, horizon))
    assert len({id(traces[s].times) for s in starts}) > 1
    stics = [(u, v, delta) for u in starts for v in starts if u != v for delta in (0, 3)]
    batch = run_rendezvous_batch(graph, stics, waiting_walker, max_rounds=horizon)
    for (u, v, delta), got in zip(stics, batch):
        ref = run_rendezvous(graph, u, v, delta, waiting_walker, max_rounds=horizon)
        for field in ("met", "meeting_node", "meeting_time", "rounds_executed"):
            assert getattr(got, field) == getattr(ref, field), ((u, v, delta), field)


def _perceptions() -> int:
    gc.collect()
    return sum(isinstance(o, Perception) for o in gc.get_objects())


def test_compiled_classes_keep_no_perception_log():
    """A live class holds its generator, which holds at most the last
    perception sent to it; no class keeps its perception stream."""
    before = _perceptions()
    compiler = TraceCompiler(oriented_ring(8), seeded_agent(13))
    compiler.traces({s: 5000 for s in range(8)})
    classes = len({id(g) for g in compiler._groups.values()})
    assert 1 <= classes <= 8
    assert _perceptions() - before <= classes
