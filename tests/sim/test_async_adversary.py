"""Tests for the asynchronous-adversary counterpoint (Section 5): the
lockstep :class:`MirrorSchedule` and the alternating
:class:`EagerSchedule`, run through the scalar
:func:`run_schedule_adversary`."""

import pytest

from repro.core import make_universal_algorithm
from repro.core.profile import tuned_profile
from repro.graphs import (
    oriented_ring,
    oriented_torus,
    path_graph,
    star_graph,
    two_node_graph,
)
from repro.sim import (
    EagerSchedule,
    MirrorSchedule,
    Move,
    run_schedule_adversary,
)


def move_forever(percept):
    while True:
        percept = yield Move(0)


def faithful_universal():
    """UniversalRV in faithful mode (no oracles needed)."""
    profile = tuned_profile(view_mode="faithful", name="async-faithful")
    return make_universal_algorithm(profile)


class TestMirrorAdversary:
    @pytest.mark.parametrize(
        "graph,u,v",
        [
            (two_node_graph(), 0, 1),
            (oriented_ring(6), 0, 3),
            (oriented_torus(3, 3), 0, 4),
        ],
        ids=["P2", "ring6", "torus"],
    )
    def test_symmetric_positions_never_meet(self, graph, u, v):
        # The very algorithm that wins synchronously with delay >= Shrink
        # is powerless when the adversary owns the clock.
        out = run_schedule_adversary(
            graph, u, v, faithful_universal(), MirrorSchedule(), max_events=3000
        )
        assert not out.met

    def test_simple_mover_never_meets_but_crosses(self):
        g = two_node_graph()
        out = run_schedule_adversary(
            g, 0, 1, move_forever, MirrorSchedule(), max_events=100
        )
        assert not out.met
        assert out.edge_meetings == 100  # they swap through the edge forever

    def test_perception_streams_stay_identical(self):
        # The mechanism behind the impossibility: under lockstep, both
        # agents' (degree, entry_port) streams coincide.
        seen: list[list] = [[], []]
        instance = [0]

        def spy_algorithm(percept):
            me = instance[0]
            instance[0] += 1
            while True:
                seen[me].append((percept.degree, percept.entry_port))
                percept = yield Move(0)

        g = oriented_ring(6)
        run_schedule_adversary(
            g, 0, 3, spy_algorithm, MirrorSchedule(), max_events=50
        )
        assert seen[0] == seen[1]


class TestEagerAdversary:
    @pytest.mark.parametrize(
        "graph,u,v",
        [(path_graph(3), 0, 2), (star_graph(3), 1, 2)],
        ids=["P3", "star"],
    )
    def test_nonsymmetric_positions_meet(self, graph, u, v):
        out = run_schedule_adversary(
            graph, u, v, faithful_universal(), EagerSchedule(), max_events=500_000
        )
        assert out.met

    def test_meeting_detected_at_start(self):
        g = path_graph(3)
        out = run_schedule_adversary(
            g, 1, 1, move_forever, EagerSchedule(), max_events=10
        )
        assert out.met and out.events == 0


class TestModelMechanics:
    def test_waits_are_collapsed(self):
        # An algorithm that waits forever produces no events: the
        # adversary fast-forwards through waits, exposing that waiting
        # buys nothing asynchronously.
        from repro.sim import wait_forever as wf

        def waiter(percept):
            yield from wf(percept)

        g = two_node_graph()
        with pytest.raises(RuntimeError, match="fuel"):
            run_schedule_adversary(g, 0, 1, waiter, MirrorSchedule(), max_events=5)

    def test_invalid_move_rejected(self):
        def bad(percept):
            while True:
                percept = yield Move(7)

        with pytest.raises(ValueError):
            run_schedule_adversary(
                two_node_graph(), 0, 1, bad, MirrorSchedule(), max_events=5
            )
