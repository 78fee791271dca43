"""The adversary-schedule subsystem: schedule encodings and the two
Section 5 properties, promoted from one-off probes in
``e_async_random`` into parametrized tests.

* *mirror impossibility*: from symmetric starts, the mirror schedule
  never yields a node meeting — for any algorithm and any event
  budget (the paper's "only space can break symmetry asynchronously").
* *eager possibility*: from non-symmetric starts on the example
  families, the benign alternating schedule always meets.
"""

import numpy as np
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
from repro.sim import Move, Wait
from repro.sim.schedule_adversary import (
    EagerSchedule,
    FixedDelaySchedule,
    MirrorSchedule,
    RandomSchedule,
    RateSkewSchedule,
    WordSchedule,
    run_schedule_adversary,
    run_schedule_sweep,
)
from repro.symmetry import (
    ASYNC_NODE_MEETING,
    async_feasibility_atlas,
    symmetric_pairs,
)
from repro.util.lcg import SplitMix64, derive_seed


def move_forever(percept):
    while True:
        percept = yield Move(0)


def seeded_mover(seed):
    def algorithm(percept):
        rng = SplitMix64(seed)
        while True:
            if rng.randrange(3):
                percept = yield Move(rng.randrange(percept.degree))
            else:
                percept = yield Wait()

    return algorithm


def faithful_universal():
    profile = tuned_profile(view_mode="faithful", name="sched-faithful")
    return make_universal_algorithm(profile)


ALL_SCHEDULES = [
    MirrorSchedule(),
    EagerSchedule(),
    EagerSchedule(1),
    FixedDelaySchedule(0),
    FixedDelaySchedule(4),
    RateSkewSchedule(1, 3),
    RateSkewSchedule(2, 3),
    WordSchedule(("ab", "a", "-", "b")),
    RandomSchedule(17),
]


class TestScheduleEncoding:
    @pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=lambda s: s.name)
    def test_mask_matches_active(self, schedule):
        """The vectorized mask and the scalar query are one encoding."""
        mask = schedule.mask(64)
        assert mask.shape == (64, 2) and mask.dtype == bool
        for k in range(64):
            assert tuple(mask[k]) == schedule.active(k), (schedule.name, k)

    @pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=lambda s: s.name)
    def test_cumulative_moves(self, schedule):
        counts = schedule.cumulative_moves(50)
        assert counts.shape == (51, 2)
        assert (counts[0] == 0).all()
        assert (np.diff(counts, axis=0) >= 0).all()
        assert (counts[50] == schedule.mask(50).sum(axis=0)).all()

    def test_random_schedule_reproducible(self):
        a = RandomSchedule(123).mask(200)
        b = RandomSchedule(123).mask(200)
        assert (a == b).all()
        assert not (a == RandomSchedule(124).mask(200)).all()

    def test_random_schedule_interleaved_queries(self):
        """Scalar queries then a deeper mask must agree (cached stream)."""
        s = RandomSchedule(5)
        head = [s.active(k) for k in range(10)]
        mask = s.mask(40)
        assert [tuple(row) for row in mask[:10]] == head

    @pytest.mark.parametrize(
        "weights", [(1, 1, 2), (2, 1, 1), (1, 1, 1), (0, 3, 2), (5, 0, 2), (1, 2, 4)]
    )
    def test_random_schedule_block_draws_match_event_loop(self, weights):
        """Block-drawn codes equal one ``randrange`` per event, for
        totals that are and are not powers of two (rejection sampling),
        and for queries that extend an already-filled cache."""
        for seed in (0, 7, 99991):
            rng = SplitMix64(derive_seed("activation-schedule", seed))
            wa, wb, _ = weights
            ref = []
            for _ in range(2000):
                roll = rng.randrange(sum(weights))
                code = 0 if roll < wa else 1 if roll < wa + wb else 2
                ref.append(((True, False), (False, True), (True, True))[code])
            schedule = RandomSchedule(seed, weights=weights)
            assert schedule.active(0) == ref[0]
            for horizon in (1, 5, 64, 65, 200, 129, 1000, 2000):
                mask = schedule.mask(horizon)
                assert mask.shape == (horizon, 2)
                assert [tuple(row) for row in mask] == ref[:horizon]
            for event in (1999, 3, 640, 1023, 1024):
                assert schedule.active(event) == ref[event]

    def test_word_schedule_rejects_bad_symbols(self):
        with pytest.raises(ValueError, match="unknown schedule symbol"):
            WordSchedule(("a", "xyz"))
        with pytest.raises(ValueError, match="non-empty"):
            WordSchedule(())

    def test_word_schedule_rejects_bare_string(self):
        # "ab" as a str would iterate into alternation, not lockstep.
        with pytest.raises(TypeError, match="bare string"):
            WordSchedule("ab")

    def test_validation(self):
        with pytest.raises(ValueError):
            EagerSchedule(2)
        with pytest.raises(ValueError):
            FixedDelaySchedule(-1)
        with pytest.raises(ValueError):
            RateSkewSchedule(0, 1)
        with pytest.raises(ValueError):
            RandomSchedule(1, weights=(0, 0, 0))


SYMMETRIC_FAMILIES = [
    ("P2", two_node_graph()),
    ("ring6", oriented_ring(6)),
    ("ring8", oriented_ring(8)),
    ("torus3x3", oriented_torus(3, 3)),
]


class TestMirrorImpossibility:
    """Mirror schedule never yields a node meeting from symmetric
    starts — any algorithm, any budget."""

    @pytest.mark.parametrize(
        "name,graph", SYMMETRIC_FAMILIES, ids=[n for n, _ in SYMMETRIC_FAMILIES]
    )
    @pytest.mark.parametrize("budget", [50, 500, 3000])
    def test_universal_never_meets(self, name, graph, budget):
        cells = [(u, v, MirrorSchedule()) for u, v in symmetric_pairs(graph)]
        outcomes = run_schedule_sweep(
            graph, cells, faithful_universal(), max_events=budget
        )
        assert not any(out.met for out in outcomes)

    @pytest.mark.parametrize(
        "algorithm_factory",
        [move_forever, seeded_mover(3), seeded_mover(99)],
        ids=["mover", "seeded3", "seeded99"],
    )
    @pytest.mark.parametrize(
        "name,graph", SYMMETRIC_FAMILIES, ids=[n for n, _ in SYMMETRIC_FAMILIES]
    )
    def test_any_algorithm_never_meets(self, algorithm_factory, name, graph):
        cells = [(u, v, MirrorSchedule()) for u, v in symmetric_pairs(graph)]
        outcomes = run_schedule_sweep(
            graph, cells, algorithm_factory, max_events=1000
        )
        assert not any(out.met for out in outcomes)

    def test_atlas_classes_on_symmetric_pairs(self):
        """Atlas view: no mirror cell is ever a node meeting."""
        g = oriented_ring(6)
        atlas = async_feasibility_atlas(
            g,
            faithful_universal(),
            [MirrorSchedule(), RandomSchedule(2)],
            max_events=2000,
            pairs=symmetric_pairs(g),
        )
        for entry in atlas:
            assert entry.symmetric
            if entry.schedule.name == "mirror":
                assert entry.meeting_class != ASYNC_NODE_MEETING


NONSYM_CASES = [
    ("P3-ends", path_graph(3), 0, 2),
    ("P4-inner", path_graph(4), 0, 2),
    ("P5-ends", path_graph(5), 0, 4),
    ("star-leaf-leaf", star_graph(3), 1, 2),
    ("star-center-leaf", star_graph(3), 0, 2),
]


class TestEagerPossibility:
    """Eager schedule always meets from non-symmetric starts on the
    example families: space keeps working when time does not."""

    @pytest.mark.parametrize(
        "name,graph,u,v", NONSYM_CASES, ids=[c[0] for c in NONSYM_CASES]
    )
    def test_universal_meets(self, name, graph, u, v):
        out = run_schedule_adversary(
            graph, u, v, faithful_universal(), EagerSchedule(), max_events=500_000
        )
        assert out.met

    def test_batched_sweep_form(self):
        """Same property through the batched engine, one call."""
        for name, graph, u, v in NONSYM_CASES:
            out = run_schedule_sweep(
                graph,
                [(u, v, EagerSchedule()), (u, v, EagerSchedule(1))],
                faithful_universal(),
                max_events=500_000,
            )
            assert all(o.met for o in out), name


class TestScheduleSemantics:
    def test_fixed_delay_rescues_mover_on_ring(self):
        """In event space a start delay re-creates the synchronous
        resource: delaying the second agent by the start distance makes
        two identical forward-walkers meet."""
        g = oriented_ring(6)
        out = run_schedule_adversary(
            g, 0, 3, move_forever, FixedDelaySchedule(3), max_events=100
        )
        assert out.met and out.events == 3

    def test_mirror_crossings_are_counted(self):
        g = two_node_graph()
        out = run_schedule_adversary(
            g, 0, 1, move_forever, MirrorSchedule(), max_events=100
        )
        assert not out.met and out.edge_meetings == 100

    def test_idle_word_makes_no_progress(self):
        g = oriented_ring(6)
        out = run_schedule_adversary(
            g, 0, 3, move_forever, WordSchedule(("-",)), max_events=250
        )
        assert not out.met and out.events == 250 and out.edge_meetings == 0

    def test_compiler_shared_with_sync_engine(self):
        """One TraceCompiler serves both the synchronous batch engine
        and the async schedule engine (same traces, same algorithm)."""
        from repro.sim.batch import TraceCompiler, run_rendezvous_batch

        g = oriented_ring(8)
        algorithm = seeded_mover(7)
        compiler = TraceCompiler(g, algorithm)
        sync = run_rendezvous_batch(
            g, [(0, 4, 2)], algorithm, max_rounds=200, compiler=compiler
        )
        async_out = run_schedule_sweep(
            g,
            [(0, 4, EagerSchedule())],
            algorithm,
            max_events=200,
            compiler=compiler,
        )
        assert sync[0].met is not None and async_out[0] is not None
