"""Differential fuzz: the batched schedule engine against the scalar
adversary reference, mirroring ``test_scheduler_differential.py``.

Hundreds of seeded random instances (graph family x start pair x
adversary schedule x event budget) must produce bit-identical
``met`` / ``meeting_node`` / ``events`` (the async meeting time) /
``edge_meetings`` (crossings) under :func:`run_schedule_sweep` and
:func:`run_schedule_adversary`.  Budgets are per-cell (exercising the
callable ``max_events`` path), pairs may coincide (``u == v`` meets at
event 0), and the schedule pool spans every built-in adversary family
including idling words and seeded random activation streams.
"""

import pytest

from repro.exec.trace import TraceCompiler
from repro.graphs import oriented_ring, oriented_torus, path_graph, star_graph
from repro.graphs.random_graphs import random_connected_graph
from repro.sim import Move, Wait, WaitBlock
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
from repro.util.lcg import SplitMix64, derive_seed

GRAPHS = [
    path_graph(4),
    oriented_ring(5),
    oriented_ring(6),
    oriented_torus(3, 3),
    star_graph(4),
    random_connected_graph(6, 3, seed=4),
    random_connected_graph(7, 3, seed=9),
]

AGENT_SEEDS = (11, 23, 47)
CELLS_PER_RUN = 12


def seeded_agent(seed):
    """A pseudo-random deterministic agent program (moves, waits, and
    wait blocks, including clock-dependent port choices)."""

    def algorithm(percept):
        rng = SplitMix64(seed)
        while True:
            roll = rng.randrange(10)
            if roll < 5:
                percept = yield Move(rng.randrange(percept.degree))
            elif roll < 7:
                percept = yield Wait()
            elif roll < 9:
                percept = yield WaitBlock(rng.randrange(7) + 1)
            else:
                # clock-dependent choice exercises perception delivery
                percept = yield Move(percept.clock % percept.degree)

    return algorithm


def terminating_agent(seed, lifetime):
    """An agent whose script ends after ``lifetime`` actions (the
    done-agent clamp path: activations past the end are no-ops)."""

    def algorithm(percept):
        rng = SplitMix64(seed)
        for _ in range(lifetime):
            if rng.randrange(4):
                percept = yield Move(rng.randrange(percept.degree))
            else:
                percept = yield Wait()

    return algorithm


def schedule_pool(rng):
    return [
        MirrorSchedule(),
        EagerSchedule(),
        EagerSchedule(1),
        FixedDelaySchedule(rng.randrange(9)),
        RateSkewSchedule(1 + rng.randrange(3), 1 + rng.randrange(4)),
        WordSchedule(
            tuple(
                ("a", "b", "ab", "-")[rng.randrange(4)]
                for _ in range(1 + rng.randrange(5))
            )
        ),
        RandomSchedule(rng.randrange(10**6)),
        RandomSchedule(rng.randrange(10**6), weights=(2, 1, 1)),
    ]


def _budget(u, v, schedule):
    """Per-cell event budget, a pure function of the cell (so the
    callable ``max_events`` path is exercised unambiguously)."""
    return derive_seed("sched-diff-budget", u, v, schedule.name) % 501


def _deep_budget(u, v, schedule):
    """Per-cell budgets past the default first compile depth (1024)."""
    return 1100 + _budget(u, v, schedule)


def _instances():
    """Deterministic fuzz corpus: one batched call per (graph, agent)."""
    for graph_idx, graph in enumerate(GRAPHS):
        for agent_seed in AGENT_SEEDS:
            rng = SplitMix64(derive_seed("sched-diff", graph_idx, agent_seed))
            pool = schedule_pool(rng)
            cells = []
            for _ in range(CELLS_PER_RUN):
                u = rng.randrange(graph.n)
                v = rng.randrange(graph.n)  # u == v allowed: event-0 meeting
                cells.append((u, v, pool[rng.randrange(len(pool))]))
            yield graph_idx, graph, agent_seed, cells


@pytest.mark.parametrize(
    "graph_idx,agent_seed",
    [(g, s) for g in range(len(GRAPHS)) for s in AGENT_SEEDS],
)
def test_batched_matches_scalar(graph_idx, agent_seed):
    for gi, graph, aseed, cells in _instances():
        if gi != graph_idx or aseed != agent_seed:
            continue
        outcomes = run_schedule_sweep(
            graph, cells, seeded_agent(agent_seed), max_events=_budget
        )
        for (u, v, schedule), got in zip(cells, outcomes):
            ref = run_schedule_adversary(
                graph,
                u,
                v,
                seeded_agent(agent_seed),
                schedule,
                max_events=_budget(u, v, schedule),
            )
            assert (
                got.met,
                got.meeting_node,
                got.events,
                got.edge_meetings,
            ) == (ref.met, ref.meeting_node, ref.events, ref.edge_meetings), (
                graph_idx,
                agent_seed,
                (u, v, schedule.name),
            )


def test_corpus_size():
    """The acceptance bar: at least 200 fuzzed instances."""
    total = sum(len(cells) for *_, cells in _instances())
    assert total >= 200, total


def test_terminating_agents_match():
    """Scripts that end mid-run exercise the done-agent clamp."""
    mismatches = 0
    total = 0
    for graph in (oriented_ring(6), path_graph(5)):
        rng = SplitMix64(derive_seed("sched-diff-term", graph.n))
        pool = schedule_pool(rng)
        for lifetime in (0, 1, 5, 17):
            cells = [
                (rng.randrange(graph.n), rng.randrange(graph.n), s)
                for s in pool
            ]
            outcomes = run_schedule_sweep(
                graph,
                cells,
                terminating_agent(3, lifetime),
                max_events=120,
            )
            for (u, v, schedule), got in zip(cells, outcomes):
                ref = run_schedule_adversary(
                    graph,
                    u,
                    v,
                    terminating_agent(3, lifetime),
                    schedule,
                    max_events=120,
                )
                total += 1
                mismatches += (
                    got.met,
                    got.meeting_node,
                    got.events,
                    got.edge_meetings,
                ) != (ref.met, ref.meeting_node, ref.events, ref.edge_meetings)
    assert total >= 60 and mismatches == 0


def test_zero_budget_and_coincident_start():
    g = oriented_ring(5)
    sched = MirrorSchedule()
    got = run_schedule_sweep(g, [(2, 2, sched), (0, 3, sched)],
                             seeded_agent(1), max_events=0)
    ref = [
        run_schedule_adversary(g, 2, 2, seeded_agent(1), sched, max_events=0),
        run_schedule_adversary(g, 0, 3, seeded_agent(1), sched, max_events=0),
    ]
    for a, b in zip(got, ref):
        assert a == b
    assert got[0].met and got[0].events == 0
    assert not got[1].met


def test_invalid_port_error_parity():
    """Engine-detected invalid moves raise the scalar message."""

    def bad(percept):
        yield Move(0)
        while True:
            percept = yield Move(7)

    g = oriented_ring(5)
    with pytest.raises(ValueError) as scalar_exc:
        run_schedule_adversary(g, 0, 2, bad, MirrorSchedule(), max_events=50)
    with pytest.raises(ValueError) as batch_exc:
        run_schedule_sweep(g, [(0, 2, MirrorSchedule())], bad, max_events=50)
    assert str(scalar_exc.value) == str(batch_exc.value)


def test_error_not_reached_is_not_raised():
    """An error beyond the budget (or after a meeting) never binds."""

    def explodes_late(percept):
        for _ in range(10):
            percept = yield Move(0)
        raise RuntimeError("boom")

    g = oriented_ring(6)
    # budget too small to reach the failing decision
    out = run_schedule_sweep(
        g, [(0, 3, MirrorSchedule())], explodes_late, max_events=5
    )[0]
    assert not out.met
    # u == v meets at event 0, before anything is pulled
    out = run_schedule_sweep(
        g, [(1, 1, MirrorSchedule())], explodes_late, max_events=50
    )[0]
    assert out.met and out.events == 0


def test_agent_error_parity():
    def explodes(percept):
        percept = yield Move(0)
        raise RuntimeError("boom")

    g = oriented_ring(6)
    with pytest.raises(RuntimeError, match="boom"):
        run_schedule_adversary(
            g, 0, 3, explodes, EagerSchedule(), max_events=50
        )
    with pytest.raises(RuntimeError, match="boom"):
        run_schedule_sweep(g, [(0, 3, EagerSchedule())], explodes, max_events=50)


def test_straggler_does_not_poison_resolved_cells():
    """Regression: move needs are re-derived from still-pending cells
    each deepening round, so a straggler cell never deepens — or
    fuel-faults — a move-starved trace that only already-resolved
    cells asked about (here: cell (0, 0) resolves at event 0 without
    ever pulling its starving degree-1 agent, while cell (1, 3) keeps
    deepening its healthy degree-2 traces)."""

    def degree_scripted(percept):
        if percept.degree == 1:
            percept = yield Move(0)
            while True:
                percept = yield Wait()
        while True:
            percept = yield Move(percept.clock % percept.degree)

    g = path_graph(5)
    cells = [(0, 0, WordSchedule(("a",))), (1, 3, MirrorSchedule())]
    events = {0: 100_000, 1: 600}
    outs = run_schedule_sweep(
        g,
        cells,
        degree_scripted,
        max_events=lambda u, v, s: events[u],
        fuel=128,
        initial_horizon=8,
    )
    refs = [
        run_schedule_adversary(
            g, u, v, degree_scripted, s, max_events=events[u]
        )
        for u, v, s in cells
    ]
    assert outs == refs
    assert outs[0].met and outs[0].events == 0


def test_pure_waiter_hits_fuel_limit():
    """Wait-forever agents starve the engine like the scalar fuel rule."""

    def waiter(percept):
        while True:
            percept = yield Wait()

    g = oriented_ring(5)
    with pytest.raises(RuntimeError, match="fuel"):
        run_schedule_sweep(
            g, [(0, 2, MirrorSchedule())], waiter, max_events=10, fuel=64
        )


def test_meeting_before_a_starved_pull_is_not_a_fuel_fault():
    """An agent that moves once and then waits forever starves only at
    its second pull.  Under ``a`` then seven ``b`` events the pair meets
    at event 3, before that pull, so the sweep must return the scalar
    outcome instead of raising on the fuel-starved trace."""

    def leaf_mover(percept):
        if percept.degree == 1:
            percept = yield Move(0)
            while True:
                percept = yield Wait()
        while True:
            percept = yield Move(0)

    g = path_graph(5)
    schedule = WordSchedule(("a",) + ("b",) * 7)
    ref = run_schedule_adversary(
        g, 0, 3, leaf_mover, schedule, max_events=1000, fuel=64
    )
    assert ref.met and ref.meeting_node == 1 and ref.events == 3
    for initial_horizon in FIRST_HORIZONS:
        got = run_schedule_sweep(
            g,
            [(0, 3, schedule)],
            leaf_mover,
            max_events=1000,
            fuel=64,
            **_horizon_kwargs(initial_horizon),
        )
        assert got == [ref], initial_horizon


def test_starved_agent_waits_while_its_partner_deepens():
    """The starved agent's next pull (event 301) comes after the meeting
    (event 150), but the partner's trace is still too short to show it
    once the first agent's trace has run out of fuel.  The sweep must
    deepen the partner, not raise."""

    def leaf_mover(percept):
        if percept.degree == 1:
            percept = yield Move(0)
            while True:
                percept = yield Wait()
        while True:
            percept = yield Move(0)

    g = path_graph(200)
    schedule = WordSchedule(("a",) + ("b",) * 300)
    ref = run_schedule_adversary(
        g, 0, 150, leaf_mover, schedule, max_events=400, fuel=64
    )
    assert ref.met and ref.meeting_node == 1 and ref.events == 150
    for initial_horizon in FIRST_HORIZONS:
        got = run_schedule_sweep(
            g,
            [(0, 150, schedule)],
            leaf_mover,
            max_events=400,
            fuel=64,
            **_horizon_kwargs(initial_horizon),
        )
        assert got == [ref], initial_horizon


# ---------------------------------------------------------------------------
# The first compile depth
# ---------------------------------------------------------------------------
#
# ``run_schedule_sweep`` starts at ``min(initial_horizon, demand)``, where
# ``demand`` is the most traversals any cell requests of one agent, and
# quadruples from there.  Outcomes must not depend on where it starts.

#: ``None`` leaves ``initial_horizon`` at its default.
FIRST_HORIZONS = (1, 8, None)
_REFS: dict = {}


def _horizon_kwargs(initial_horizon):
    return {} if initial_horizon is None else {"initial_horizon": initial_horizon}


def _demand(cells, budget):
    return max(
        int(s.cumulative_moves(budget(u, v, s))[-1].max()) for u, v, s in cells
    )


def _scalar_refs(graph_idx, agent_seed, cells, budget):
    key = (graph_idx, agent_seed, budget.__name__)
    if key not in _REFS:
        _REFS[key] = [
            run_schedule_adversary(
                GRAPHS[graph_idx],
                u,
                v,
                seeded_agent(agent_seed),
                s,
                max_events=budget(u, v, s),
            )
            for u, v, s in cells
        ]
    return _REFS[key]


@pytest.mark.parametrize("initial_horizon", FIRST_HORIZONS)
@pytest.mark.parametrize("budget", [_budget, _deep_budget], ids=["demand", "deep"])
def test_first_horizon_does_not_change_outcomes(initial_horizon, budget):
    """Seeded agents on every graph of the pool, at first depths 1 and
    8, at the default, and (``demand`` budgets, all under 1024) at the
    demand-sized start the default becomes."""
    for graph_idx, graph, agent_seed, cells in _instances():
        got = run_schedule_sweep(
            graph,
            cells,
            seeded_agent(agent_seed),
            max_events=budget,
            **_horizon_kwargs(initial_horizon),
        )
        assert got == _scalar_refs(graph_idx, agent_seed, cells, budget), (
            graph_idx,
            agent_seed,
        )


def test_first_compile_depth_is_demand_sized(monkeypatch):
    """The first ``TraceCompiler.traces`` call of a sweep asks for
    ``min(1024, demand)`` clocks for every start it compiles."""
    requested: list[set[int]] = []
    real_traces = TraceCompiler.traces

    def spy(self, horizons):
        requested.append(set(horizons.values()))
        return real_traces(self, horizons)

    monkeypatch.setattr(TraceCompiler, "traces", spy)
    capped = set()
    for budget in (_budget, _deep_budget):
        for _, graph, agent_seed, cells in _instances():
            requested.clear()
            run_schedule_sweep(
                graph, cells, seeded_agent(agent_seed), max_events=budget
            )
            first = min(1024, _demand(cells, budget))
            assert requested[0] == {max(first, 1)}, (budget.__name__, first)
            capped.add(first == 1024)
    # Both regimes occur: demand-sized starts and the 1024 cap.
    assert capped == {False, True}


@pytest.mark.parametrize("initial_horizon", FIRST_HORIZONS)
@pytest.mark.parametrize("max_events", [10, 2000])
def test_first_horizon_keeps_fuel_error(initial_horizon, max_events):
    def waiter(percept):
        while True:
            percept = yield Wait()

    g = oriented_ring(5)
    with pytest.raises(RuntimeError) as scalar_exc:
        run_schedule_adversary(
            g, 0, 2, waiter, MirrorSchedule(), max_events=max_events, fuel=64
        )
    with pytest.raises(RuntimeError) as batch_exc:
        run_schedule_sweep(
            g,
            [(0, 2, MirrorSchedule())],
            waiter,
            max_events=max_events,
            fuel=64,
            **_horizon_kwargs(initial_horizon),
        )
    assert str(batch_exc.value) == str(scalar_exc.value)


@pytest.mark.parametrize("initial_horizon", FIRST_HORIZONS)
@pytest.mark.parametrize("max_events", [100, 2000])
def test_first_horizon_keeps_agent_errors(initial_horizon, max_events):
    def explodes(percept):
        for _ in range(30):
            percept = yield WaitBlock(3)
            percept = yield Move(0)
        raise RuntimeError("boom")

    def bad_port(percept):
        for _ in range(20):
            percept = yield Wait()
            percept = yield Move(0)
        while True:
            percept = yield Move(7)

    # Both agents run clockwise three nodes apart: they never meet, so
    # each error binds.
    g = oriented_ring(6)
    for algorithm, exc_type in ((explodes, RuntimeError), (bad_port, ValueError)):
        with pytest.raises(exc_type) as scalar_exc:
            run_schedule_adversary(
                g, 0, 3, algorithm, EagerSchedule(), max_events=max_events
            )
        with pytest.raises(exc_type) as batch_exc:
            run_schedule_sweep(
                g,
                [(0, 3, EagerSchedule())],
                algorithm,
                max_events=max_events,
                **_horizon_kwargs(initial_horizon),
            )
        assert str(batch_exc.value) == str(scalar_exc.value)
