"""Differential fuzz: the asynchronous schedule sweep against the
scalar adversary.

Every ``(graph, agent, pair, schedule)`` cell must give an equal
:class:`~repro.sim.schedule_adversary.AsyncOutcome` — ``met`` /
``meeting_node`` / ``events`` / ``edge_meetings`` — from
:func:`repro.sim.schedule_adversary.run_schedule_sweep` (a frontend
over ``repro.exec``) and from
:func:`repro.sim.schedule_adversary.run_schedule_adversary`, on every
cell.  Script errors, port errors and fuel starvation must raise the
same exception with the same message.
"""

from harness import (
    assert_engines_identical,
    event_budget,
    exploding_agent,
    graph_pool,
    outcome,
    schedule_corpus,
    seeded_agent,
    terminating_agent,
)
from repro.sim import Move, Wait
from repro.sim.schedule_adversary import (
    MirrorSchedule,
    run_schedule_adversary,
    run_schedule_sweep,
)

AGENT_SEEDS = (11, 23, 47)
CASES = [
    (graph_idx, agent_seed)
    for graph_idx in range(len(graph_pool()))
    for agent_seed in AGENT_SEEDS
]


def diff_cells(graph, cells, algorithm, max_events) -> str | None:
    """Sweep vs scalar adversary on every cell, full equality."""
    outcomes = run_schedule_sweep(graph, cells, algorithm, max_events=max_events)
    if len(outcomes) != len(cells):
        return f"{len(outcomes)} outcomes for {len(cells)} cells"
    for (u, v, schedule), got in zip(cells, outcomes):
        budget = max_events(u, v, schedule) if callable(max_events) else max_events
        ref = run_schedule_adversary(
            graph, u, v, algorithm, schedule, max_events=budget
        )
        if got != ref:
            return f"cell {(u, v, schedule.name)}: sweep={got} scalar={ref}"
    return None


def schedule_case(graph_idx: int, agent_seed: int) -> str | None:
    """One corpus cell: sweep vs scalar on all 12 cells."""
    graph, cells = schedule_corpus(graph_idx, agent_seed)
    return diff_cells(graph, cells, seeded_agent(agent_seed), event_budget)


def test_corpus_size():
    """The acceptance bar: at least 200 fuzzed instances."""
    total = sum(len(schedule_corpus(g, s)[1]) for g, s in CASES)
    assert total >= 200, total


def test_sweep_matches_scalar():
    assert_engines_identical(schedule_case, CASES, min_cases=len(CASES))


def terminating_case(graph_idx: int, lifetime: int) -> str | None:
    graph, cells = schedule_corpus(graph_idx, 100 + lifetime)
    return diff_cells(graph, cells, terminating_agent(3, lifetime), 120)


def test_terminating_agents_match():
    cases = [(g, life) for g in (1, 3, 5) for life in (0, 1, 5, 17)]
    assert_engines_identical(terminating_case, cases)


def error_case(graph_idx: int, lifetime: int) -> str | None:
    """Per cell and per event budget: the sweep raises exactly when,
    and exactly what, the scalar adversary raises — also when the
    traces are compiled a move at a time (``horizon=1``)."""
    graph, cells = schedule_corpus(graph_idx, 200 + lifetime)
    algorithm = exploding_agent(lifetime)
    for u, v, schedule in cells:
        moves = {lifetime + graph.degree(u), lifetime + graph.degree(v)}
        for budget in sorted({1, 60} | {m + s for m in moves for s in (0, 1)}):
            scalar = outcome(
                lambda: run_schedule_adversary(
                    graph, u, v, algorithm, schedule, max_events=budget
                )
            )
            for horizon in (1, 1024):
                sweep = outcome(
                    lambda: run_schedule_sweep(
                        graph,
                        [(u, v, schedule)],
                        algorithm,
                        max_events=budget,
                        initial_horizon=horizon,
                    )[0]
                )
                if sweep != scalar:
                    cell = (u, v, schedule.name)
                    return f"cell {cell} budget {budget}: {sweep} vs {scalar}"
    return None


def test_error_binding_corpus():
    cases = [(g, life) for g in (0, 4, 5) for life in (0, 3, 9)]
    assert_engines_identical(error_case, cases)


def test_error_parity():
    """Pull-time script errors and apply-time port errors both match."""

    def explodes(percept):
        percept = yield Move(0)
        raise RuntimeError("boom")

    def bad(percept):
        yield Move(0)
        while True:
            percept = yield Move(7)

    graph = graph_pool()[2]
    for algo, exc_type in ((explodes, "RuntimeError"), (bad, "ValueError")):
        sweep = outcome(
            lambda: run_schedule_sweep(
                graph, [(0, 3, MirrorSchedule())], algo, max_events=50
            )
        )
        scalar = outcome(
            lambda: run_schedule_adversary(
                graph, 0, 3, algo, MirrorSchedule(), max_events=50
            )
        )
        assert sweep == scalar
        assert sweep[0] == exc_type


def test_fuel_limit_parity():
    """Wait-forever starvation raises identically in both engines."""

    def waiter(percept):
        while True:
            percept = yield Wait()

    graph = graph_pool()[1]
    sweep = outcome(
        lambda: run_schedule_sweep(
            graph, [(0, 2, MirrorSchedule())], waiter, max_events=10, fuel=64
        )
    )
    scalar = outcome(
        lambda: run_schedule_adversary(
            graph, 0, 2, waiter, MirrorSchedule(), max_events=10, fuel=64
        )
    )
    assert sweep == scalar
    assert sweep[0] == "RuntimeError" and "fuel" in sweep[1]
