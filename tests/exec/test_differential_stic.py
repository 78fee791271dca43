"""Differential fuzz: the synchronous STIC sweep against the scalar
scheduler.

Every ``(graph, agent, STIC)`` instance must give the same
:class:`~repro.sim.scheduler.RendezvousResult` from
:func:`repro.sim.batch.run_rendezvous_batch` (a frontend over
``repro.exec``) and from :func:`repro.sim.scheduler.run_rendezvous`:
``met``, ``meeting_node``, ``meeting_time``, ``time_from_later`` and
``rounds_executed`` equal on every STIC of every cell, with the batch
engine recording no crossings and no traces.  Error binding (which
STIC an agent exception is raised for, and with what message) is part
of the contract and fuzzed separately.
"""

import pytest

from harness import (
    assert_engines_identical,
    exploding_agent,
    graph_pool,
    outcome,
    seeded_agent,
    stic_budget,
    stic_corpus,
    terminating_agent,
)
import repro.sim.batch as batch_module
from repro.exec.deepen import resolve_adaptive
from repro.sim import Move
from repro.sim.batch import run_rendezvous_batch
from repro.sim.scheduler import run_rendezvous

AGENT_SEEDS = (11, 23, 47)
CASES = [
    (graph_idx, agent_seed)
    for graph_idx in range(len(graph_pool()))
    for agent_seed in AGENT_SEEDS
]
FIELDS = ("met", "meeting_node", "meeting_time", "time_from_later", "rounds_executed")


def fields(result) -> tuple:
    """The result fields the batch engine shares with the scalar."""
    return tuple(getattr(result, field) for field in FIELDS)


#: First compile horizons of every batch run: the default, which settles
#: the corpus's budgets (at most 800 rounds) in one compile, and 1,
#: which deepens through them and so checks the resumed compiles.
FIRST_HORIZONS = (1024, 1)


def diff_stics(graph, stics, algorithm, *, oracle=None) -> str | None:
    """Batch vs scalar on every STIC (budgets from ``stic_budget``), the
    batch compiled from each of ``FIRST_HORIZONS``; ``oracle`` maps a
    start node to its agent's oracle."""
    runs = {
        horizon: run_rendezvous_batch(
            graph,
            stics,
            algorithm,
            max_rounds=stic_budget,
            oracle_factory=oracle,
            initial_horizon=horizon,
        )
        for horizon in FIRST_HORIZONS
    }
    for horizon, results in runs.items():
        if len(results) != len(stics):
            return (
                f"first horizon {horizon}: "
                f"{len(results)} results for {len(stics)} STICs"
            )
    for i, (u, v, delta) in enumerate(stics):
        ref = run_rendezvous(
            graph,
            u,
            v,
            delta,
            algorithm,
            max_rounds=stic_budget(u, v, delta),
            oracles=None if oracle is None else (oracle(u), oracle(v)),
        )
        for horizon, results in runs.items():
            got = results[i]
            where = f"stic {(u, v, delta)} (first horizon {horizon})"
            if got.crossings != () or got.traces is not None:
                return f"{where}: batch recorded crossings/traces: {got}"
            if fields(got) != fields(ref):
                return f"{where}: batch={got} scalar={ref}"
    return None


def stic_case(graph_idx: int, agent_seed: int) -> str | None:
    """One corpus cell: batch vs scalar on all 12 STICs."""
    graph, stics = stic_corpus(graph_idx, agent_seed)
    return diff_stics(graph, stics, seeded_agent(agent_seed))


def test_corpus_size():
    """The acceptance bar: at least 200 fuzzed instances."""
    total = sum(len(stic_corpus(g, s)[1]) for g, s in CASES)
    assert total >= 200, total


def test_batch_matches_scalar():
    assert_engines_identical(stic_case, CASES, min_cases=len(CASES))


def terminating_case(graph_idx: int, lifetime: int) -> str | None:
    """Scripts that end mid-run exercise the complete-trace clamp."""
    graph, stics = stic_corpus(graph_idx, 100 + lifetime)
    return diff_stics(graph, stics, terminating_agent(3, lifetime))


TERMINATING_CASES = [(g, life) for g in (1, 3, 5) for life in (0, 1, 5, 17)]


def test_terminating_agents_match():
    assert_engines_identical(terminating_case, TERMINATING_CASES)


def error_case(graph_idx: int, lifetime: int) -> str | None:
    """Per STIC and per budget around the failing rounds: the batch
    raises exactly when, and exactly what, the scalar raises — also
    when the traces are compiled a round at a time (``horizon=1``), so
    errors are bound across deepening steps."""
    graph, stics = stic_corpus(graph_idx, 200 + lifetime)
    algorithm = exploding_agent(lifetime)
    for u, v, delta in stics:
        # The agents' failing rounds.
        around = (lifetime + graph.degree(u), delta + lifetime + graph.degree(v))
        budgets = {t + slack for t in around for slack in (0, 1)}
        for budget in sorted(budgets | {stic_budget(u, v, delta)}):
            scalar = outcome(
                lambda: fields(
                    run_rendezvous(graph, u, v, delta, algorithm, max_rounds=budget)
                )
            )
            for horizon in (1, 1024):
                batch = outcome(
                    lambda: fields(
                        run_rendezvous_batch(
                            graph,
                            [(u, v, delta)],
                            algorithm,
                            max_rounds=budget,
                            initial_horizon=horizon,
                        )[0]
                    )
                )
                if batch != scalar:
                    stic = (u, v, delta)
                    return f"stic {stic} budget {budget}: {batch} vs {scalar}"
    return None


@pytest.mark.parametrize("delta", [0, 3, 40])
def test_error_binding_parity(delta):
    """Agent errors bind to the same STIC with the same message."""
    graph = graph_pool()[2]
    explodes = exploding_agent(6)  # 8 moves on the ring
    batch = outcome(
        lambda: run_rendezvous_batch(graph, [(0, 3, delta)], explodes, max_rounds=50)
    )
    scalar = outcome(
        lambda: run_rendezvous(graph, 0, 3, delta, explodes, max_rounds=50)
    )
    # Budget 50 reaches the failing round.
    assert batch == scalar == ("RuntimeError", f"boom after degrees {[2] * 8}")


def test_error_binding_corpus():
    cases = [(g, life) for g in (0, 4, 5) for life in (0, 3, 9)]
    assert_engines_identical(error_case, cases)


def test_bad_port_message_parity():
    """Engine-detected invalid moves quote the scalar's global round."""

    def bad(percept):
        yield Move(0)
        while True:
            percept = yield Move(7)

    graph = graph_pool()[1]
    batch = outcome(
        lambda: run_rendezvous_batch(graph, [(0, 2, 5)], bad, max_rounds=60)
    )
    scalar = outcome(lambda: run_rendezvous(graph, 0, 2, 5, bad, max_rounds=60))
    assert batch == scalar
    assert batch[0] == "ValueError"


def test_oracle_mode_matches_scalar():
    """Per-start oracles reach each agent as the scheduler's would."""

    def algorithm(percept, oracle):
        while True:
            percept = yield Move((percept.clock + oracle) % percept.degree)

    graph, stics = stic_corpus(3, 7)
    assert diff_stics(graph, stics, algorithm, oracle=lambda start: start % 3) is None


def test_first_horizon_one_deepens(monkeypatch):
    """From first horizon 1 most corpus cells take several deepening
    steps, so ``diff_stics`` checks resumed compiles against the scalar,
    not only one-shot ones; so does the oracle cell."""
    steps: list[tuple[int, int]] = []

    def spy(count, step, **kwargs):
        horizons: list[int] = []

        def counted(pending, horizon):
            horizons.append(horizon)
            return step(pending, horizon)

        results = resolve_adaptive(count, counted, **kwargs)
        steps.append((kwargs["initial_horizon"], len(horizons)))
        return results

    monkeypatch.setattr(batch_module, "resolve_adaptive", spy)
    for case in CASES:
        assert stic_case(*case) is None
    for case in TERMINATING_CASES:
        assert terminating_case(*case) is None
    corpus = [n for horizon, n in steps if horizon == 1]
    assert len(corpus) == len(CASES) + len(TERMINATING_CASES)
    assert sum(n > 1 for n in corpus) >= 0.75 * len(corpus), corpus
    steps.clear()
    test_oracle_mode_matches_scalar()
    assert [n > 1 for horizon, n in steps if horizon == 1] == [True]
