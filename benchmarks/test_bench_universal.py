"""EXP-T31 / EXP-P41 — regenerate the UniversalRV table and time the
universal algorithm on each STIC class."""

import pytest
from conftest import emit

from repro.core.profile import TUNED
from repro.core.universal import rendezvous
from repro.experiments.orchestrator import run_experiment
from repro.graphs.families import oriented_ring, path_graph, two_node_graph


def test_universal_table(benchmark, tier):
    record = benchmark(lambda: run_experiment("EXP-T31/P41", tier=tier).record)
    emit(record)
    assert record.passed


@pytest.mark.parametrize(
    "name,factory,u,v,delta",
    [
        ("symmetric-boundary", lambda: two_node_graph(), 0, 1, 1),
        ("symmetric-slack", lambda: oriented_ring(4), 0, 2, 3),
        ("nonsymmetric-zero-delay", lambda: path_graph(3), 0, 2, 0),
        ("nonsymmetric-delay", lambda: path_graph(4), 0, 3, 2),
    ],
    ids=["sym-boundary", "sym-slack", "nonsym-d0", "nonsym-d2"],
)
def test_universal_per_class(benchmark, name, factory, u, v, delta):
    g = factory()

    def run():
        return rendezvous(g, u, v, delta, profile=TUNED)

    result = benchmark(run)
    assert result.met


def test_dedicated_vs_universal_price(benchmark):
    """The price of universality: dedicated SymmRV on the same STIC."""
    from repro.core.dedicated import dedicated_rendezvous

    g = oriented_ring(4)

    def run():
        return dedicated_rendezvous(g, 0, 2, 2)

    result = benchmark(run)
    assert result.met


def test_scheduler_throughput(benchmark):
    """Raw scheduler throughput: two always-moving agents, 20k rounds."""
    from repro.sim import Move, run_rendezvous
    from repro.graphs.families import oriented_torus

    g = oriented_torus(3, 3)

    def mover(percept):
        while True:
            percept = yield Move(percept.clock % percept.degree)

    def run():
        return run_rendezvous(g, 0, 4, 1, mover, max_rounds=20_000)

    result = benchmark(run)
    assert result.rounds_executed <= 20_000
