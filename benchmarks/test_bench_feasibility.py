"""EXP-L31 — regenerate the infeasibility table (Lemma 3.1) and time
the negative-evidence battery on one representative STIC."""

from conftest import emit

from repro.core.profile import TUNED
from repro.core.universal import rendezvous
from repro.experiments.orchestrator import run_experiment
from repro.graphs.families import oriented_ring


def test_infeasibility_table(benchmark, tier):
    record = benchmark(lambda: run_experiment("EXP-L31", tier=tier).record)
    emit(record)
    assert record.passed


def test_universal_on_infeasible_stic(benchmark):
    """Cost of running UniversalRV for 50k rounds with no meeting —
    exercises the scheduler's wait fast-forwarding."""
    g = oriented_ring(6)

    def run():
        return rendezvous(g, 0, 3, 0, profile=TUNED, max_rounds=50_000)

    result = benchmark(run)
    assert not result.met
