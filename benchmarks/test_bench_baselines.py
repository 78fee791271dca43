"""EXP-BASE / EXP-LE — regenerate the baseline comparison table and
time each baseline on a common workload."""

from conftest import emit

from repro.baselines.random_walk import mean_meeting_time
from repro.baselines.wait_for_mommy import wait_for_mommy
from repro.core.profile import TUNED
from repro.core.universal import rendezvous
from repro.experiments.orchestrator import run_experiment
from repro.graphs.families import oriented_torus, torus_node


def test_baselines_table(benchmark, tier):
    record = benchmark(lambda: run_experiment("EXP-BASE/LE", tier=tier).record)
    emit(record)
    assert record.passed


def _torus_case():
    g = oriented_torus(3, 3)
    return g, 0, torus_node(1, 1, 3), 2


def test_random_walk_baseline(benchmark):
    g, u, v, delta = _torus_case()

    def run():
        return mean_meeting_time(g, u, v, delta, trials=20, seed=11)

    mean, failures = benchmark(run)
    assert failures == 0


def test_mommy_baseline(benchmark):
    g, u, v, delta = _torus_case()

    def run():
        return wait_for_mommy(g, u, v, delta, TUNED.uxs(g.n))

    out = benchmark(run)
    assert out.met


def test_universal_on_same_case(benchmark):
    g, u, v, delta = _torus_case()

    def run():
        return rendezvous(g, u, v, delta, profile=TUNED)

    result = benchmark(run)
    assert result.met
