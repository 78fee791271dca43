"""FIG1 — regenerate Figure 1's construction (Q_h / Q̂_h) and time it.

Also microbenchmarks the two expensive structural checks the
reproduction relies on: building Q̂_h and refining its view classes.
"""

from conftest import emit

from repro.experiments.orchestrator import run_experiment
from repro.hardness.qhat import build_qhat
from repro.symmetry.views import view_classes


def test_fig1_regeneration(benchmark, tier):
    record = benchmark(lambda: run_experiment("FIG1", tier=tier).record)
    emit(record)
    assert record.passed


def test_build_qhat_h3(benchmark):
    graph, _tree = benchmark(build_qhat, 3)
    assert graph.n == 53


def test_build_qhat_h5(benchmark):
    graph, _tree = benchmark(build_qhat, 5)
    assert graph.n == 485


def test_view_refinement_qhat_h4(benchmark):
    graph, _ = build_qhat(4)
    colors = benchmark(view_classes, graph)
    assert len(set(colors)) == 1
