"""EXP-T41 — regenerate the exponential-lower-bound sweep and time the
symbolic Q_h simulations that make large heights reachable."""

import pytest
from conftest import emit

from repro.experiments.orchestrator import run_experiment
from repro.hardness.lower_bound import worst_case_meeting_time
from repro.hardness.qhat import build_qhat


def test_hardness_table(benchmark, tier):
    record = benchmark(lambda: run_experiment("EXP-T41", tier=tier).record)
    emit(record)
    assert record.passed


@pytest.mark.parametrize("k", [3, 5, 7])
def test_worst_case_sweep(benchmark, k):
    """Symbolic sweep cost at height h = 4k (node count ~3^{4k} would
    be unbuildable beyond k = 3; the symbolic simulator does not care)."""
    worst = benchmark(worst_case_meeting_time, k)
    assert worst >= 2 ** (k - 1)


def test_concrete_qhat_k2(benchmark):
    """Concrete 13121-node Q̂_8 build (the k=2 cross-check substrate)."""
    graph, _ = benchmark(build_qhat, 8)
    assert graph.n == 13121


def test_batch_vs_scalar_qhat_k2(benchmark):
    """Vectorized batch sweep over Z on the 13121-node Q̂_8."""
    from repro.hardness import dedicated_word, z_set
    from repro.hardness.batch import simulate_word_batch

    graph, tree = build_qhat(8)
    word = dedicated_word(2)
    starts = [m.node for m in z_set(tree, 2)]

    def run():
        return simulate_word_batch(graph, word, tree.root, starts, 4, 10 * len(word))

    times = benchmark(run)
    assert all(t is not None for t in times)
