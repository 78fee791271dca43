"""Batched STIC sweep engine vs the scalar per-STIC loop.

The PR-1 acceptance benchmark: sweeping Algorithm UniversalRV over
every STIC of a family (the ``empirical_feasibility_atlas`` workload)
must be at least 5x faster through :func:`run_rendezvous_batch` than
through a scalar :func:`run_rendezvous` loop, with bit-identical
results.  The engine compiles each start node's port trace once and
answers every ``(partner, delta)`` question against it, so the win
grows with the number of STICs per start node.
"""

import numpy as np
from conftest import emit, paired_ratio

from repro.core import (
    TUNED,
    UniversalOracle,
    make_universal_algorithm,
    universal_stic_budget,
)
from repro.exec import meeting
from repro.exec.trace import PortTrace
from repro.experiments.records import ExperimentRecord
from repro.graphs import oriented_ring, oriented_torus
from repro.sim.batch import run_rendezvous_batch
from repro.sim.scheduler import run_rendezvous
from repro.symmetry import classify_stic

#: Interleaved (scalar, batch) timing pairs per sweep; the asserts use
#: the median per-pair ratio, so one scheduler stall cannot decide them.
_PAIRS = 3


def _sweep_inputs(graph, max_delta):
    """All STICs up to ``max_delta`` with their round budgets
    (precomputed: budget formulas are shared by both competitors and
    are not what this benchmark measures)."""
    stics, budgets = [], {}
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            for delta in range(max_delta + 1):
                verdict = classify_stic(graph, u, v, delta)
                stics.append((u, v, delta))
                budgets[(u, v, delta)] = universal_stic_budget(
                    TUNED, graph.n, verdict, delta
                )
    return stics, budgets


def _run_both(graph, max_delta):
    """Median per-pair scalar/batch time ratio over ``_PAIRS``
    interleaved pairs, after checking the two sides agree."""
    stics, budgets = _sweep_inputs(graph, max_delta)
    algorithm = make_universal_algorithm(TUNED)

    def batch_side():
        return run_rendezvous_batch(
            graph,
            stics,
            algorithm,
            max_rounds=lambda u, v, delta: budgets[(u, v, delta)],
            oracle_factory=lambda s: UniversalOracle(graph, s, TUNED),
        )

    def scalar_side():
        return [
            run_rendezvous(
                graph,
                u,
                v,
                delta,
                algorithm,
                max_rounds=budgets[(u, v, delta)],
                oracles=(
                    UniversalOracle(graph, u, TUNED),
                    UniversalOracle(graph, v, TUNED),
                ),
            )
            for u, v, delta in stics
        ]

    speedup, scalar_s, batch_s, scalar, batch = paired_ratio(
        scalar_side, batch_side, _PAIRS
    )
    for (u, v, delta), got, ref in zip(stics, batch, scalar):
        assert (
            got.met,
            got.meeting_node,
            got.meeting_time,
            got.time_from_later,
            got.rounds_executed,
        ) == (
            ref.met,
            ref.meeting_node,
            ref.meeting_time,
            ref.time_from_later,
            ref.rounds_executed,
        ), (u, v, delta)
    return len(stics), speedup, batch_s, scalar_s


def test_batch_sweep_speedup():
    """>= 5x on the ring sweep (448 STICs), identical results."""
    record = ExperimentRecord(
        exp_id="BENCH-BATCH",
        title="Batched STIC sweep vs scalar per-STIC loop (UniversalRV)",
        paper_claim=(
            "a deterministic agent's choices are a pure function of its "
            "perception stream, so one compiled trace per start node "
            "serves every STIC of the sweep"
        ),
        columns=["graph", "STICs", "scalar s", "batch s", "speedup"],
    )
    results = {}
    for name, graph, max_delta in [
        ("ring n=8", oriented_ring(8), 15),
        ("torus 3x3", oriented_torus(3, 3), 9),
    ]:
        count, speedup, batch_s, scalar_s = _run_both(graph, max_delta)
        assert count >= 200
        results[name] = (count, speedup)
        record.add_row(
            graph=name,
            STICs=count,
            **{
                "scalar s": round(scalar_s, 3),
                "batch s": round(batch_s, 3),
                "speedup": round(speedup, 1),
            },
        )
    ring_count, ring_speedup = results["ring n=8"]
    record.passed = ring_speedup >= 5.0
    record.measured_summary = (
        f"ring sweep of {ring_count} STICs ran "
        f"{ring_speedup:.1f}x faster batched (median of {_PAIRS} interleaved "
        "pairs), bit-identical meeting times on every STIC of both sweeps"
    )
    emit(record)
    assert ring_speedup >= 5.0, results
    _, torus_speedup = results["torus 3x3"]
    assert torus_speedup >= 2.0, results


def test_batch_sweep_throughput(benchmark):
    """Raw engine throughput on the ring sweep, for the timing table."""
    graph = oriented_ring(8)
    stics, budgets = _sweep_inputs(graph, 15)
    algorithm = make_universal_algorithm(TUNED)

    def run():
        return run_rendezvous_batch(
            graph,
            stics,
            algorithm,
            max_rounds=lambda u, v, delta: budgets[(u, v, delta)],
            oracle_factory=lambda s: UniversalOracle(graph, s, TUNED),
        )

    results = benchmark(run)
    assert sum(r.met for r in results) == sum(
        1 for u, v, delta in stics if classify_stic(graph, u, v, delta).feasible
    )


def _sparse_pair(breakpoints, rounds_per_breakpoint):
    """Two never-meeting traces of ``breakpoints`` breakpoints each,
    about ``rounds_per_breakpoint`` rounds apart, with their solve
    window: both solves must scan all of it."""
    rng = np.random.default_rng(rounds_per_breakpoint)
    traces = []
    for parity in (0, 1):
        gaps = 1 + rng.poisson(rounds_per_breakpoint - 1, breakpoints - 1)
        times = np.concatenate(([0], np.cumsum(gaps)))
        nodes = 2 * rng.integers(0, 50, breakpoints) + parity
        traces.append(PortTrace(0, times, nodes, 1 << 40, True))
    a, b = traces
    delta = 7
    limit = int(min(a.times[-1], b.times[-1] + delta))
    cut_a = int(a.times.searchsorted(limit, side="right"))
    cut_b = int(b.times.searchsorted(limit - delta, side="right"))
    return a, b, delta, limit, cut_a, cut_b


def test_sync_solve_density_constant_splits_the_faster_solves():
    """Half below ``DENSE_ROUNDS_PER_BREAKPOINT`` the round-indexed
    solve wins; at four times it the breakpoint merge wins (3,000
    breakpoints a trace, where the two break even soonest)."""
    ratios = {}
    for factor in (0.5, 4):
        density = int(factor * meeting.DENSE_ROUNDS_PER_BREAKPOINT)
        a, b, delta, limit, cut_a, cut_b = _sparse_pair(3000, density)

        def dense():
            for _ in range(20):
                hit = meeting._solve_dense(a, b, delta, limit, cut_a, cut_b)
            return hit

        def merge():
            for _ in range(20):
                hit = meeting._solve_merge(a, b, delta, cut_a, cut_b)
            return hit

        ratio, merge_s, dense_s, got_merge, got_dense = paired_ratio(
            merge, dense, pairs=5
        )
        assert got_merge is None and got_dense is None
        ratios[density] = ratio
        print(
            f"{density} rounds/breakpoint: dense {dense_s / 20 * 1e6:.0f} us, "
            f"merge {merge_s / 20 * 1e6:.0f} us"
        )
    low, high = sorted(ratios)
    assert ratios[low] >= 1.5, ratios
    assert ratios[high] <= 1 / 1.5, ratios
