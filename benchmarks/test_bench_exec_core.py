"""Unified execution core vs the frozen pre-refactor engines.

The refactor acceptance benchmark: on the two standing sweep grids —
the 448-STIC synchronous ring sweep and the 225-cell asynchronous
(pair x schedule) grid — the engines rewired over :mod:`repro.exec`
must be at least as fast as the pre-refactor solver/sweep layers
preserved verbatim in ``_legacy_engines.py``, with bit-identical
results on every cell.

Both sides share one pre-warmed :class:`TraceCompiler`, so compile
cost (unchanged by the refactor) is excluded and the timing isolates
exactly the replaced layer: meeting solvers + adaptive deepening.
The two sides run in interleaved pairs, alternating which goes first,
and the ratio is the median of the per-pair ``legacy / unified``
ratios: a scheduler hiccup spoils one pair, not the verdict.  With
``--benchmark-json PATH``, consolidated ratios land in
``BENCH_exec_core.json`` next to PATH —
``{workload: {cells, legacy_s, unified_s, ratio}}`` (per-side median
times) — uploaded by the CI benchmarks job; the bar is
``ratio >= 1.0`` on both grids.
"""

import _legacy_engines as legacy
from conftest import emit, export_bench, paired_ratio

from repro.core import (
    TUNED,
    UniversalOracle,
    make_universal_algorithm,
    universal_stic_budget,
)
from repro.core.profile import tuned_profile
from repro.experiments.records import ExperimentRecord
from repro.graphs import oriented_ring
from repro.sim.batch import TraceCompiler, run_rendezvous_batch
from repro.sim.schedule_adversary import (
    EagerSchedule,
    FixedDelaySchedule,
    MirrorSchedule,
    RandomSchedule,
    run_schedule_sweep,
)
from repro.symmetry import classify_stic, symmetric_pairs

#: Interleaved (legacy, unified) timing pairs per grid.  Each pair
#: runs both sides back to back, in alternating order, so host drift
#: hits both alike; the verdict is the median of the per-pair ratios.
_PAIRS = 25


def _sync_grid():
    """The 448-STIC ring sweep of the PR-1 acceptance benchmark."""
    graph = oriented_ring(8)
    stics, budgets = [], {}
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            for delta in range(16):
                verdict = classify_stic(graph, u, v, delta)
                stics.append((u, v, delta))
                budgets[(u, v, delta)] = universal_stic_budget(
                    TUNED, graph.n, verdict, delta
                )
    return graph, stics, budgets


def _async_grid():
    """The 225-cell (symmetric pair x schedule) grid of the PR-2
    acceptance benchmark."""
    graph = oriented_ring(10)
    schedules = [
        MirrorSchedule(),
        EagerSchedule(),
        FixedDelaySchedule(2),
        RandomSchedule(0),
        RandomSchedule(1),
    ]
    cells = [(u, v, s) for u, v in symmetric_pairs(graph) for s in schedules]
    return graph, cells


def test_exec_core_vs_legacy_engines():
    record = ExperimentRecord(
        exp_id="BENCH-EXEC-CORE",
        title="Unified execution core vs frozen pre-refactor engines",
        paper_claim=(
            "one shared trace IR replayed as array gathers serves both "
            "sweep engines without giving back the batched speedups"
        ),
        columns=["workload", "cells", "legacy s", "unified s", "ratio"],
    )

    # -- synchronous: 448-STIC ring sweep ------------------------------
    graph, stics, budgets = _sync_grid()
    algorithm = make_universal_algorithm(TUNED)
    compiler = TraceCompiler(
        graph,
        algorithm,
        oracle_factory=lambda s: UniversalOracle(graph, s, TUNED),
    )
    max_rounds = lambda u, v, delta: budgets[(u, v, delta)]  # noqa: E731
    run_rendezvous_batch(
        graph, stics, algorithm, max_rounds=max_rounds, compiler=compiler
    )  # pre-warm: compile cost is shared and excluded

    sync_ratio, legacy_s, unified_s, old, new = paired_ratio(
        lambda: legacy.legacy_run_rendezvous_batch(
            graph, stics, algorithm, max_rounds=max_rounds, compiler=compiler
        ),
        lambda: run_rendezvous_batch(
            graph, stics, algorithm, max_rounds=max_rounds, compiler=compiler
        ),
        _PAIRS,
    )
    assert new == old  # bit-identical results, every field of every STIC
    record.add_row(
        workload="sync ring n=8",
        cells=len(stics),
        **{
            "legacy s": round(legacy_s, 4),
            "unified s": round(unified_s, 4),
            "ratio": round(sync_ratio, 2),
        },
    )
    export_bench(
        "BENCH_exec_core.json",
        "sync_448_stics",
        {
            "cells": len(stics),
            "legacy_s": round(legacy_s, 4),
            "unified_s": round(unified_s, 4),
            "ratio": round(sync_ratio, 3),
        },
    )

    # -- asynchronous: 225-cell schedule grid --------------------------
    graph, cells = _async_grid()
    algorithm = make_universal_algorithm(
        tuned_profile(view_mode="faithful", name="bench-exec-async")
    )
    compiler = TraceCompiler(graph, algorithm)
    run_schedule_sweep(
        graph, cells, algorithm, max_events=1200, compiler=compiler
    )  # pre-warm

    async_ratio, legacy_s, unified_s, old, new = paired_ratio(
        lambda: legacy.legacy_run_schedule_sweep(
            graph, cells, algorithm, max_events=1200, compiler=compiler
        ),
        lambda: run_schedule_sweep(
            graph, cells, algorithm, max_events=1200, compiler=compiler
        ),
        _PAIRS,
    )
    assert new == old
    record.add_row(
        workload="async ring n=10",
        cells=len(cells),
        **{
            "legacy s": round(legacy_s, 4),
            "unified s": round(unified_s, 4),
            "ratio": round(async_ratio, 2),
        },
    )
    export_bench(
        "BENCH_exec_core.json",
        "async_225_cells",
        {
            "cells": len(cells),
            "legacy_s": round(legacy_s, 4),
            "unified_s": round(unified_s, 4),
            "ratio": round(async_ratio, 3),
        },
    )

    record.passed = sync_ratio >= 1.0 and async_ratio >= 1.0
    record.measured_summary = (
        f"unified core at {sync_ratio:.2f}x legacy on {len(stics)} sync "
        f"STICs and {async_ratio:.2f}x on {len(cells)} async cells, "
        "bit-identical outcomes on every cell of both grids"
    )
    emit(record)
    assert sync_ratio >= 1.0, (legacy_s, unified_s)
    assert async_ratio >= 1.0, (legacy_s, unified_s)


def test_exec_core_throughput(benchmark):
    """Raw unified-core throughput on the sync grid (timing table)."""
    graph, stics, budgets = _sync_grid()
    algorithm = make_universal_algorithm(TUNED)
    compiler = TraceCompiler(
        graph,
        algorithm,
        oracle_factory=lambda s: UniversalOracle(graph, s, TUNED),
    )

    def run():
        return run_rendezvous_batch(
            graph,
            stics,
            algorithm,
            max_rounds=lambda u, v, delta: budgets[(u, v, delta)],
            compiler=compiler,
        )

    results = benchmark(run)
    assert sum(r.met for r in results) == sum(
        1 for u, v, delta in stics if classify_stic(graph, u, v, delta).feasible
    )
