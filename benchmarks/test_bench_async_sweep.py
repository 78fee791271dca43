"""Batched (pair x schedule) async sweep vs the scalar adversary loop.

The PR-2 acceptance benchmark: sweeping UniversalRV over every
symmetric pair of a ring against a battery of adversary schedules (the
``async_feasibility_atlas`` workload) must be at least 3x faster
through :func:`run_schedule_sweep` than through a scalar
:func:`run_schedule_adversary` loop, with bit-identical outcomes.  The
engine compiles each start node's traversal trace once and answers
every (partner, schedule) question against it, so the win grows with
the number of cells per start node.
"""

from conftest import emit, paired_ratio

from repro.core import make_universal_algorithm
from repro.core.profile import tuned_profile
from repro.experiments.records import ExperimentRecord
from repro.graphs import oriented_ring
from repro.sim.schedule_adversary import (
    EagerSchedule,
    FixedDelaySchedule,
    MirrorSchedule,
    RandomSchedule,
    run_schedule_adversary,
    run_schedule_sweep,
)
from repro.symmetry import symmetric_pairs

#: Interleaved (scalar, batch) timing pairs; the assert uses the median
#: per-pair ratio, so one scheduler stall cannot decide it.
_PAIRS = 3


def _grid(graph):
    """A ≥200-cell symmetric-pair x schedule grid."""
    schedules = [
        MirrorSchedule(),
        EagerSchedule(),
        FixedDelaySchedule(2),
        RandomSchedule(0),
        RandomSchedule(1),
    ]
    pairs = symmetric_pairs(graph)
    return [(u, v, s) for u, v in pairs for s in schedules]


def _run_both(graph, max_events):
    """Median per-pair scalar/batch time ratio over ``_PAIRS``
    interleaved pairs, after checking the two sides agree."""
    cells = _grid(graph)
    algorithm = make_universal_algorithm(
        tuned_profile(view_mode="faithful", name="bench-async")
    )

    def batch_side():
        return run_schedule_sweep(graph, cells, algorithm, max_events=max_events)

    def scalar_side():
        return [
            run_schedule_adversary(graph, u, v, algorithm, s, max_events=max_events)
            for u, v, s in cells
        ]

    speedup, scalar_s, batch_s, scalar, batch = paired_ratio(
        scalar_side, batch_side, _PAIRS
    )
    for (u, v, s), got, ref in zip(cells, batch, scalar):
        assert got == ref, (u, v, s.name, got, ref)
    return len(cells), speedup, batch_s, scalar_s


def test_async_sweep_speedup():
    """>= 3x on a 225-cell ring grid, identical outcomes per cell."""
    record = ExperimentRecord(
        exp_id="BENCH-ASYNC",
        title="Batched schedule sweep vs scalar adversary loop (UniversalRV)",
        paper_claim=(
            "waits are collapsed asynchronously, so an agent's traversal "
            "sequence is schedule-independent: one compiled trace per "
            "start serves every adversary of the grid"
        ),
        columns=["graph", "cells", "scalar s", "batch s", "speedup"],
    )
    graph = oriented_ring(10)
    count, speedup, batch_s, scalar_s = _run_both(graph, max_events=1200)
    assert count >= 200, count
    record.add_row(
        graph="ring n=10",
        cells=count,
        **{
            "scalar s": round(scalar_s, 3),
            "batch s": round(batch_s, 3),
            "speedup": round(speedup, 1),
        },
    )
    record.passed = speedup >= 3.0
    record.measured_summary = (
        f"{count}-cell symmetric-pair x schedule grid ran {speedup:.1f}x "
        f"faster batched (median of {_PAIRS} interleaved pairs), "
        "bit-identical outcomes on every cell"
    )
    emit(record)
    assert speedup >= 3.0, (speedup, scalar_s, batch_s)


def test_async_sweep_throughput(benchmark):
    """Raw engine throughput on the ring grid, for the timing table."""
    graph = oriented_ring(10)
    cells = _grid(graph)
    algorithm = make_universal_algorithm(
        tuned_profile(view_mode="faithful", name="bench-async-tp")
    )

    def run():
        return run_schedule_sweep(graph, cells, algorithm, max_events=1200)

    results = benchmark(run)
    assert len(results) == len(cells)
    # Mirror cells never produce a node meeting from symmetric starts.
    assert not any(
        out.met for (u, v, s), out in zip(cells, results) if s.name == "mirror"
    )
