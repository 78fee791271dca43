"""Symmetry kernel + vectorized UXS engine vs the retained scalar paths.

The PR-3 acceptance benchmarks:

* all-pairs Shrink and full-atlas STIC classification on the 7x7
  oriented torus must be >= 5x faster through ``SymmetryContext`` than
  through the scalar per-pair loop (``view_classes_reference`` +
  ``shrink_witness_reference``), bit-identical values;
* all-pairs Shrink on an n=40 random graph (no symmetry to skip, so
  the scalar loop runs one product-graph BFS per pair) >= 5x;
* UXS certification (:func:`is_uxs_for_graph`) of the reference
  ``Y(n)`` at n in {10, 16} must be >= 10x faster vectorized than the
  retained full-walk scalar certification.

Besides the pass/fail assertions, with ``--benchmark-json PATH`` every
comparison is appended to ``BENCH_symmetry.json`` next to PATH —
``{workload: {scalar_s, kernel_s, speedup}}`` — so the perf trajectory
stays machine-readable across PRs; CI uploads the file next to the
pytest-benchmark timings.
"""

import os
import time

import numpy as np

from conftest import emit, export_bench

from repro.core.stic import enumerate_stics
from repro.core.uxs import apply_uxs, is_uxs_for_graph, uxs_for_size
from repro.experiments.records import ExperimentRecord
from repro.graphs.families import oriented_torus
from repro.graphs.random_graphs import random_connected_graph
from repro.symmetry.context import SymmetryContext
from repro.symmetry.feasibility import classify_from_symmetry
from repro.symmetry.shrink import shrink_witness_reference
from repro.symmetry.views import view_classes_reference


def record_speedup(workload: str, scalar_s: float, kernel_s: float) -> float:
    """Export one old-vs-new timing; returns the speedup."""
    speedup = scalar_s / kernel_s if kernel_s > 0 else float("inf")
    export_bench(
        "BENCH_symmetry.json",
        workload,
        {
            "scalar_s": round(scalar_s, 6),
            "kernel_s": round(kernel_s, 6),
            "speedup": round(speedup, 2),
        },
    )
    return speedup


def scalar_symmetric_shrink(graph):
    """The pre-kernel path: scalar colors once, one BFS per symmetric
    pair (what ``shrink_matrix`` / ``enumerate_stics`` used to do)."""
    colors = view_classes_reference(graph)
    return colors, {
        (u, v): shrink_witness_reference(graph, u, v)[0]
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if colors[u] == colors[v]
    }


def test_all_pairs_shrink_and_atlas_torus():
    """7x7 torus (1176 symmetric pairs): >= 5x on all-pairs Shrink and
    on classifying the full STIC atlas, identical outputs."""
    graph = oriented_torus(7, 7)
    max_delta = 6

    t0 = time.perf_counter()
    colors, scalar_values = scalar_symmetric_shrink(graph)
    scalar_verdicts = {
        (u, v, delta): classify_from_symmetry(True, s, delta)
        for (u, v), s in scalar_values.items()
        for delta in range(max_delta + 1)
    }
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    context = SymmetryContext(graph)
    matrix = context.shrink_matrix()
    kernel_verdicts = {
        (stic.u, stic.v, stic.delta): verdict
        for stic, verdict in enumerate_stics(graph, max_delta)
    }
    kernel_s = time.perf_counter() - t0

    for (u, v), s in scalar_values.items():
        assert int(matrix[u, v]) == s
    assert kernel_verdicts == scalar_verdicts

    speedup = record_speedup("all_pairs_shrink_atlas_torus7x7", scalar_s, kernel_s)
    record = ExperimentRecord(
        exp_id="BENCH-SYMKERNEL",
        title="All-pairs Shrink + atlas classification: kernel vs scalar loop",
        paper_claim=(
            "one value iteration on the n^2-state product graph solves "
            "every pair's Shrink at once (Definition 3.1), so the "
            "Corollary 3.1 atlas needs no per-pair BFS"
        ),
        columns=["graph", "pairs", "scalar s", "kernel s", "speedup"],
    )
    record.add_row(
        graph="torus 7x7",
        pairs=len(scalar_values),
        **{
            "scalar s": round(scalar_s, 3),
            "kernel s": round(kernel_s, 3),
            "speedup": round(speedup, 1),
        },
    )
    record.passed = speedup >= 5.0
    record.measured_summary = (
        f"{len(scalar_values)} symmetric pairs classified {speedup:.0f}x "
        "faster through SymmetryContext, bit-identical Shrink and verdicts"
    )
    emit(record)
    assert speedup >= 5.0, (scalar_s, kernel_s)


def test_all_pairs_shrink_random_n40():
    """n=40 random graph: every-pair Shrink (the kernel's shrink_all)
    vs one scalar BFS per pair; >= 5x, identical values."""
    graph = random_connected_graph(40, 20, seed=5)

    t0 = time.perf_counter()
    scalar_values = {
        (u, v): shrink_witness_reference(graph, u, v)[0]
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
    }
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    matrix = SymmetryContext(graph).shrink_all
    kernel_s = time.perf_counter() - t0

    for (u, v), s in scalar_values.items():
        assert int(matrix[u, v]) == s

    speedup = record_speedup("all_pairs_shrink_random_n40", scalar_s, kernel_s)
    assert speedup >= 5.0, (scalar_s, kernel_s)


def _scalar_certification_seconds(graph, seq, starts):
    """Time the retained full-walk certification over ``starts``."""
    t0 = time.perf_counter()
    for start in starts:
        assert len(set(apply_uxs(graph, start, seq))) == graph.n
    return time.perf_counter() - t0


def test_uxs_certification_speedup_n10():
    """Reference Y(10) certification: vectorized >= 10x the retained
    scalar full-walk path, same verdict."""
    graph = random_connected_graph(10, 5, seed=3)
    seq = uxs_for_size(10)

    t0 = time.perf_counter()
    vectorized_ok = is_uxs_for_graph(graph, seq)
    kernel_s = time.perf_counter() - t0
    scalar_s = _scalar_certification_seconds(graph, seq, range(graph.n))
    assert vectorized_ok  # per-start coverage asserted inside the helper

    speedup = record_speedup("uxs_certification_n10", scalar_s, kernel_s)
    record = ExperimentRecord(
        exp_id="BENCH-UXSVEC",
        title="UXS certification: vectorized multi-start walk vs scalar",
        paper_claim=(
            "Y(n) has 48 n^3 ceil(log2(n+1)) terms; certifying coverage "
            "from every start is the O(n^4 log n) scalar bottleneck the "
            "dart-table walk collapses to one gather per term"
        ),
        columns=["n", "terms", "scalar s", "vectorized s", "speedup"],
    )
    record.add_row(
        n=10,
        terms=len(seq),
        **{
            "scalar s": round(scalar_s, 3),
            "vectorized s": round(kernel_s, 4),
            "speedup": round(speedup, 1),
        },
    )
    record.passed = speedup >= 10.0
    record.measured_summary = (
        f"Y(10) certified from all starts {speedup:.0f}x faster than the "
        "retained scalar full-walk certification"
    )
    emit(record)
    assert speedup >= 10.0, (scalar_s, kernel_s)


def test_uxs_certification_speedup_n16():
    """Y(16) certification at n=16.  In fast mode the scalar side walks
    3 of the 16 starts (a strict lower bound on the true speedup keeps
    the bench under control: the full scalar walk takes ~40 s); set
    REPRO_FULL=1 for the all-starts comparison."""
    graph = oriented_torus(4, 4)
    seq = uxs_for_size(16)
    full = os.environ.get("REPRO_FULL", "") == "1"
    starts = range(graph.n) if full else range(3)

    t0 = time.perf_counter()
    assert is_uxs_for_graph(graph, seq)
    kernel_s = time.perf_counter() - t0
    scalar_s = _scalar_certification_seconds(graph, seq, starts)

    label = "uxs_certification_n16" + ("" if full else "_lower_bound")
    speedup = record_speedup(label, scalar_s, kernel_s)
    assert speedup >= 10.0, (scalar_s, kernel_s)


def test_kernel_construction_torus(benchmark):
    """Raw kernel cost (colors + distances + all-pairs Shrink) on the
    7x7 torus, for the pytest-benchmark timing table."""

    def build():
        context = SymmetryContext(oriented_torus(7, 7))
        return context.shrink_all

    matrix = benchmark(build)
    assert int(matrix.max()) >= 1
    assert np.array_equal(matrix, matrix.T)
