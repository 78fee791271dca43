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

Each comparison times the two sides in interleaved (scalar, kernel)
pairs and asserts the median of the per-pair ratios, so one scheduler
hiccup on the millisecond kernel side cannot decide the verdict.  The
scalar sides take seconds, so each test runs :data:`_PAIRS` pairs.

Besides the pass/fail assertions, with ``--benchmark-json PATH`` every
comparison is appended to ``BENCH_symmetry.json`` next to PATH —
``{workload: {scalar_s, kernel_s, speedup}}``, per-side median times —
so the perf trajectory stays machine-readable across PRs; CI uploads
the file next to the pytest-benchmark timings.
"""

import os

import numpy as np

from conftest import emit, export_bench, paired_ratio

from repro.core.stic import enumerate_stics
from repro.core.uxs import apply_uxs, is_uxs_for_graph, uxs_for_size
from repro.experiments.records import ExperimentRecord
from repro.graphs.families import oriented_torus
from repro.graphs.random_graphs import random_connected_graph
from repro.symmetry.context import SymmetryContext, clear_context_cache
from repro.symmetry.feasibility import classify_from_symmetry
from repro.symmetry.shrink import shrink_witness_reference
from repro.symmetry.views import view_classes_reference


#: Interleaved (scalar, kernel) timing pairs per comparison.
_PAIRS = 3


def record_speedup(
    workload: str, speedup: float, scalar_s: float, kernel_s: float
) -> None:
    """Export one old-vs-new comparison (median ratio, median times)."""
    export_bench(
        "BENCH_symmetry.json",
        workload,
        {
            "scalar_s": round(scalar_s, 6),
            "kernel_s": round(kernel_s, 6),
            "speedup": round(speedup, 2),
        },
    )


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

    def scalar():
        _, values = scalar_symmetric_shrink(graph)
        verdicts = {
            (u, v, delta): classify_from_symmetry(True, s, delta)
            for (u, v), s in values.items()
            for delta in range(max_delta + 1)
        }
        return values, verdicts

    def kernel():
        clear_context_cache()  # every repeat pays for its own kernel
        matrix = SymmetryContext(graph).shrink_matrix()
        verdicts = {
            (stic.u, stic.v, stic.delta): verdict
            for stic, verdict in enumerate_stics(graph, max_delta)
        }
        return matrix, verdicts

    speedup, scalar_s, kernel_s, scalar_out, kernel_out = paired_ratio(
        scalar, kernel, _PAIRS
    )
    scalar_values, scalar_verdicts = scalar_out
    matrix, kernel_verdicts = kernel_out
    for (u, v), s in scalar_values.items():
        assert int(matrix[u, v]) == s
    assert kernel_verdicts == scalar_verdicts

    record_speedup("all_pairs_shrink_atlas_torus7x7", speedup, scalar_s, kernel_s)
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

    def scalar():
        return {
            (u, v): shrink_witness_reference(graph, u, v)[0]
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
        }

    speedup, scalar_s, kernel_s, scalar_values, matrix = paired_ratio(
        scalar, lambda: SymmetryContext(graph).shrink_all, _PAIRS
    )
    for (u, v), s in scalar_values.items():
        assert int(matrix[u, v]) == s

    record_speedup("all_pairs_shrink_random_n40", speedup, scalar_s, kernel_s)
    assert speedup >= 5.0, (scalar_s, kernel_s)


def _scalar_certification(graph, seq, starts):
    """The retained full-walk certification over ``starts``."""
    for start in starts:
        assert len(set(apply_uxs(graph, start, seq))) == graph.n
    return True


def test_uxs_certification_speedup_n10():
    """Reference Y(10) certification: vectorized >= 10x the retained
    scalar full-walk path, same verdict."""
    graph = random_connected_graph(10, 5, seed=3)
    seq = uxs_for_size(10)

    speedup, scalar_s, kernel_s, _, vectorized_ok = paired_ratio(
        lambda: _scalar_certification(graph, seq, range(graph.n)),
        lambda: is_uxs_for_graph(graph, seq),
        _PAIRS,
    )
    assert vectorized_ok  # per-start coverage asserted inside the helper

    record_speedup("uxs_certification_n10", speedup, scalar_s, kernel_s)
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
    """Y(16) certification at n=16.  In fast mode each pair's scalar
    side walks one of the first 3 starts (a strict lower bound on the
    true speedup keeps the bench under control: the full scalar walk
    takes ~40 s); set REPRO_FULL=1 for the all-starts comparison."""
    graph = oriented_torus(4, 4)
    seq = uxs_for_size(16)
    full = os.environ.get("REPRO_FULL", "") == "1"
    starts = iter([range(graph.n)] * _PAIRS if full else [[s] for s in range(_PAIRS)])

    speedup, scalar_s, kernel_s, _, vectorized_ok = paired_ratio(
        lambda: _scalar_certification(graph, seq, next(starts)),
        lambda: is_uxs_for_graph(graph, seq),
        _PAIRS,
    )
    assert vectorized_ok

    label = "uxs_certification_n16" + ("" if full else "_lower_bound")
    record_speedup(label, speedup, scalar_s, kernel_s)
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
