"""TAB-SHRINK — regenerate the Section 3 Shrink examples and time the
product-graph BFS on growing instances."""

from conftest import emit

from repro.experiments.orchestrator import run_experiment
from repro.graphs.families import (
    mirror_node,
    oriented_torus,
    symmetric_tree,
    torus_node,
)
from repro.symmetry.shrink import shrink


def test_shrink_table(benchmark, tier):
    record = benchmark(lambda: run_experiment("TAB-SHRINK", tier=tier).record)
    emit(record)
    assert record.passed


def test_shrink_torus_5x5(benchmark):
    g = oriented_torus(5, 5)
    value = benchmark(shrink, g, 0, torus_node(2, 2, 5))
    assert value == 4


def test_shrink_torus_7x7(benchmark):
    g = oriented_torus(7, 7)
    value = benchmark(shrink, g, 0, torus_node(3, 3, 7))
    assert value == 6


def test_shrink_mirror_tree_depth4(benchmark):
    g = symmetric_tree(2, 4)
    leaf = g.n // 2 - 1
    value = benchmark(shrink, g, leaf, mirror_node(leaf, 2, 4))
    assert value == 1
