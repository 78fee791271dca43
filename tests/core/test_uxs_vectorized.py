"""Differential suite: the vectorized UXS engine against the scalar
definitions.

Three layers must be bit-identical:

* **stream generation** — :func:`generate_offset_stream` against a
  literal :class:`SplitMix64` ``randrange`` loop (including the
  rejection-sampling path and power-of-two bounds, where the scalar
  sampler never rejects);
* **application** — :func:`apply_uxs_all` rows against per-start
  :func:`apply_uxs`, over random graphs and the exhaustive ``n <= 4``
  class;
* **certification** — :func:`is_uxs_for_graph` (vectorized) against
  the retained full-walk :func:`is_uxs_for_graph_scalar`, on covering
  and non-covering sequences.

Plus the ``covers_from`` early-exit regression: certification cost
(steps walked) stops growing once coverage is reached, however long
the sequence.
"""

import numpy as np
import pytest

from repro.core.profile import _tuned_uxs
from repro.core.uxs import (
    _cover_steps,
    apply_uxs,
    covers_from,
    is_uxs_for_graph,
    is_uxs_for_graph_scalar,
    uxs_for_size,
    uxs_length,
)
from repro.exec.uxs import (
    apply_uxs_all,
    covered_counts,
    generate_offset_stream,
    is_uxs_for_graph_vectorized,
)
from repro.graphs.enumeration import enumerate_port_labeled_graphs
from repro.graphs.families import (
    oriented_ring,
    oriented_torus,
    path_graph,
    star_graph,
    two_node_graph,
)
from repro.graphs.random_graphs import random_connected_graph
from repro.util.lcg import SplitMix64, derive_seed, splitmix64_block

RANDOM_GRAPHS = [
    random_connected_graph(n, extra, seed=seed)
    for n in (2, 4, 5, 7, 9, 12)
    for extra in (0, 3)
    for seed in (1, 5)
]
STRUCTURED_GRAPHS = [
    two_node_graph(),
    path_graph(5),
    star_graph(4),
    oriented_ring(8),
    oriented_torus(3, 3),
]


def scalar_stream(seed, bound, length):
    rng = SplitMix64(seed)
    return [rng.randrange(bound) for _ in range(length)]


# ---------------------------------------------------------------------------
# Stream generation
# ---------------------------------------------------------------------------
def test_splitmix_block_matches_scalar_generator():
    for seed in (0, 1, 42, 2**64 - 3, derive_seed("uxs", 9)):
        reference = SplitMix64(seed)
        expected = [reference.next_u64() for _ in range(200)]
        block = splitmix64_block(seed, 0, 200)
        assert [int(x) for x in block] == expected
        # Arbitrary offsets splice into the same stream.
        tail = splitmix64_block(seed, 150, 50)
        assert [int(x) for x in tail] == expected[150:]


@pytest.mark.parametrize(
    "bound",
    [1, 2, 3, 5, 7, 10, 16, 20, 64, 1000],  # 2, 16, 64: no-rejection path
)
def test_offset_stream_matches_scalar_randrange(bound):
    for seed in (7, derive_seed("uxs", 5), derive_seed("uxs-tuned", 6, 12)):
        vectorized = generate_offset_stream(seed, bound, 3000)
        assert [int(x) for x in vectorized] == scalar_stream(seed, bound, 3000)


def test_offset_stream_is_prefix_stable():
    seed = derive_seed("uxs", 11)
    long = generate_offset_stream(seed, 22, 5000)
    short = generate_offset_stream(seed, 22, 1234)
    assert np.array_equal(long[:1234], short)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_uxs_for_size_matches_scalar_loop(n):
    expected = scalar_stream(derive_seed("uxs", n), max(2 * n, 2), uxs_length(n))
    assert list(uxs_for_size(n)) == expected


def test_tuned_uxs_matches_scalar_loop():
    for n, scale in ((4, 12), (6, 12), (5, 3)):
        expected = scalar_stream(
            derive_seed("uxs-tuned", n, scale), max(2 * n, 2), scale * n * n
        )
        assert list(_tuned_uxs(n, scale)) == expected


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------
def random_sequence(seed, bound, length):
    rng = SplitMix64(seed)
    return tuple(rng.randrange(bound) for _ in range(length))


@pytest.mark.parametrize("graph", RANDOM_GRAPHS + STRUCTURED_GRAPHS, ids=repr)
def test_apply_uxs_all_matches_scalar_rows(graph):
    seq = random_sequence(derive_seed("vec-apply", graph.n), 2 * graph.n, 400)
    matrix = apply_uxs_all(graph, seq)
    assert matrix.shape == (graph.n, len(seq) + 2)
    for start in range(graph.n):
        assert list(matrix[start]) == apply_uxs(graph, start, seq)


def test_apply_uxs_all_exhaustive_small_class():
    for n in (2, 3, 4):
        seq = random_sequence(derive_seed("vec-apply-ex", n), 2 * n, 48)
        for graph in enumerate_port_labeled_graphs(n):
            matrix = apply_uxs_all(graph, seq)
            for start in range(n):
                assert list(matrix[start]) == apply_uxs(graph, start, seq)


def test_covered_counts_match_scalar_visit_sets():
    for graph in RANDOM_GRAPHS:
        seq = random_sequence(derive_seed("vec-cover", graph.n), 2 * graph.n, 300)
        counts = covered_counts(graph, seq)
        for start in range(graph.n):
            assert int(counts[start]) == len(set(apply_uxs(graph, start, seq)))


def test_huge_offsets_stay_cheap_and_bit_identical():
    """Offsets only matter modulo the local degree, so terms like 10^9
    are legal UXS input; the vectorized walk must neither allocate a
    symbol table proportional to the value (regression: it used to
    size the table to max(seq)+1) nor diverge from the scalar walk."""
    graph = oriented_ring(6)
    seq = (10**9, 3, 10**15 + 7, 0, 123456789, 5, 2)
    matrix = apply_uxs_all(graph, seq)
    for start in range(graph.n):
        assert list(matrix[start]) == apply_uxs(graph, start, seq)
    counts = covered_counts(graph, seq)
    for start in range(graph.n):
        assert int(counts[start]) == len(set(apply_uxs(graph, start, seq)))
    assert is_uxs_for_graph_vectorized(graph, seq * 40) == is_uxs_for_graph_scalar(
        graph, seq * 40
    )


def test_covered_counts_chunk_size_is_observationally_neutral():
    graph = random_connected_graph(9, 4, seed=2)
    seq = random_sequence(3, 2 * graph.n, 700)
    baseline = covered_counts(graph, seq)
    for chunk in (1, 7, 64, 4096):
        assert np.array_equal(covered_counts(graph, seq, chunk=chunk), baseline)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("graph", RANDOM_GRAPHS + STRUCTURED_GRAPHS, ids=repr)
def test_certification_matches_scalar(graph):
    n = graph.n
    # Short prefixes straddle the covering threshold; the scalar and
    # vectorized verdicts must agree on every one of them.
    full = random_sequence(derive_seed("vec-cert", n), 2 * n, 64 * n)
    for length in (0, 1, n, 4 * n, len(full)):
        seq = full[:length]
        assert is_uxs_for_graph_vectorized(graph, seq) == is_uxs_for_graph_scalar(
            graph, seq
        )
    assert is_uxs_for_graph(graph, full) == is_uxs_for_graph_scalar(graph, full)


def test_certification_full_reference_sequence_small_n():
    for graph in (oriented_ring(5), random_connected_graph(6, 2, seed=8)):
        seq = uxs_for_size(graph.n)
        assert is_uxs_for_graph(graph, seq)
        assert is_uxs_for_graph_scalar(graph, seq)


def test_single_node_graph_is_trivially_covered():
    from repro.graphs.port_graph import PortLabeledGraph

    g = PortLabeledGraph(1, [])
    assert is_uxs_for_graph_vectorized(g, (0, 1, 0))
    assert covers_from(g, 0, (0, 1, 0))
    assert np.array_equal(covered_counts(g, (0, 1)), np.ones(1, dtype=np.int64))


# ---------------------------------------------------------------------------
# covers_from early exit (regression)
# ---------------------------------------------------------------------------
def test_covers_from_cost_stops_growing_once_covered():
    """Doubling (or 10x-ing) an already-covering sequence must not
    change the number of steps the scalar certifier walks."""
    graph = oriented_torus(3, 3)
    seq = uxs_for_size(graph.n)
    for start in range(graph.n):
        covered, steps = _cover_steps(graph, start, seq)
        assert covered
        assert steps < len(seq)  # the early exit actually fired
        covered2, steps2 = _cover_steps(graph, start, tuple(seq) + tuple(seq))
        covered10, steps10 = _cover_steps(graph, start, tuple(seq) * 10)
        assert (covered2, steps2) == (True, steps)
        assert (covered10, steps10) == (True, steps)


def test_covers_from_non_covering_prefix_still_walks_everything():
    graph = oriented_ring(8)
    # A sequence of all-zero offsets bounces between two nodes: never
    # covers, and the walk must consume the entire sequence.
    seq = (0,) * 37
    covered, steps = _cover_steps(graph, 0, seq)
    assert not covered
    assert steps == len(seq) + 1
    assert not covers_from(graph, 0, seq)
    assert not is_uxs_for_graph_vectorized(graph, seq)
    assert not is_uxs_for_graph_scalar(graph, seq)
