"""Differential suite: the sparse/blocked kernel paths vs the dense
kernel and the scalar references.

Every blocked engine must be *bit-identical* to its dense counterpart:
``distances_block`` / the CSR ``distances_from`` BFS vs the scalar
reference BFS, ``shrink_pairs`` / ``shrink_all_into`` (any block size,
including a memory-mapped output) vs the dense all-pairs matrix, and
the color-bucketed ``symmetric_pairs``/``orbits`` vs the dense-mask
construction.  Coverage: 200+ seeded random connected graphs of mixed
sizes and degrees, plus the exhaustive class of all port-labeled graphs
on ``n <= 4`` nodes.

The scale-path specifics get their own cases: ``shrink_pairs`` with
its deferred minimum truncated at ``dist(u, v) - 1`` on symmetric
graphs whose BFS the truncation really cuts, ``_bfs_block`` at a
``max_level``, ``shrink_pairs`` served from a materialized distance
matrix, and the folded 1-D refinement codes on mixed-degree graphs.

The byte-aware context-cache LRU (:func:`set_context_cache_limit`) is
unit-tested here too: eviction accounting, lazy-growth re-enforcement,
and the most-recently-served survivor guarantee.
"""

import numpy as np
import pytest

import repro.symmetry.context as context_module
from repro.experiments.scenarios import build_graph
from repro.graphs.enumeration import enumerate_port_labeled_graphs
from repro.graphs.families import (
    hypercube,
    oriented_ring,
    oriented_torus,
    path_graph,
    star_graph,
    symmetric_tree,
)
from repro.graphs.random_graphs import random_connected_graph, random_tree
from repro.symmetry.context import (
    SymmetryContext,
    clear_context_cache,
    context_cache_bytes,
    set_context_cache_limit,
    symmetry_context,
)
from repro.symmetry.views import view_classes_reference


def random_pool():
    """216+ seeded random connected graphs, mixed sizes and degrees."""
    graphs = []
    for n in (2, 3, 5, 6, 8, 10, 13):
        for extra in (0, 1, 3, 6):
            for seed in range(7):
                graphs.append(random_connected_graph(n, extra, seed=seed))
    for n in (4, 9):
        for seed in range(10):
            graphs.append(random_tree(n, seed=seed))
    return graphs


STRUCTURED = [
    oriented_ring(6),
    oriented_ring(9),
    oriented_torus(3, 4),
    hypercube(3),
    symmetric_tree(2, 2),
]


def reference_distance_matrix(graph):
    """All-pairs distances straight from the retained scalar BFS."""
    return np.stack(
        [graph.distances_from_reference(v) for v in range(graph.n)]
    )


def reference_pairs_and_orbits(colors):
    """Symmetric pairs and orbits via the historical dense-mask path."""
    colors = np.asarray(colors)
    n = len(colors)
    mask = colors[:, None] == colors[None, :]
    iu, iv = np.triu_indices(n, k=1)
    keep = mask[iu, iv]
    pairs = list(zip(iu[keep].tolist(), iv[keep].tolist()))
    orbits = [
        np.flatnonzero(colors == c).tolist()
        for c in range(int(colors.max()) + 1 if n else 0)
    ]
    return pairs, orbits


def assert_blocked_matches(graph):
    """One graph through every blocked engine, against dense + scalar."""
    n = graph.n
    dense = SymmetryContext(graph)
    reference_dist = reference_distance_matrix(graph)
    assert np.array_equal(dense.distances, reference_dist)
    shrink_dense = dense.shrink_all

    # CSR single-source BFS vs the retained scalar BFS.
    for source in range(n):
        assert np.array_equal(
            graph.distances_from(source),
            graph.distances_from_reference(source),
        )

    # Fresh context: nothing dense cached, so every call below runs the
    # blocked engines for real.
    blocked = SymmetryContext(graph)
    rows = np.arange(n, dtype=np.int64)[::-1]  # odd order on purpose
    assert np.array_equal(blocked.distances_block(rows), reference_dist[rows])
    assert np.array_equal(
        blocked.distances_block([n - 1]), reference_dist[[n - 1]]
    )

    # Batched per-pair product BFS over every ordered pair, in a chunk
    # size that forces several batches.
    us = np.repeat(np.arange(n, dtype=np.int64), n)
    vs = np.tile(np.arange(n, dtype=np.int64), n)
    assert np.array_equal(
        blocked.shrink_pairs(us, vs, pair_chunk=5).reshape(n, n),
        shrink_dense,
    )

    # Blocked worklist value iteration, ragged and degenerate blocks.
    for block_size in (1, 3, n, n + 5):
        assert np.array_equal(
            blocked.shrink_all_into(block_size=block_size), shrink_dense
        )

    # Color-bucketed pairs/orbits vs the dense-mask reference.
    pairs, orbits = reference_pairs_and_orbits(dense.colors)
    assert blocked.symmetric_pairs() == pairs
    assert blocked.orbits() == orbits
    pair_us, pair_vs = blocked.symmetric_pair_arrays()
    assert list(zip(pair_us.tolist(), pair_vs.tolist())) == pairs


@pytest.mark.parametrize("index", range(13))
def test_random_graphs_blocked_bit_identical(index):
    """>= 200 random graphs, sharded for parallel-friendly runtimes."""
    pool = random_pool()
    assert len(pool) >= 200
    for graph in pool[index::13]:
        assert_blocked_matches(graph)


@pytest.mark.parametrize("graph", STRUCTURED, ids=lambda g: repr(g))
def test_structured_families_blocked_bit_identical(graph):
    assert_blocked_matches(graph)


def test_distances_from_matches_reference_on_1e4_random_regular():
    """The owner-deduplicated single-source BFS at scale: frontiers of
    thousands of nodes with many repeated targets per level."""
    graph = build_graph(
        {"family": "random_regular", "n": 10_000, "degree": 3, "seed": 2}
    )
    for source in (0, 4_321, 9_999):
        assert np.array_equal(
            graph.distances_from(source), graph.distances_from_reference(source)
        )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_tiny_classes_blocked(n):
    for graph in enumerate_port_labeled_graphs(n):
        assert_blocked_matches(graph)


def test_exhaustive_n4_class_blocked():
    """All 2568 port-labeled graphs on 4 nodes: the blocked engines and
    the dense kernel agree everywhere."""
    count = 0
    for graph in enumerate_port_labeled_graphs(4):
        count += 1
        context = SymmetryContext(graph)
        n = graph.n
        reference_dist = reference_distance_matrix(graph)
        # Blocked calls first (nothing cached), dense afterwards.
        block_dist = context.distances_block(range(n))
        us = np.repeat(np.arange(n, dtype=np.int64), n)
        vs = np.tile(np.arange(n, dtype=np.int64), n)
        pair_values = context.shrink_pairs(us, vs, pair_chunk=3).reshape(n, n)
        iterated = context.shrink_all_into(block_size=2)
        assert np.array_equal(block_dist, reference_dist)
        assert np.array_equal(context.distances, reference_dist)
        assert np.array_equal(pair_values, context.shrink_all)
        assert np.array_equal(iterated, context.shrink_all)
    assert count == 2568


def test_shrink_all_into_memmap(tmp_path):
    """A memory-mapped output array receives the exact dense matrix."""
    for graph in (oriented_ring(9), random_connected_graph(10, 4, seed=3)):
        n = graph.n
        out = np.lib.format.open_memmap(
            tmp_path / f"shrink-{n}.npy",
            mode="w+",
            dtype=np.int64,
            shape=(n, n),
        )
        SymmetryContext(graph).shrink_all_into(out, block_size=4)
        out.flush()
        on_disk = np.load(tmp_path / f"shrink-{n}.npy")
        assert np.array_equal(on_disk, SymmetryContext(graph).shrink_all)


def test_blocked_api_validation():
    context = SymmetryContext(oriented_ring(6))
    with pytest.raises(ValueError, match="distance rows must lie in 0..5"):
        context.distances_block([6])
    with pytest.raises(ValueError, match="pair endpoints must lie in 0..5"):
        context.shrink_pairs([0], [17])
    with pytest.raises(ValueError, match="equal length"):
        context.shrink_pairs([0, 1], [2])
    with pytest.raises(ValueError, match="pair_chunk must be positive"):
        context.shrink_pairs([0], [1], pair_chunk=0)
    with pytest.raises(ValueError, match="block_size must be positive"):
        context.shrink_all_into(block_size=0)
    with pytest.raises(ValueError, match="out must be an int64 array"):
        context.shrink_all_into(np.zeros((6, 6), dtype=np.int32))


def test_shrink_pairs_state_budget_is_enforced():
    """Ring pairs have Theta(n) product reach and never hit the
    diagonal early, so a tiny budget must trip the cap — with the
    actionable message, not a silent wrong answer."""
    context = SymmetryContext(oriented_ring(12))
    with pytest.raises(ValueError, match="state budget exceeded"):
        context.shrink_pairs([0], [6], state_budget=2)
    # A sane budget on the same pair still lands the exact value.
    value = context.shrink_pairs([0], [6], state_budget=10_000)
    assert np.array_equal(value, [6])


# ----------------------------------------------------------------------
# Truncated deferred minimum, max_level BFS, folded refinement codes
# ----------------------------------------------------------------------

#: Vertex-transitive graphs with real Shrink values at every offset,
#: large enough that dist(0, v) - 1 stays below node 0's eccentricity.
TRANSLATION_SPECS = [
    {"family": "oriented_torus", "rows": 24, "cols": 24},
    {"family": "circulant", "n": 120, "steps": [1, 11]},
    {
        "family": "cayley_abelian",
        "moduli": [10, 12],
        "generators": [[1, 0], [0, 1], [3, 4]],
    },
]


@pytest.mark.parametrize(
    "spec", TRANSLATION_SPECS, ids=[spec["family"] for spec in TRANSLATION_SPECS]
)
def test_truncated_shrink_pairs_every_offset(spec, monkeypatch):
    """``shrink_pairs`` from node 0 to every other node equals the
    dense kernel's row 0, and the deferred rows really were truncated
    below node 0's eccentricity on the way."""
    graph = build_graph(spec)
    n = graph.n
    dense = SymmetryContext(graph).shrink_all
    eccentricity = int(graph.distances_from(0).max())

    levels = []
    original = SymmetryContext._bfs_block

    def spy(self, sources, max_level=None):
        levels.append(max_level)
        return original(self, sources, max_level)

    monkeypatch.setattr(SymmetryContext, "_bfs_block", spy)
    vs = np.arange(1, n, dtype=np.int64)
    us = np.zeros_like(vs)
    assert np.array_equal(SymmetryContext(graph).shrink_pairs(us, vs), dense[0, 1:])
    assert np.array_equal(
        SymmetryContext(graph).shrink_pairs(us[:40], vs[:40], pair_chunk=5),
        dense[0, 1:41],
    )
    truncated = [level for level in levels if level is not None]
    assert truncated and min(truncated) < eccentricity - 1


@pytest.mark.parametrize(
    "graph",
    [
        oriented_torus(24, 24),
        path_graph(9),
        star_graph(5),
        random_connected_graph(30, 12, seed=4),
        random_tree(17, seed=2),
    ],
    ids=repr,
)
def test_bfs_block_max_level_truncates_full_rows(graph):
    """``_bfs_block(rows, max_level=k)`` is the full block with every
    entry farther than ``k`` reset to ``-1``."""
    context = SymmetryContext(graph)
    rows = np.arange(graph.n, dtype=np.int64)[::-3]
    full = context._bfs_block(rows)
    eccentricity = int(full.max())
    for k in sorted({0, 1, eccentricity - 1, eccentricity}):
        expected = np.where(full > k, -1, full)
        assert np.array_equal(context._bfs_block(rows, max_level=k), expected), k


@pytest.mark.parametrize(
    "graph",
    [oriented_torus(9, 9), oriented_ring(15), random_connected_graph(13, 6, seed=1)],
    ids=repr,
)
def test_shrink_pairs_from_materialized_distances(graph):
    """With the dense distance matrix already cached, the deferred
    minimum reads whole rows from it and still lands the exact values."""
    n = graph.n
    expected = SymmetryContext(graph).shrink_all
    context = SymmetryContext(graph)
    context.distances
    us = np.repeat(np.arange(n, dtype=np.int64), n)
    vs = np.tile(np.arange(n, dtype=np.int64), n)
    assert np.array_equal(
        context.shrink_pairs(us, vs, pair_chunk=16).reshape(n, n), expected
    )


def mixed_degree_graphs():
    graphs = [path_graph(7), star_graph(4), symmetric_tree(2, 3), symmetric_tree(3, 2)]
    graphs += [random_tree(n, seed=seed) for n in (6, 11, 19) for seed in range(4)]
    graphs += [
        random_connected_graph(n, extra, seed=seed)
        for n in (7, 12, 20)
        for extra in (1, 4)
        for seed in range(3)
    ]
    return [g for g in graphs if int(g.degrees.min()) < int(g.degrees.max())]


def test_folded_colors_match_reference_on_mixed_degrees():
    """The folded 1-D refinement codes equal the scalar refinement on
    graphs whose signature rows carry ``-1`` padding."""
    graphs = mixed_degree_graphs()
    assert len(graphs) >= 30
    for graph in graphs:
        assert SymmetryContext(graph).color_list() == view_classes_reference(graph)


# ----------------------------------------------------------------------
# Byte-aware context-cache LRU
# ----------------------------------------------------------------------


@pytest.fixture
def isolated_cache():
    previous = set_context_cache_limit(1 << 40)
    clear_context_cache()
    try:
        yield
    finally:
        clear_context_cache()
        set_context_cache_limit(previous)


def _bare_bytes(n):
    """Retained bytes of a freshly built (nothing-dense) context."""
    return context_module._ENTRY_OVERHEAD_BYTES + n * 8


def test_retained_bytes_accounting(isolated_cache):
    graph = oriented_ring(6)
    context = SymmetryContext(graph)
    assert context.retained_bytes() == _bare_bytes(6)
    context.distances
    assert context.retained_bytes() == _bare_bytes(6) + 6 * 6 * 8
    context.shrink_all
    assert context.retained_bytes() == _bare_bytes(6) + 2 * 6 * 6 * 8


def test_cache_bytes_sum_and_clear(isolated_cache):
    assert context_cache_bytes() == 0
    symmetry_context(oriented_ring(6))
    symmetry_context(oriented_ring(7))
    assert context_cache_bytes() == _bare_bytes(6) + _bare_bytes(7)
    clear_context_cache()
    assert context_cache_bytes() == 0


def test_byte_lru_evicts_least_recently_used(isolated_cache):
    set_context_cache_limit(2 * _bare_bytes(8) + 64)
    first = symmetry_context(oriented_ring(6))
    second = symmetry_context(oriented_ring(7))
    # Touch `first` so `second` is now least recently used.
    assert symmetry_context(oriented_ring(6)) is first
    third = symmetry_context(oriented_ring(8))
    assert symmetry_context(oriented_ring(8)) is third
    assert symmetry_context(oriented_ring(6)) is first
    # `second` was evicted: a fresh lookup rebuilds it.
    assert symmetry_context(oriented_ring(7)) is not second


def test_lazy_growth_is_reenforced_on_next_lookup(isolated_cache):
    set_context_cache_limit(2 * _bare_bytes(7) + 64)
    small = symmetry_context(oriented_ring(6))
    grower = symmetry_context(oriented_ring(7))
    assert context_cache_bytes() <= 2 * _bare_bytes(7) + 64
    # Dense materialization grows the entry *after* insertion...
    grower.shrink_all
    assert context_cache_bytes() > 2 * _bare_bytes(7) + 64
    # ...and the next lookup re-enforces the budget, evicting the LRU
    # entry (`small`) while keeping the just-served context.
    assert symmetry_context(oriented_ring(7)) is grower
    assert symmetry_context(oriented_ring(6)) is not small


def test_most_recent_context_survives_tiny_limit(isolated_cache):
    set_context_cache_limit(1)
    first = symmetry_context(oriented_ring(6))
    assert symmetry_context(oriented_ring(6)) is first
    assert len(context_module._CONTEXT_CACHE) == 1
    second = symmetry_context(oriented_ring(7))
    assert len(context_module._CONTEXT_CACHE) == 1
    assert symmetry_context(oriented_ring(7)) is second
    assert symmetry_context(oriented_ring(6)) is not first


def test_set_limit_returns_previous_and_validates(isolated_cache):
    previous = set_context_cache_limit(12345)
    assert previous == 1 << 40
    assert set_context_cache_limit(previous) == 12345
    with pytest.raises(ValueError, match="cache limit must be positive"):
        set_context_cache_limit(0)
