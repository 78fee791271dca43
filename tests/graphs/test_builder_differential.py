"""Differential and determinism suite for the array-native graph builders.

The random-graph builders draw each run of independent values in one
:meth:`SplitMix64.randrange_many` block and assign ports with array
operations.  The scalar builders they replaced are kept below, verbatim
in behaviour, as the oracle: every builder must return the same edge
tuples, in the same order, on every campaign rung, on the dense
``random_connected`` complement fallback and on ``random_regular`` seeds
that redraw.  The block sampler itself is checked draw for draw against
scalar ``randrange``, including the generator state it leaves behind.

:class:`PortLabeledGraph` identity is checked too: equality and hash
ignore edge order and orientation, the hash is a fixed digest (equal
across ``PYTHONHASHSEED`` values), and the constructor's error messages
are those of the scalar validation.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns.driver import cell_seed
from repro.campaigns.registry import CAMPAIGNS
from repro.exec.uxs import generate_offset_stream
from repro.graphs import PortLabeledGraph
from repro.graphs.random_graphs import (
    random_connected_graph,
    random_port_permutation,
    random_regular_graph,
    random_tree,
)
from repro.util.lcg import SplitMix64, derive_seed, splitmix64_block

SRC = Path(__file__).resolve().parents[2] / "src"


# ---------------------------------------------------------------------------
# The scalar oracle: the builders as they drew one value at a time
# ---------------------------------------------------------------------------


def _scalar_ports(n, pairs, rng):
    degree = [0] * n
    for a, b in pairs:
        degree[a] += 1
        degree[b] += 1
    perms = [random_port_permutation(degree[v], rng) for v in range(n)]
    counter = [0] * n
    edges = []
    for a, b in pairs:
        pa = perms[a][counter[a]]
        pb = perms[b][counter[b]]
        counter[a] += 1
        counter[b] += 1
        edges.append((a, pa, b, pb))
    return tuple(edges)


def scalar_random_tree(n, seed):
    rng = SplitMix64(derive_seed("random_tree", n, seed))
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    return _scalar_ports(n, pairs, rng)


def scalar_random_connected(n, extra_edges, seed):
    rng = SplitMix64(derive_seed("random_graph", n, extra_edges, seed))
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    present = {(min(a, b), max(a, b)) for a, b in pairs}
    max_extra = n * (n - 1) // 2 - len(present)
    budget = min(extra_edges, max_extra)
    attempts = 0
    while budget > 0 and attempts < 100 * (budget + 1):
        a = rng.randrange(n)
        b = rng.randrange(n)
        attempts += 1
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in present:
            continue
        present.add(key)
        pairs.append(key)
        budget -= 1
    fallback = budget > 0
    if fallback:
        complement = [
            (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in present
        ]
        for _ in range(budget):
            key = complement.pop(rng.randrange(len(complement)))
            present.add(key)
            pairs.append(key)
    return _scalar_ports(n, pairs, rng), fallback


def _scalar_connected(n, pairs):
    adjacency = [[] for _ in range(n)]
    for a, b in pairs:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def scalar_random_regular(n, degree, seed):
    """Returns ``(edges, attempts)``; ``attempts`` counts matchings drawn."""
    rng = SplitMix64(derive_seed("random_regular", n, degree, seed))
    stubs = [v for v in range(n) for _ in range(degree)]
    for attempt in range(1, 1001):
        for i in range(len(stubs) - 1, 0, -1):
            j = rng.randrange(i + 1)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        pairs = [(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])]
        if any(a == b for a, b in pairs) or len(set(pairs)) < len(pairs):
            continue
        if _scalar_connected(n, pairs):
            return _scalar_ports(n, pairs, rng), attempt
    raise ValueError("no simple connected matching")


# ---------------------------------------------------------------------------
# randrange_many
# ---------------------------------------------------------------------------

HUGE = 3 * 2**61  # 2**64 mod HUGE == 2**62: a quarter of raw words reject


@pytest.mark.parametrize(
    "bounds",
    [
        [],
        [1],
        list(range(1, 500)),
        list(range(3000, 1, -1)),
        [HUGE] * 400,
        [2**63 - 1, 2**62 + 1, HUGE, 7, 1, HUGE, 3] * 50,
        [5, HUGE, HUGE, 2, HUGE, 1000, HUGE] * 30,
    ],
    ids=["empty", "one", "ascending", "descending", "huge", "mixed", "interleaved"],
)
def test_randrange_many_matches_scalar_draws_and_state(bounds):
    for seed in (0, 12345, derive_seed("random_regular", 100_000, 3, 1)):
        scalar = SplitMix64(seed)
        expected = [scalar.randrange(b) for b in bounds]
        block = SplitMix64(seed)
        got = block.randrange_many(np.array(bounds, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == expected
        # Same generator state afterwards: the next words agree.
        assert [block.next_u64() for _ in range(5)] == [
            scalar.next_u64() for _ in range(5)
        ]


def test_randrange_many_really_rejects_huge_bounds():
    """The huge-bound case exercises the rejection path: the block reads
    more raw words than it returns draws."""
    rng = SplitMix64(99)
    rng.randrange_many([HUGE] * 400)
    consumed = splitmix64_block(99, 0, 1000).tolist().index(rng.next_u64())
    assert 450 < consumed < 700


def test_randrange_many_rejects_non_positive_bounds():
    with pytest.raises(ValueError, match="bound must be positive"):
        SplitMix64(1).randrange_many([3, 0, 2])


def test_offset_stream_is_a_constant_bound_block():
    for bound in (1, 7, 22, HUGE):
        stream = generate_offset_stream(41, bound, 600)
        assert np.array_equal(stream, SplitMix64(41).randrange_many([bound] * 600))


# ---------------------------------------------------------------------------
# Builders against the scalar oracle
# ---------------------------------------------------------------------------


def _campaign_rungs():
    """Every (family, rung) of a seeded random family in any campaign tier."""
    seen = set()
    out = []
    for spec in CAMPAIGNS.values():
        for tier in spec.tiers.values():
            for entry in tier["families"]:
                if not entry["family"].startswith("random_"):
                    continue
                for rung in entry["rungs"]:
                    key = (entry["family"], tuple(sorted(rung.items())))
                    if key not in seen:
                        seen.add(key)
                        out.append((entry["family"], dict(rung)))
    return out


RUNGS = _campaign_rungs()


def _seeds(family, rung):
    return list(range(6)) + [
        cell_seed("CAMPAIGN/core", family, rung, 0, index) for index in range(4)
    ]


def _build(family, rung, seed):
    if family == "random_tree":
        return random_tree(rung["n"], seed), scalar_random_tree(rung["n"], seed)
    if family == "random_connected":
        ref, _ = scalar_random_connected(rung["n"], rung["extra_edges"], seed)
        return random_connected_graph(rung["n"], rung["extra_edges"], seed), ref
    assert family == "random_regular"
    ref, _ = scalar_random_regular(rung["n"], rung["degree"], seed)
    return random_regular_graph(rung["n"], rung["degree"], seed), ref


@pytest.mark.parametrize(
    "family,rung", RUNGS, ids=[f"{f}-{sorted(r.items())}" for f, r in RUNGS]
)
def test_builders_match_scalar_oracle_on_campaign_rungs(family, rung):
    for seed in _seeds(family, rung):
        graph, ref = _build(family, rung, seed)
        assert graph.edges == ref, (family, rung, seed)


def test_rungs_cover_every_random_family():
    assert {family for family, _ in RUNGS} == {
        "random_tree",
        "random_connected",
        "random_regular",
    }


@pytest.mark.parametrize("n,extra,seed", [(30, 500, 0), (30, 500, 1), (20, 200, 3), (12, 100, 7)])
def test_random_connected_complement_fallback_matches(n, extra, seed):
    ref, fallback = scalar_random_connected(n, extra, seed)
    assert fallback  # the attempt budget ran out: the complement path ran
    assert random_connected_graph(n, extra, seed).edges == ref


def test_random_regular_redraws_match():
    redrawn = 0
    for n, degree in ((8, 3), (10, 4), (40, 3), (200, 3)):
        for seed in range(8):
            ref, attempts = scalar_random_regular(n, degree, seed)
            assert random_regular_graph(n, degree, seed).edges == ref
            redrawn += attempts > 1
    assert redrawn >= 5


def test_large_trees_and_hubs_match():
    assert random_tree(3000, 5).edges == scalar_random_tree(3000, 5)
    ref, _ = scalar_random_connected(400, 2000, 1)
    assert random_connected_graph(400, 2000, 1).edges == ref


#: sha256 of the (1e5, 3, seed 1) random-regular edge array (little-endian
#: int64, row-major), as built by the one-draw-at-a-time builder.  That
#: builder takes two matchings to find a simple connected one.
SCALE_EDGES_SHA256 = "eebc563042e98d1fb2aec3899a118edcfc3c165a9ef0bebdc15424b4f40697c6"


def test_scale_graph_edges_are_pinned():
    graph = random_regular_graph(100_000, 3, 1)
    data = graph.edge_array.astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == SCALE_EDGES_SHA256
    assert np.array_equal(np.array(graph.edges, dtype=np.int64), graph.edge_array)


# ---------------------------------------------------------------------------
# PortLabeledGraph identity
# ---------------------------------------------------------------------------


def _flip(edge):
    u, pu, v, pv = edge
    return (v, pv, u, pu)


def test_eq_and_hash_ignore_orientation_and_order():
    rng = np.random.default_rng(3)
    for graph in (random_regular_graph(40, 3, 2), random_connected_graph(25, 30, 4)):
        edges = list(graph.edges)
        flipped = [_flip(e) if k % 2 else e for k, e in enumerate(edges)]
        shuffled = [edges[k] for k in rng.permutation(len(edges))]
        both = [_flip(e) for e in shuffled]
        for variant in (flipped, shuffled, both, np.array(both, dtype=np.int64)):
            other = PortLabeledGraph(graph.n, variant)
            assert other == graph
            assert hash(other) == hash(graph)
        # A different port labelling is a different graph.
        u, pu, v, pv = edges[0]
        w, pw, x, px = edges[1]
        if u == w:
            swapped = [(u, pw, v, pv), (w, pu, x, px)] + edges[2:]
            assert PortLabeledGraph(graph.n, swapped) != graph


def test_hash_does_not_depend_on_pythonhashseed():
    code = (
        "from repro.graphs.random_graphs import random_connected_graph;"
        "print(hash(random_connected_graph(30, 20, 5)))"
    )
    values = set()
    for hash_seed in ("1", "2", "12345"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        values.add(out.stdout.strip())
    assert len(values) == 1
    assert values == {str(hash(random_connected_graph(30, 20, 5)))}


def test_array_input_is_copied_and_read_only():
    edges = np.array([(0, 0, 1, 0), (1, 1, 2, 0)], dtype=np.int64)
    graph = PortLabeledGraph(3, edges)
    edges[0, 0] = 2
    assert graph.edges == ((0, 0, 1, 0), (1, 1, 2, 0))
    for array in (
        graph.edge_array,
        graph.degrees,
        graph.succ_node_array,
        graph.succ_port_array,
        graph.csr_indices,
    ):
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize(
    "n,edges,message",
    [
        (3, [(0, 0, 1, 0), (1, 1, 0, 1), (1, 2, 2, 0)], "parallel edge (0, 1): the model uses simple graphs"),
        (3, [(0, 0, 1, 0), (0, 0, 2, 0)], "port 0 at node 0 assigned twice"),
        (3, [(0, 0, 1, 0), (1, 1, 3, 0)], "edge endpoint out of range in (1, 3)"),
        (4, [(0, 0, 1, 0), (2, 0, 3, 0)], "graph is not connected"),
        (2, [(0, 1, 1, 0)], "port 1 at node 0 out of range 0..0"),
    ],
    ids=["parallel", "port-twice", "endpoint", "disconnected", "port-range"],
)
def test_error_messages_are_unchanged(n, edges, message):
    for given in (edges, np.array(edges, dtype=np.int64)):
        with pytest.raises(ValueError) as exc:
            PortLabeledGraph(n, given)
        assert str(exc.value) == message
