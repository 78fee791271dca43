"""Deterministic random port-labeled graph generation for test sweeps.

Random connected graphs with random port permutations exercise the
algorithms on unstructured inputs.  Everything is keyed by an explicit
seed through :class:`repro.util.SplitMix64`, so test failures replay
exactly.

Construction runs on arrays.  Each run of independent draws — a stub
shuffle's swap indices, a tree's parents, every node's port
permutation — is taken in one :meth:`SplitMix64.randrange_many` block,
which reads the stream exactly as the one-draw-at-a-time loop does.
Only the stub swaps, which depend on each other, stay a list loop.  The
simple-graph and connectivity tests and the port assignment are array
operations, and the result reaches :class:`PortLabeledGraph` as one
``(m, 4)`` edge array.  Every graph is edge-for-edge the one the scalar
loops built (``tests/graphs/test_builder_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import bfs_distances, repeat_ranges
from repro.graphs.port_graph import PortLabeledGraph
from repro.util.lcg import SplitMix64, derive_seed

__all__ = [
    "random_connected_graph",
    "random_regular_graph",
    "random_tree",
    "random_port_permutation",
]


def random_tree(n: int, seed: int) -> PortLabeledGraph:
    """Uniformly-ish random labeled tree with random port labels.

    Each node ``i >= 1`` attaches to a uniformly random earlier node
    (a random recursive tree), then ports are randomly permuted at
    every node, as by :func:`random_port_permutation`.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = SplitMix64(derive_seed("random_tree", n, seed))
    children = np.arange(1, n)
    return _with_random_ports(n, rng.randrange_many(children), children, rng)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> PortLabeledGraph:
    """Random connected graph: random recursive tree + extra random edges.

    ``extra_edges`` additional distinct non-tree edges are sampled
    uniformly (skipping duplicates); ports are randomly permuted.  The
    returned graph always has exactly ``(n - 1) + min(extra_edges,
    max_extra)`` edges: the rejection loop below handles sparse inputs
    (and replays the seeded stream older callers pinned), and when its
    attempt budget runs out on dense inputs — where almost every draw
    collides with an existing edge — the remaining edges are drawn
    uniformly without replacement from the explicit complement set
    instead of being silently dropped.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = SplitMix64(derive_seed("random_graph", n, extra_edges, seed))
    parents = rng.randrange_many(np.arange(1, n))
    pairs = list(zip(parents.tolist(), range(1, n)))
    present = set(pairs)
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
    if budget > 0:
        complement = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if (a, b) not in present
        ]
        for _ in range(budget):
            key = complement.pop(rng.randrange(len(complement)))
            present.add(key)
            pairs.append(key)
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return _with_random_ports(n, ends[:, 0], ends[:, 1], rng)


def random_regular_graph(n: int, degree: int, seed: int) -> PortLabeledGraph:
    """Random connected ``degree``-regular graph with random port labels.

    Uses the pairing (configuration) model: ``degree`` stubs per node
    are shuffled and matched; matchings with self-loops, parallel edges,
    or a disconnected result are rejected and redrawn from the same
    seeded stream, so the construction is a deterministic function of
    ``(n, degree, seed)``.  Requires ``1 <= degree < n`` and an even
    ``n * degree``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= degree < n:
        raise ValueError(f"need 1 <= degree < n, got degree={degree}, n={n}")
    if (n * degree) % 2:
        raise ValueError(f"n * degree must be even, got n={n}, degree={degree}")
    rng = SplitMix64(derive_seed("random_regular", n, degree, seed))
    stubs = np.repeat(np.arange(n), degree).tolist()
    # Fisher-Yates over the stub list (swap i with j = randrange(i + 1)
    # for i from the top down), then match consecutive stubs.  The
    # list is not reset between attempts: a redraw reshuffles the last
    # matching, exactly as the stream has always been read.
    positions = range(len(stubs) - 1, 0, -1)
    bounds = np.arange(len(stubs), 1, -1)
    for _ in range(1000):
        for i, j in zip(positions, rng.randrange_many(bounds).tolist()):
            stubs[i], stubs[j] = stubs[j], stubs[i]
        matched = np.array(stubs, dtype=np.int64).reshape(-1, 2)
        lo = matched.min(axis=1)
        hi = matched.max(axis=1)
        if (lo == hi).any():
            continue
        keys = np.sort(lo * n + hi)
        if (keys[1:] == keys[:-1]).any():
            continue
        if _connected(n, lo, hi):
            return _with_random_ports(n, lo, hi, rng)
    raise ValueError(
        f"no simple connected {degree}-regular matching found for n={n} "
        f"(seed {seed}); the parameter combination is too constrained"
    )


def _connected(n: int, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the edges ``a[k]-b[k]`` connect all ``n`` nodes."""
    rows = np.concatenate([a, b])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = np.concatenate([b, a])[np.argsort(rows)]
    return bool((bfs_distances(indptr, indices, 0) >= 0).all())


def random_port_permutation(degree: int, rng: SplitMix64) -> list[int]:
    """Fisher-Yates permutation of ``0..degree-1`` from the given stream."""
    perm = list(range(degree))
    for i in range(degree - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _with_random_ports(
    n: int, a: np.ndarray, b: np.ndarray, rng: SplitMix64
) -> PortLabeledGraph:
    """Edges ``(a[k], pa, b[k], pb)`` with random ports, as the scalar
    construction numbers them.

    Node ``v`` draws :func:`random_port_permutation` of its degree, in
    node order, all from one block; the ``r``-th edge at ``v`` (in edge
    order) takes entry ``r`` of that permutation.
    """
    ends = np.stack([a, b], axis=1).reshape(-1)
    degree = np.bincount(ends, minlength=n)
    # Node v's ports are perm[offset[v] : offset[v] + degree[v]], first
    # in order.  Its Fisher-Yates draws j = randrange(i + 1) for
    # i = d-1 .. 1, i.e. bounds d, d-1, .., 2, start at draws[first[v]].
    offset = np.cumsum(degree) - degree
    perm = np.arange(len(ends)) - np.repeat(offset, degree)
    steps = np.maximum(degree - 1, 0)
    first = np.cumsum(steps) - steps
    draws = rng.randrange_many(
        np.repeat(degree, steps) - repeat_ranges(np.zeros(n, np.int64), steps)
    )
    # Step t swaps position d-1-t with its draw at every node that has a
    # step t; nodes are independent, so a step is one fancy-indexed swap
    # over the ``live[t]`` nodes of most steps.
    by_steps = np.argsort(-steps, kind="stable")
    live = n - np.cumsum(np.bincount(steps))
    for t in range(len(live) - 1):
        nodes = by_steps[: live[t]]
        i = offset[nodes] + steps[nodes] - t
        j = offset[nodes] + draws[first[nodes] + t]
        held = perm[i]
        perm[i] = perm[j]
        perm[j] = held
    # The r-th edge at a node (in edge order) takes its port r: with the
    # endpoints interleaved a0, b0, a1, b1, .. and stably grouped by
    # node, endpoint k sits at CSR slot ``slot[k]``.
    slot = np.empty_like(ends)
    slot[np.argsort(ends, kind="stable")] = np.arange(len(ends))
    ports = perm[slot].reshape(-1, 2)
    edges = np.stack([a, ports[:, 0], b, ports[:, 1]], axis=1)
    return PortLabeledGraph(n, edges)
