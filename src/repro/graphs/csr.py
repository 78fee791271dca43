"""CSR (compressed sparse row) helpers shared by the graph hot paths.

The dense ``(n, max_degree)`` successor tables of
:class:`~repro.graphs.port_graph.PortLabeledGraph` are the right shape
for port-indexed gathers (one column per port), but frontier-style
traversals — BFS from one or many sources, neighbor expansion of a
changed-row worklist — want the classic ``indptr``/``indices`` CSR
pair: neighbors of ``v`` are ``indices[indptr[v]:indptr[v + 1]]``, in
port order, with no ``-1`` padding to mask out.  Memory is ``O(n + m)``
instead of ``O(n * max_degree)``, and a whole frontier expands with two
gathers (:func:`repeat_ranges` + one ``indices`` take) instead of a
dense matrix product.

These helpers are dependency-free so both :mod:`repro.graphs` and the
symmetry kernel (:mod:`repro.symmetry.context`) can share them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["repeat_ranges", "bfs_distances"]


def repeat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` for each pair.

    The standard vectorized "gather the slice of every frontier node"
    index builder: with CSR ``starts = indptr[nodes]`` and ``counts``
    the node degrees, ``indices[repeat_ranges(starts, counts)]`` is the
    concatenation of every node's neighbor list, in node-then-port
    order.  int64 in, int64 out; empty inputs yield an empty array.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Exclusive prefix sum of counts = where each range begins in the
    # flat output; subtracting it from a global arange recovers the
    # per-range offsets 0..count-1.
    bounds = np.cumsum(counts)
    origins = np.repeat(bounds - counts, counts)
    return np.repeat(np.asarray(starts, dtype=np.int64), counts) + (
        np.arange(total, dtype=np.int64) - origins
    )


def bfs_distances(indptr: np.ndarray, indices: np.ndarray, source: int) -> np.ndarray:
    """BFS distances from ``source`` over a CSR adjacency (-1: unreached).

    Each level expands the whole frontier with two gathers.  Duplicate
    targets are dropped with the output as the owner array: every
    unvisited target is stamped with its candidate's mark ``-2 - i`` and
    only the candidate that reads its own mark back survives, so no
    level sorts.  Levels do not depend on expansion order, so the values
    are those of any scalar BFS.
    """
    dist = np.full(len(indptr) - 1, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        reached = indices[repeat_ranges(starts, indptr[frontier + 1] - starts)]
        reached = reached[dist[reached] == -1]
        if reached.size == 0:
            break
        marks = -2 - np.arange(reached.size, dtype=np.int64)
        dist[reached] = marks
        frontier = reached[dist[reached] == marks]
        dist[frontier] = level
    return dist
