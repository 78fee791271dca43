"""Exhaustive enumeration of small port-labeled graphs.

The UXS substitution (see :mod:`repro.core.profile`) is certified exhaustively for
tiny sizes: a sequence is accepted as "universal for size n" only if
it covers *every* connected port-labeled graph on ``n`` named nodes
from *every* start node.  This module generates that class — all
connected simple graphs on ``n`` labeled nodes, crossed with all port
assignments — which is tractable for ``n <= 4`` (a few thousand
objects) and also supplies worst-case fodder for property tests.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from collections.abc import Iterator

from repro.graphs.port_graph import Edge, PortLabeledGraph

__all__ = [
    "connected_edge_sets",
    "port_assignments",
    "enumerate_port_labeled_graphs",
    "count_port_labeled_graphs",
]


def connected_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All connected simple graphs on ``n`` named nodes, as edge sets."""
    if n == 1:
        yield ()
        return
    all_pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(all_pairs)):
        edges = tuple(p for i, p in enumerate(all_pairs) if mask >> i & 1)
        if len(edges) < n - 1:
            continue
        if _connected(n, edges):
            yield edges


def _connected(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def port_assignments(
    n: int, edges: tuple[tuple[int, int], ...]
) -> Iterator[tuple[Edge, ...]]:
    """All port labelings of one underlying graph.

    Each node of degree ``d`` permutes ports ``0..d-1`` over its
    incident edges (in edge-list order), independently of other nodes.
    """
    incident: dict[int, list[int]] = {v: [] for v in range(n)}
    for idx, (a, b) in enumerate(edges):
        incident[a].append(idx)
        incident[b].append(idx)
    per_node = [list(permutations(range(len(incident[v])))) for v in range(n)]
    for combo in product(*per_node):
        port_at: list[dict[int, int]] = [dict() for _ in range(n)]
        for v in range(n):
            for slot, edge_idx in enumerate(incident[v]):
                port_at[v][edge_idx] = combo[v][slot]
        yield tuple(
            (a, port_at[a][idx], b, port_at[b][idx])
            for idx, (a, b) in enumerate(edges)
        )


def enumerate_port_labeled_graphs(n: int) -> Iterator[PortLabeledGraph]:
    """Every connected port-labeled graph on ``n`` named nodes.

    Sizes: 1, 1, 8, ~1.7k for n = 1..4 — use only for tiny ``n``.
    """
    if n > 5:
        raise ValueError("exhaustive enumeration is only sane for n <= 5")
    for edges in connected_edge_sets(n):
        for labeled in port_assignments(n, edges):
            yield PortLabeledGraph(n, labeled, validate=False)


def count_port_labeled_graphs(n: int) -> int:
    """Number of objects :func:`enumerate_port_labeled_graphs` yields."""
    return sum(1 for _ in enumerate_port_labeled_graphs(n))
