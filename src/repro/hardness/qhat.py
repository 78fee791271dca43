"""The graph ``Q̂_h`` of Section 4 (Fig. 1, right).

``Q̂_h`` keeps the nodes and edges of ``Q_h`` and adds edges between
leaves so that every node has degree 4 and every edge carries ``N-S``
or ``E-W`` ports at its extremities:

* pairing edges ``N_i - S_i`` (port S at ``N_i``, N at ``S_i``) and
  ``E_i - W_i`` (port W at ``E_i``, E at ``W_i``);
* four alternating cycles over the leaves (N/S and E/W families, two
  cycles each) providing the remaining two ports of every leaf.

The resulting graph is 4-regular, and *every* pair of nodes is
symmetric (all views are identical) — the paper's canvas for the
exponential lower bound of Theorem 4.1.  Requires ``h >= 2`` (for
``h = 1`` the cycles would degenerate into self-loops).
"""

from __future__ import annotations

from repro.graphs.port_graph import Edge, PortLabeledGraph
from repro.hardness.qtree import E, N, QTree, S, W, build_qtree

__all__ = ["build_qhat", "qhat_size"]


def qhat_size(h: int) -> int:
    """Number of nodes of ``Q̂_h`` (same node set as ``Q_h``)."""
    return 1 + 4 * (3**h - 1) // 2


def _alternating_cycle(
    first: list[int], second: list[int], low_port: int, high_port: int
) -> list[Edge]:
    """One of the four leaf cycles.

    Visits ``first[0], second[1], first[2], second[3], ...`` and closes
    with ``first[-1] - first[0]``; every edge carries ``low_port`` at
    its lower-index endpoint and ``high_port`` at the higher-index one
    (e.g. E/W for the N-S family, N/S for the E-W family).  Requires
    odd length (``x = 3^(h-1)`` is always odd).
    """
    x = len(first)
    assert x == len(second) and x % 2 == 1 and x >= 3
    ring = [first[j] if j % 2 == 0 else second[j] for j in range(x)]
    edges: list[Edge] = []
    for j in range(x - 1):
        edges.append((ring[j], low_port, ring[j + 1], high_port))
    edges.append((ring[x - 1], low_port, ring[0], high_port))
    return edges


def build_qhat(h: int) -> tuple[PortLabeledGraph, QTree]:
    """Construct ``Q̂_h`` (``h >= 2``); returns ``(graph, scaffold)``.

    The scaffold ``Q_h`` is returned alongside because Section 4's
    arguments (the set ``Z``, the midpoints ``M(v)``) are phrased over
    the tree structure.
    """
    if h < 2:
        raise ValueError(f"Q-hat needs h >= 2, got {h}")
    tree = build_qtree(h)
    edges: list[Edge] = []

    # Tree edges, with their letter ports.
    for v in range(1, tree.n):
        parent, port_at_parent, port_at_v = tree.parent[v]
        edges.append((parent, port_at_parent, v, port_at_v))

    n_leaves = tree.leaves_by_type[N]
    s_leaves = tree.leaves_by_type[S]
    e_leaves = tree.leaves_by_type[E]
    w_leaves = tree.leaves_by_type[W]
    x = len(n_leaves)
    assert x == 3 ** (h - 1)

    # Pairing edges N_i - S_i and E_i - W_i.
    for i in range(x):
        edges.append((n_leaves[i], S, s_leaves[i], N))
        edges.append((e_leaves[i], W, w_leaves[i], E))

    # The four alternating leaf cycles (paper's bullet list, in order):
    # N1-S2-N3-...-Nx-N1 and S1-N2-S3-...-Sx-S1 use ports E/W;
    # E1-W2-E3-...-Ex-E1 and W1-E2-W3-...-Wx-W1 use ports N/S.
    edges += _alternating_cycle(n_leaves, s_leaves, E, W)
    edges += _alternating_cycle(s_leaves, n_leaves, E, W)
    edges += _alternating_cycle(e_leaves, w_leaves, N, S)
    edges += _alternating_cycle(w_leaves, e_leaves, N, S)

    graph = PortLabeledGraph(tree.n, edges)
    assert graph.is_regular() and graph.max_degree == 4, "Q-hat must be 4-regular"
    return graph, tree
