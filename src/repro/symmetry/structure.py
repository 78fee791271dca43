"""Symmetry-structure analysis: whole-graph Shrink and delay maps.

Tools built on top of the per-pair primitives that answer the
questions a deployment would actually ask of this theory: *how much
delay does this topology need in the worst case?*, *which pairs are
the hard ones?*, *what do the symmetry orbits look like?*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.port_graph import PortLabeledGraph
from repro.symmetry.context import symmetry_context

__all__ = [
    "shrink_matrix",
    "symmetry_orbits",
    "DelayProfile",
    "delay_profile",
    "min_universal_delay",
]


def shrink_matrix(graph: PortLabeledGraph) -> np.ndarray:
    """Matrix ``S`` with ``S[u, v] = Shrink(u, v)`` for symmetric pairs
    and ``-1`` for non-symmetric pairs (where the notion is moot and
    every delay works anyway).  ``S[v, v] = 0``.

    One read of the kernel's all-pairs Shrink matrix, filled through
    the color-bucketed symmetric-pair arrays (no dense boolean mask).
    """
    return symmetry_context(graph).shrink_matrix()


def symmetry_orbits(graph: PortLabeledGraph) -> list[list[int]]:
    """Nodes grouped by view equality, in canonical color order.

    For vertex-transitive port labelings this is one orbit; each orbit
    of size >= 2 is a set of mutually indistinguishable positions.
    """
    return symmetry_context(graph).orbits()


@dataclass(frozen=True)
class DelayProfile:
    """Worst-case delay requirements of one topology.

    Attributes
    ----------
    max_shrink:
        The largest ``Shrink`` over symmetric pairs — the delay that
        makes *every* STIC of the graph feasible (0 if no symmetric
        pairs exist).
    hardest_pair:
        A pair attaining it (``None`` if no symmetric pairs).
    symmetric_pairs / total_pairs:
        How much of the graph is symmetry-afflicted.
    mean_shrink:
        Average ``Shrink`` over symmetric pairs (0.0 if none).
    """

    max_shrink: int
    hardest_pair: tuple[int, int] | None
    symmetric_pairs: int
    total_pairs: int
    mean_shrink: float


def delay_profile(graph: PortLabeledGraph) -> DelayProfile:
    """Summarize the graph's delay requirements (see :class:`DelayProfile`).

    Computed from the color-bucketed symmetric-pair arrays and the
    batched per-pair Shrink — no dense ``n x n`` matrix, no Python
    pair loop.  ``hardest_pair`` remains the row-major-first pair
    attaining the maximum, as the historical matrix scan returned.
    """
    context = symmetry_context(graph)
    n = graph.n
    us, vs = context.symmetric_pair_arrays()
    total_pairs = n * (n - 1) // 2
    if us.size == 0:
        return DelayProfile(
            max_shrink=0,
            hardest_pair=None,
            symmetric_pairs=0,
            total_pairs=total_pairs,
            mean_shrink=0.0,
        )
    values = context.shrink_pairs(us, vs)
    worst = int(values.max())
    first = int(np.flatnonzero(values == worst)[0])
    return DelayProfile(
        max_shrink=worst,
        hardest_pair=(int(us[first]), int(vs[first])),
        symmetric_pairs=int(us.size),
        total_pairs=total_pairs,
        mean_shrink=float(np.mean(values)),
    )


def min_universal_delay(graph: PortLabeledGraph) -> int:
    """Smallest delay making every STIC of the graph feasible.

    Equals ``max Shrink`` over symmetric pairs (Corollary 3.1):
    non-symmetric pairs need nothing, symmetric pairs need their
    ``Shrink``.
    """
    return delay_profile(graph).max_shrink
