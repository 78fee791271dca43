"""Space-time initial configurations (STICs) — the paper's central object.

A STIC ``[(u, v), delta]`` pins down everything the adversary chooses:
the two starting nodes and the difference between the starting rounds.
This module provides the value type plus enumeration helpers used by
experiments and property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from repro.graphs.port_graph import PortLabeledGraph
from repro.symmetry.context import symmetry_context
from repro.symmetry.feasibility import (
    FeasibilityVerdict,
    classify_from_symmetry,
    classify_stic,
)

__all__ = ["STIC", "enumerate_stics", "feasible_stics", "infeasible_stics"]


@dataclass(frozen=True)
class STIC:
    """A space-time initial configuration ``[(u, v), delta]``."""

    u: int
    v: int
    delta: int

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"delay must be non-negative, got {self.delta}")
        if self.u == self.v:
            raise ValueError("the model requires distinct initial nodes")

    def classify(self, graph: PortLabeledGraph) -> FeasibilityVerdict:
        """Feasibility verdict per Corollary 3.1."""
        return classify_stic(graph, self.u, self.v, self.delta)


def enumerate_stics(
    graph: PortLabeledGraph, max_delta: int
) -> Iterator[tuple[STIC, FeasibilityVerdict]]:
    """All STICs of a graph with delay up to ``max_delta``, classified.

    Symmetry data comes from the per-graph kernel: view colors and
    all-pairs ``Shrink`` are computed once per graph (not per pair),
    keeping full enumeration cheap for test sweeps.
    """
    context = symmetry_context(graph)
    colors = context.colors
    n = graph.n
    for u in range(n):
        for v in range(u + 1, n):
            symmetric = bool(colors[u] == colors[v])
            s = context.shrink_value(u, v) if symmetric else None
            for delta in range(max_delta + 1):
                yield STIC(u, v, delta), classify_from_symmetry(symmetric, s, delta)


def feasible_stics(graph: PortLabeledGraph, max_delta: int) -> list[STIC]:
    """All feasible STICs with delay up to ``max_delta``."""
    return [s for s, verdict in enumerate_stics(graph, max_delta) if verdict.feasible]


def infeasible_stics(graph: PortLabeledGraph, max_delta: int) -> list[STIC]:
    """All infeasible STICs with delay up to ``max_delta``."""
    return [
        s for s, verdict in enumerate_stics(graph, max_delta) if not verdict.feasible
    ]
