"""Views V(v, G) and node symmetry (Section 2; Yamashita & Kameda).

The *view* from ``v`` is the infinite tree of all paths starting at
``v``, coded as sequences of port numbers (outgoing and incoming).
Two nodes are *symmetric* when their views are equal.

Two complementary implementations:

* :func:`truncated_view` materializes the view tree to a finite depth
  — exponential in the depth, used by agents that physically
  reconstruct their surroundings and by small-case tests.
* :func:`view_classes` computes the partition of nodes into
  view-equivalence classes by iterated partition refinement (degree +
  port-annotated neighbor colors), which stabilizes within ``n - 1``
  rounds (Norris' theorem: views equal to depth ``n - 1`` are equal at
  all depths).  This is the polynomial-time oracle used by the
  simulator, ``Shrink``, and feasibility checks.

:func:`view_classes` and its derivatives are thin wrappers over the
per-graph kernel (:mod:`repro.symmetry.context`), which runs the same
refinement on 1-D array codes and memoizes the result per graph.  The original tuple-dict refinement loop is retained as
:func:`view_classes_reference` for the differential suite and the
benchmarks.
"""

from __future__ import annotations

from repro.graphs.port_graph import PortLabeledGraph
from repro.symmetry.context import symmetry_context

__all__ = [
    "truncated_view",
    "view_classes",
    "view_classes_reference",
    "view_class_of",
    "are_symmetric",
    "symmetric_pairs",
    "view_signature",
]

#: A truncated view: ``(degree, ((out_port, in_port, subview), ...))``.
#: ``subview`` is ``None`` at the depth cutoff.
View = tuple


def truncated_view(graph: PortLabeledGraph, v: int, depth: int) -> View:
    """The view from ``v`` truncated at ``depth`` edges.

    The node at the end of each length-``depth`` path is represented by
    its degree with children ``None`` (cut off), so two truncated views
    compare equal exactly when the corresponding view trees agree on
    all paths of length at most ``depth``.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")

    def build(node: int, remaining: int) -> View:
        d = graph.degree(node)
        if remaining == 0:
            return (d, None)
        children = tuple(
            (p, graph.entry_port(node, p), build(graph.succ(node, p), remaining - 1))
            for p in range(d)
        )
        return (d, children)

    return build(v, depth)


def view_classes(graph: PortLabeledGraph) -> list[int]:
    """Partition nodes by view equality; returns a color per node.

    Colors are canonical: two nodes have the same color iff their
    (infinite) views are equal, renumbered by first occurrence so the
    output is deterministic.  Served by the memoized array kernel
    (:func:`repro.symmetry.context.symmetry_context`); bit-identical
    to :func:`view_classes_reference`.
    """
    return symmetry_context(graph).color_list()


def view_classes_reference(graph: PortLabeledGraph) -> list[int]:
    """The retained scalar refinement loop (pre-kernel reference).

    Runs iterated refinement until the partition stabilizes — at most
    ``n - 1`` iterations by Norris' theorem.  Kept as the differential
    baseline for the kernel's array-based refinement; production
    callers use :func:`view_classes`.
    """
    n = graph.n
    colors = [graph.degree(v) for v in range(n)]
    colors = _canonicalize(colors)
    for _ in range(max(n - 1, 1)):
        signatures = []
        for v in range(n):
            sig = (
                colors[v],
                tuple(
                    (p, graph.entry_port(v, p), colors[graph.succ(v, p)])
                    for p in range(graph.degree(v))
                ),
            )
            signatures.append(sig)
        new_colors = _canonicalize_signatures(signatures)
        if new_colors == colors:
            break
        colors = new_colors
    return colors


def _canonicalize(values: list[int]) -> list[int]:
    mapping: dict[int, int] = {}
    out = []
    for value in values:
        if value not in mapping:
            mapping[value] = len(mapping)
        out.append(mapping[value])
    return out


def _canonicalize_signatures(signatures: list) -> list[int]:
    mapping: dict = {}
    out = []
    for sig in signatures:
        if sig not in mapping:
            mapping[sig] = len(mapping)
        out.append(mapping[sig])
    return out


def view_class_of(graph: PortLabeledGraph, v: int) -> int:
    """Color of ``v`` in the canonical view partition."""
    return int(symmetry_context(graph).colors[v])


def are_symmetric(graph: PortLabeledGraph, u: int, v: int) -> bool:
    """True iff ``u`` and ``v`` have equal views (are *symmetric*)."""
    return symmetry_context(graph).are_symmetric(u, v)


def symmetric_pairs(graph: PortLabeledGraph) -> list[tuple[int, int]]:
    """All unordered pairs ``u < v`` of distinct symmetric nodes."""
    return symmetry_context(graph).symmetric_pairs()


def view_signature(graph: PortLabeledGraph, v: int, depth: int) -> bytes:
    """Canonical byte serialization of the depth-``depth`` view from ``v``.

    Two nodes (possibly of *different graphs*) get equal signatures iff
    their truncated views are equal.  This is the label source for
    AsymmRV: non-symmetric nodes of an ``n``-node graph have different
    signatures at ``depth = n - 1``.
    """
    out = bytearray()

    def emit(node: int, remaining: int) -> None:
        out.append(0x01)
        out.extend(graph.degree(node).to_bytes(4, "big"))
        if remaining == 0:
            out.append(0x02)
            return
        for p in range(graph.degree(node)):
            out.append(0x03)
            out.extend(p.to_bytes(2, "big"))
            out.extend(graph.entry_port(node, p).to_bytes(2, "big"))
            emit(graph.succ(node, p), remaining - 1)
        out.append(0x04)

    emit(v, depth)
    return bytes(out)
