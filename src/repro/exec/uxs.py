"""The dart-automaton replay: UXS streams and multi-start coverage.

Two scalar hot spots live in :mod:`repro.core.uxs`:

* generating ``Y(n)`` is ``48 n^3 ceil(log2(n+1))`` calls into a Python
  :class:`~repro.util.lcg.SplitMix64`;
* certifying coverage (:func:`~repro.core.uxs.is_uxs_for_graph`) walks
  the full sequence once *per start node*, through per-step
  ``graph.succ`` / ``graph.entry_port`` method calls.

This module replaces both with array programs whose outputs are
bit-identical to the scalar definitions (enforced by
``tests/core/test_uxs_vectorized.py`` and the ``tests/exec``
differential harness):

* :func:`generate_offset_stream` evaluates SplitMix64 on a whole index
  range at once (the generator's state after ``k`` steps is the closed
  form ``seed + k * GAMMA``), then replays the scalar rejection
  sampling *in stream order*, through the block sampler
  :func:`repro.util.lcg.randrange_block` that the graph builders use
  too.
* :func:`apply_uxs_all` / :func:`covered_counts` walk the sequence from
  **all start nodes simultaneously**.  The walk state at each step is a
  *dart* (node, entry port); since every node of degree ``d`` uses
  entry ports ``0..d-1``, the dart space has one id per directed edge
  plus the virtual start darts.  A precompiled table maps
  ``(offset value, dart) -> next dart``, so each step of the walk — for
  every start node at once — is a single gather.  Coverage
  tracking is batched: darts are recorded into a chunk buffer and
  folded into the per-start visited sets once per chunk, with an early
  exit as soon as every walk has covered the graph (the scalar walk
  keeps stepping long after coverage; see ``covers_from``'s early-exit
  fix).

This is the UXS face of the execution core: like the trace replay in
:mod:`repro.exec.meeting`, the inner loop is nothing but ndarray
``.take`` gathers through a compiled transition table.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graphs.port_graph import PortLabeledGraph
from repro.util.lcg import randrange_block

__all__ = [
    "generate_offset_stream",
    "DartWalkTable",
    "apply_uxs_all",
    "covered_counts",
    "is_uxs_for_graph_vectorized",
]

def generate_offset_stream(seed: int, bound: int, length: int) -> np.ndarray:
    """``length`` draws of ``SplitMix64(seed).randrange(bound)``, vectorized.

    Bit-identical to the scalar loop, including its rejection sampling
    (the loop of :func:`repro.util.lcg.randrange_block`).  Streams are
    prefix-stable — the first ``k`` draws do not depend on ``length`` —
    which :func:`repro.core.uxs.minimal_verified_uxs` relies on when it
    scans growing prefixes.
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return randrange_block(seed, np.full(length, bound, dtype=np.int64))[0]


class DartWalkTable:
    """Precompiled UXS transition tables of one graph.

    A walk's state after any step is the dart ``(node, entry port)``;
    the next dart under offset ``a`` is a pure function of the state,
    so the automaton is the integer table
    ``transitions[a, dart] -> dart`` (darts are encoded as
    ``node * max_degree + entry_port``).  Applying one UXS term to
    every concurrent walk is then a single gather.

    The symbol axis is bounded by ``bound = max(2n, 2)`` — the offset
    range of every generated stream.  Offsets only matter modulo the
    local degree, so arbitrarily large terms are legal UXS input
    (the scalar walk reduces them on the fly); for those the walk
    drops to :meth:`step_direct`, which computes the port reduction
    per step instead of indexing the symbol table — table memory
    therefore never scales with the offset *values*.
    """

    __slots__ = (
        "graph",
        "bound",
        "transitions",
        "max_degree",
        "port_step",
        "dart_entry",
        "dart_degree",
    )

    def __init__(self, graph: PortLabeledGraph, bound: int) -> None:
        n = graph.n
        succ = graph.succ_node_array
        entry = graph.succ_port_array
        md = succ.shape[1]
        degrees = graph.degrees

        node_of = np.repeat(np.arange(n), md)
        port_of = np.tile(np.arange(md), n)
        deg_of = degrees[node_of]
        valid = port_of < deg_of
        # Invalid darts are never reached; park them on port 0 so the
        # table build stays total.
        safe_deg = np.maximum(deg_of, 1)
        offsets = np.arange(bound, dtype=np.int64)[:, None]
        ports = (port_of[None, :] + offsets) % safe_deg[None, :]
        flat_succ = succ.reshape(-1)
        flat_entry = entry.reshape(-1)
        source = node_of[None, :] * md + ports
        table = flat_succ[source] * md + flat_entry[source]
        table[:, ~valid] = 0
        self.graph = graph
        self.bound = bound
        self.max_degree = md
        self.transitions = np.ascontiguousarray(table)
        # Port-indexed transition (out-port darts share the encoding
        # space): port_step[v * md + p] = successor dart of leaving v
        # by port p.  Backbone of the out-of-range fallback.
        self.port_step = np.where(flat_succ >= 0, flat_succ * md + flat_entry, 0)
        self.dart_entry = port_of
        self.dart_degree = safe_deg

    def start_darts(self) -> np.ndarray:
        """Initial darts after the fixed first step ``succ(u, 0)``."""
        graph = self.graph
        succ = graph.succ_node_array
        entry = graph.succ_port_array
        return succ[:, 0] * self.max_degree + entry[:, 0]

    def step_direct(
        self, darts: np.ndarray, offset: int, out: np.ndarray
    ) -> None:
        """One walk step for an offset outside the symbol table:
        reduce the offset modulo each lane's degree explicitly."""
        entry = self.dart_entry.take(darts)
        ports = (entry + offset) % self.dart_degree.take(darts)
        self.port_step.take(darts - entry + ports, out=out)


def _as_offsets(seq: Sequence[int]) -> np.ndarray:
    offsets = np.asarray(seq, dtype=np.int64)
    if offsets.ndim != 1:
        raise ValueError("UXS must be a flat sequence of offsets")
    if len(offsets) and int(offsets.min()) < 0:
        raise ValueError("UXS offsets must be non-negative")
    return offsets


def apply_uxs_all(graph: PortLabeledGraph, seq: Sequence[int]) -> np.ndarray:
    """Applications of ``seq`` from **every** start node at once.

    Returns an ``(n, len(seq) + 2)`` node matrix whose row ``u`` equals
    ``apply_uxs(graph, u, seq)`` (for single-node graphs: shape
    ``(1, 1)``, matching the scalar walk that cannot leave the node).
    """
    n = graph.n
    if n == 1:
        return np.zeros((1, 1), dtype=np.int64)
    offsets = _as_offsets(seq)
    table = DartWalkTable(graph, max(2 * n, 2))
    md = table.max_degree
    steps = len(offsets)
    darts = np.empty((steps + 1, n), dtype=np.int64)
    darts[0] = table.start_darts()
    transitions = table.transitions
    in_table = offsets < table.bound
    for k in range(steps):
        if in_table[k]:
            transitions[offsets[k]].take(darts[k], out=darts[k + 1])
        else:
            table.step_direct(darts[k], int(offsets[k]), darts[k + 1])
    nodes = np.empty((n, steps + 2), dtype=np.int64)
    nodes[:, 0] = np.arange(n)
    nodes[:, 1:] = (darts // md).T
    return nodes


def covered_counts(
    graph: PortLabeledGraph,
    seq: Sequence[int],
    *,
    chunk: int = 512,
) -> np.ndarray:
    """Distinct nodes visited by the application of ``seq`` from each
    start node (vector of length ``n``).

    The multi-start walk advances all ``n`` start lanes in lockstep —
    one gather per UXS term — recording darts into a chunk buffer that
    is folded into the per-start visited sets every ``chunk`` steps.
    The walk exits as soon as every one of its lanes has covered the
    graph (visited sets only grow, so the counts are already final),
    so certification cost is bounded by the graph's actual cover time,
    not the sequence length.  The sequence is consumed chunk by chunk
    (no up-front conversion of a multi-million-term tuple); offsets
    beyond the symbol table's range take the per-step reduction path
    (:meth:`DartWalkTable.step_direct`), so memory never scales with
    the offset values.
    """
    n = graph.n
    if n == 1:
        return np.asarray([1], dtype=np.int64)
    table = DartWalkTable(graph, max(2 * n, 2))
    md = table.max_degree
    transitions = table.transitions

    visited = np.zeros((n, n), dtype=bool)
    lanes = np.arange(n)
    visited[lanes, lanes] = True

    darts = table.start_darts()
    visited[lanes, darts // md] = True
    if visited.all():
        return visited.sum(axis=1)

    buffer = np.empty((chunk, n), dtype=np.int64)
    lane_base = lanes * n
    visited_flat = visited.reshape(-1)
    position = 0
    total = len(seq)
    while position < total:
        size = min(chunk, total - position)
        offsets = np.asarray(seq[position : position + size], dtype=np.int64)
        if len(offsets) and int(offsets.min()) < 0:
            raise ValueError("UXS offsets must be non-negative")
        previous = darts
        if int(offsets.max()) < table.bound:
            for k in range(size):
                transitions[offsets[k]].take(previous, out=buffer[k])
                previous = buffer[k]
        else:
            in_table = offsets < table.bound
            for k in range(size):
                if in_table[k]:
                    transitions[offsets[k]].take(previous, out=buffer[k])
                else:
                    table.step_direct(previous, int(offsets[k]), buffer[k])
                previous = buffer[k]
        darts = buffer[size - 1].copy()
        position += size
        visited_flat[
            (buffer[:size] // md + lane_base[None, :]).reshape(-1)
        ] = True
        if visited_flat.all():
            break
    return visited.sum(axis=1)


def is_uxs_for_graph_vectorized(graph: PortLabeledGraph, seq: Sequence[int]) -> bool:
    """Certify ``seq`` on one graph: coverage from *every* start node.

    Same answer as the scalar per-start certification, computed as one
    multi-start walk with an early exit on full coverage.
    """
    if graph.n == 1:
        return True
    return bool((covered_counts(graph, seq) == graph.n).all())
