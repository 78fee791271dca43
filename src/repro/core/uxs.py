"""Universal exploration sequences (Section 2, [32]/[41]).

A sequence ``Y(n) = (a_1, ..., a_M)`` of integers is *applied* at a
start node ``u`` as follows (the paper's definition): ``u_0 = u``,
``u_1 = succ(u_0, 0)``, and for ``1 <= i <= M``,
``u_{i+1} = succ(u_i, (p + a_i) mod d(u_i))`` where ``p`` is the port
by which the walk entered ``u_i``.  ``Y(n)`` is a UXS for the class of
graphs of size ``n`` when every application in every such graph visits
all nodes.

Substitution (see :mod:`repro.core.profile`): instead of Reingold's explicit
construction we emit a deterministic pseudorandom sequence keyed only
by ``n`` — identical for both agents, which is the sole property the
symmetry argument of Lemma 3.2 requires — of length
:func:`uxs_length`, chosen so that coverage holds with overwhelming
margin (random offset walks cover an ``n``-node graph in ``O(n^3)``
expected steps; we budget ``THETA(n^3 log n)``).  Tests certify
coverage with :func:`is_uxs_for_graph` on every graph the experiments
touch, and exhaustively over *all* port-labeled graphs of size
``<= 4``.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from collections.abc import Sequence

from repro.exec.uxs import (
    generate_offset_stream,
    is_uxs_for_graph_vectorized,
)
from repro.graphs.port_graph import PortLabeledGraph
from repro.util.lcg import derive_seed

__all__ = [
    "apply_uxs",
    "minimal_verified_uxs",
    "apply_uxs_ports",
    "uxs_length",
    "uxs_for_size",
    "covers_from",
    "is_uxs_for_graph",
    "is_uxs_for_graph_scalar",
]


def uxs_length(n: int) -> int:
    """Length ``M`` of our ``Y(n)``: ``48 * n^3 * ceil(log2(n + 1))``.

    For ``n = 1`` the sequence is trivial.  The constant was sized so
    the exhaustive small-``n`` certification and every family in the
    test suite pass with a wide margin.
    """
    if n < 1:
        raise ValueError(f"graph size must be positive, got {n}")
    if n == 1:
        return 1
    return 48 * n**3 * max(1, (n + 1).bit_length())


# ``Y(n)`` memo bounded by *total retained elements*, not entry count:
# a single sequence is 48·n³·⌈log₂(n+1)⌉ terms (~36M at n = 50), so an
# entry-counting LRU could pin gigabytes.  Oversized sequences are
# returned uncached; smaller ones are kept LRU-evicted under the budget.
_UXS_CACHE: OrderedDict[int, tuple[int, ...]] = OrderedDict()
_UXS_CACHE_BUDGET = 8_000_000  # total cached terms across all sizes
_uxs_cache_total = 0


def uxs_for_size(n: int) -> tuple[int, ...]:
    """Our ``Y(n)``: deterministic, shared-by-construction, keyed by ``n``."""
    global _uxs_cache_total
    cached = _UXS_CACHE.get(n)
    if cached is not None:
        _UXS_CACHE.move_to_end(n)
        return cached
    # Offsets in a modest fixed range; they are reduced mod d(u_i) at
    # application time, so any range >= max degree keeps the walk rich.
    # Generated by the vectorized engine — bit-identical to the scalar
    # SplitMix64 loop (tests/core/test_uxs_vectorized.py).
    seq = tuple(
        int(a)
        for a in generate_offset_stream(
            derive_seed("uxs", n), max(2 * n, 2), uxs_length(n)
        )
    )
    if len(seq) <= _UXS_CACHE_BUDGET:
        _UXS_CACHE[n] = seq
        _uxs_cache_total += len(seq)
        while _uxs_cache_total > _UXS_CACHE_BUDGET:
            _, evicted = _UXS_CACHE.popitem(last=False)
            _uxs_cache_total -= len(evicted)
    return seq


def apply_uxs(
    graph: PortLabeledGraph, start: int, seq: Sequence[int]
) -> list[int]:
    """The application ``R(u) = (u_0, ..., u_{M+1})`` of ``seq`` at ``start``.

    The walk of :func:`apply_uxs_ports`, recording the nodes it reaches
    instead of the ports it takes (``graph.walk`` of those ports).
    """
    nodes = [start]
    if graph.degree(start) == 0:  # pragma: no cover - impossible when connected, n>1
        return nodes
    node = graph.succ(start, 0)
    entry = graph.entry_port(start, 0)
    nodes.append(node)
    for a in seq:
        p = (entry + a) % graph.degree(node)
        entry = graph.entry_port(node, p)
        node = graph.succ(node, p)
        nodes.append(node)
    return nodes


def apply_uxs_ports(
    graph: PortLabeledGraph, start: int, seq: Sequence[int]
) -> list[int]:
    """Outgoing ports taken by the application of ``seq`` at ``start``.

    This is what an *agent* can precompute knowing only its
    perceptions: the port choices depend only on entry ports and
    degrees along the walk.  Length is ``len(seq) + 1`` (the initial
    ``succ(u_0, 0)`` step plus one step per term).
    """
    if graph.degree(start) == 0:  # pragma: no cover - impossible when connected, n>1
        return []
    ports = [0]
    node = graph.succ(start, 0)
    entry = graph.entry_port(start, 0)
    for a in seq:
        d = graph.degree(node)
        p = (entry + a) % d
        ports.append(p)
        entry = graph.entry_port(node, p)
        node = graph.succ(node, p)
    return ports


def covers_from(graph: PortLabeledGraph, start: int, seq: Sequence[int]) -> bool:
    """True when the application of ``seq`` at ``start`` visits all nodes.

    Walks incrementally and stops at the first prefix that covers the
    graph (the visited set only grows, so coverage of a prefix is
    coverage of the whole application): certification cost is bounded
    by the cover time, not by the ``48 n^3 log n`` sequence length.
    """
    return _cover_steps(graph, start, seq)[0]


def _cover_steps(
    graph: PortLabeledGraph, start: int, seq: Sequence[int]
) -> tuple[bool, int]:
    """(covered, steps walked before the early exit or exhaustion)."""
    n = graph.n
    if n == 1:
        return True, 0
    visited = {start}
    node = graph.succ(start, 0)
    entry = graph.entry_port(start, 0)
    visited.add(node)
    steps = 1
    if len(visited) == n:
        return True, steps
    for a in seq:
        d = graph.degree(node)
        p = (entry + a) % d
        entry = graph.entry_port(node, p)
        node = graph.succ(node, p)
        visited.add(node)
        steps += 1
        if len(visited) == n:
            return True, steps
    return False, steps


def is_uxs_for_graph(graph: PortLabeledGraph, seq: Sequence[int]) -> bool:
    """Certify ``seq`` on one graph: coverage from *every* start node.

    Delegates to the vectorized multi-start walk
    (:func:`repro.exec.uxs.is_uxs_for_graph_vectorized`): one
    gather per UXS term advances all ``n`` applications at once, with
    an early exit once every walk has covered the graph.  Same answer
    as :func:`is_uxs_for_graph_scalar` on every input (differential
    suite).
    """
    return is_uxs_for_graph_vectorized(graph, seq)


def is_uxs_for_graph_scalar(
    graph: PortLabeledGraph, seq: Sequence[int]
) -> bool:
    """The retained scalar certification: one full walk per start node.

    This is the pre-kernel reference implementation, frozen for the
    differential tests and the speedup benchmarks — it materializes
    every application end to end (``len(seq) + 1`` steps per start,
    coverage checked at the end), which is exactly what the seed
    shipped.  Production callers go through the vectorized
    :func:`is_uxs_for_graph`; the incremental scalar walk with the
    early exit lives in :func:`covers_from`.
    """
    if graph.n == 1:
        return True
    return all(
        len(set(apply_uxs(graph, start, seq))) == graph.n
        for start in range(graph.n)
    )


@lru_cache(maxsize=8)
def minimal_verified_uxs(n: int) -> tuple[int, ...]:
    """Shortest verified prefix tier for tiny ``n`` (exhaustive search).

    Scans prefixes of the deterministic stream keyed by ``n`` in
    growing-length steps and returns the first that covers *every*
    connected port-labeled graph on ``n`` named nodes from *every*
    start node — a genuinely certified UXS for the class, far shorter
    than the safety-margin default.  Only tractable for ``n <= 4``
    (the class has 2568 members at ``n = 4``).
    """
    if n < 1:
        raise ValueError(f"graph size must be positive, got {n}")
    if n == 1:
        return ()
    if n > 4:
        raise ValueError("exhaustive verification is only tractable for n <= 4")
    from repro.graphs.enumeration import enumerate_port_labeled_graphs

    graphs = list(enumerate_port_labeled_graphs(n))
    step = max(n, 2)
    # The offset stream is prefix-stable, so growing prefixes of one
    # vectorized draw replay the scalar incremental extension exactly.
    stream = generate_offset_stream(
        derive_seed("uxs", n), max(2 * n, 2), 512 * step
    )
    for length in range(step, len(stream) + 1, step):
        candidate = tuple(int(a) for a in stream[:length])
        if all(is_uxs_for_graph(g, candidate) for g in graphs):
            return candidate
    raise AssertionError("no verified prefix found within the search budget")
