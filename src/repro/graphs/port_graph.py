"""Port-labeled anonymous graphs — the navigation substrate of the paper.

The model (Section 1 of the paper): a simple, finite, connected,
undirected graph whose *nodes are unlabeled* but whose edge endpoints
carry local *port numbers*: a node of degree ``d`` numbers its incident
edges ``0 .. d-1``, with **no coherence** required between the two port
numbers of one edge.

Internally nodes are integers ``0 .. n-1``.  These integers are a
simulator convenience only — algorithms in :mod:`repro.core` never see
them; the :class:`repro.sim.agent.Agent` wrapper restricts agent
perception to (degree, entry port), which is exactly what the model
allows.

The hot navigation primitives (``succ``, path application) are backed
by dense numpy arrays so that simulations of millions of rounds stay
cheap, per the profiling-first guidance of the HPC notes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from typing import cast

import numpy as np

from repro.graphs.csr import bfs_distances

__all__ = ["PortLabeledGraph", "Edge"]

#: An undirected port-labeled edge ``(u, port_at_u, v, port_at_v)``.
Edge = tuple[int, int, int, int]


class PortLabeledGraph:
    """A simple connected undirected graph with local port labels.

    Parameters
    ----------
    n:
        Number of nodes; nodes are ``0 .. n-1``.
    edges:
        Iterable of ``(u, p_u, v, p_v)`` tuples, or an ``(m, 4)``
        integer array of such rows, meaning the edge ``{u, v}`` has port
        ``p_u`` at ``u`` and port ``p_v`` at ``v``.
    validate:
        When true (default), check the port-labeling axioms: every node
        of degree ``d`` uses ports ``0..d-1`` exactly once, the graph is
        simple, and it is connected.

    Notes
    -----
    Instances are immutable after construction, so one graph may be
    shared between callers.  The edges are stored once, as a read-only
    ``(m, 4)`` int64 array (:attr:`edge_array`); :attr:`edges`, the
    tuple-of-tuples view, is built on first access.  The successor
    tables, degrees and CSR arrays are read-only as well.
    """

    __slots__ = (
        "_n",
        "_edge_array",
        "_edges_cache",
        "_degrees",
        "_succ_node",
        "_succ_port",
        "_max_degree",
        "_csr_cache",
        "_canonical_cache",
        "_hash_cache",
    )

    def __init__(
        self, n: int, edges: Iterable[Edge] | np.ndarray, *, validate: bool = True
    ) -> None:
        if n <= 0:
            raise ValueError(f"graph must have at least one node, got n={n}")
        self._n = n
        self._edge_array = self._coerce_edges(edges)
        self._edges_cache: tuple[Edge, ...] | None = None

        # Vectorized happy path (bincount degrees + one fancy-indexed
        # table fill); any axiom violation falls back to the scalar
        # build, which re-detects the problem edge *in input order* and
        # raises the exact per-edge message the scalar path always has.
        tables = self._build_tables_vectorized()
        if tables is None:
            tables = self._build_tables_scalar()
        for table in tables:
            table.setflags(write=False)
        degrees, succ_node, succ_port = tables

        self._degrees = degrees
        self._succ_node = succ_node
        self._succ_port = succ_port
        self._max_degree = int(degrees.max()) if n > 0 else 0
        self._csr_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._canonical_cache: np.ndarray | None = None
        self._hash_cache: int | None = None

        if validate:
            self._validate_simple()
            self._validate_connected()

    @staticmethod
    def _coerce_edges(edges: Iterable[Edge] | np.ndarray) -> np.ndarray:
        """Normalize ``edges`` to a fresh read-only ``(m, 4)`` int64 array.

        Tries one bulk cast first; irregular input (ragged rows,
        non-numeric entries) drops to the scalar conversion, which
        raises the historical per-edge messages.
        """
        if isinstance(edges, (np.ndarray, list, tuple)):
            edge_seq = edges
        else:
            edge_seq = list(edges)
        arr: np.ndarray | None = None
        if len(edge_seq):
            try:
                arr = np.array(edge_seq, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                arr = None
            if arr is None or arr.ndim != 2 or arr.shape[1] != 4:
                edge_list = [tuple(int(x) for x in e) for e in edge_seq]
                for e in edge_list:
                    if len(e) != 4:
                        raise ValueError(f"edge must be (u, p_u, v, p_v), got {e}")
                arr = np.array(edge_list, dtype=np.int64)
        else:
            arr = np.empty((0, 4), dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def _build_tables_vectorized(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Build (degrees, succ_node, succ_port) without Python loops.

        Returns ``None`` when any port-labeling axiom fails — the
        caller then re-runs the scalar build purely for its exact,
        input-ordered error reporting.
        """
        n = self._n
        arr = self._edge_array
        if not len(arr):
            degrees = np.zeros(n, dtype=np.int64)
            shape = (n, 1)
            return degrees, np.full(shape, -1, np.int64), np.full(shape, -1, np.int64)
        u, pu, v, pv = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
        endpoints = np.concatenate([u, v])
        if (endpoints < 0).any() or (endpoints >= n).any() or (u == v).any():
            return None
        degrees = np.bincount(endpoints, minlength=n).astype(np.int64, copy=False)
        max_degree = int(degrees.max())

        # Both directed half-edges of every undirected edge: the table
        # row is the *from* node, the column its outgoing port.
        rows = endpoints
        ports = np.concatenate([pu, pv])
        targets = np.concatenate([v, u])
        target_ports = np.concatenate([pv, pu])
        if (ports < 0).any() or (ports >= degrees[rows]).any():
            return None
        # With every port below its node's degree, the dart's CSR slot
        # ``offset[row] + port`` lies in ``0 .. 2m-1``; 2m darts fill the
        # 2m slots once each unless some port is assigned twice.
        slots = (np.cumsum(degrees) - degrees)[rows] + ports
        if (np.bincount(slots, minlength=len(slots)) > 1).any():
            return None

        shape = (n, max(max_degree, 1))
        succ_node = np.full(shape, -1, dtype=np.int64)
        succ_port = np.full(shape, -1, dtype=np.int64)
        succ_node[rows, ports] = targets
        succ_port[rows, ports] = target_ports
        return degrees, succ_node, succ_port

    def _build_tables_scalar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reference scalar build: detects violations edge by edge, in
        input order, with the messages the constructor has always
        raised.  Only reached when the vectorized build bails."""
        n = self._n
        degrees = np.zeros(n, dtype=np.int64)
        for u, _pu, v, _pv in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range in {(u, v)}")
            if u == v:
                raise ValueError(f"self-loop at node {u}: the model uses simple graphs")
            degrees[u] += 1
            degrees[v] += 1

        max_degree = int(degrees.max()) if n > 0 else 0
        # succ_node[v, p] = neighbor reached from v via port p (-1 if p >= deg(v)).
        # succ_port[v, p] = the port of that same edge at the neighbor.
        succ_node = np.full((n, max(max_degree, 1)), -1, dtype=np.int64)
        succ_port = np.full((n, max(max_degree, 1)), -1, dtype=np.int64)
        for u, pu, v, pv in self.edges:
            for a, pa, b, pb in ((u, pu, v, pv), (v, pv, u, pu)):
                if not (0 <= pa < degrees[a]):
                    raise ValueError(
                        f"port {pa} at node {a} out of range 0..{int(degrees[a]) - 1}"
                    )
                if succ_node[a, pa] != -1:
                    raise ValueError(f"port {pa} at node {a} assigned twice")
                succ_node[a, pa] = b
                succ_port[a, pa] = pb
        return degrees, succ_node, succ_port

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes (the *size* of the graph, per the paper)."""
        return self._n

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The port-labeled edge list this graph was built from, as
        ``(u, p_u, v, p_v)`` tuples (built on first access)."""
        if self._edges_cache is None:
            rows = map(tuple, self._edge_array.tolist())
            self._edges_cache = cast("tuple[Edge, ...]", tuple(rows))
        return self._edges_cache

    @property
    def edge_array(self) -> np.ndarray:
        """Read-only ``(m, 4)`` int64 array of :attr:`edges`, same order."""
        return self._edge_array

    @property
    def max_degree(self) -> int:
        """Maximum node degree."""
        return self._max_degree

    @property
    def degrees(self) -> np.ndarray:
        """Read-only vector of node degrees (do not mutate)."""
        return self._degrees

    @property
    def succ_node_array(self) -> np.ndarray:
        """Dense ``(n, max_degree)`` successor-node table (-1 padded)."""
        return self._succ_node

    @property
    def succ_port_array(self) -> np.ndarray:
        """Dense ``(n, max_degree)`` entry-port table (-1 padded)."""
        return self._succ_port

    @property
    def csr_indptr(self) -> np.ndarray:
        """CSR row pointer: neighbors of ``v`` live at
        ``csr_indices[csr_indptr[v]:csr_indptr[v + 1]]`` (read-only)."""
        return self._csr()[0]

    @property
    def csr_indices(self) -> np.ndarray:
        """CSR neighbor array, per-node slices in port order (read-only)."""
        return self._csr()[1]

    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``O(n + m)`` CSR adjacency.

        Built lazily from the dense successor table: dropping the
        ``-1`` padding row-major keeps each node's neighbors in port
        order, so CSR traversals and port-indexed gathers agree on
        neighbor enumeration order.
        """
        if self._csr_cache is None:
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            indices = self._succ_node[self._succ_node >= 0]
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr_cache = (indptr, indices)
        return self._csr_cache

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return int(self._degrees[v])

    def succ(self, v: int, p: int) -> int:
        """Neighbor ``succ(v, p)`` reached from ``v`` via port ``p``.

        This is exactly the paper's ``succ`` (Section 2).
        """
        if not (0 <= p < self._degrees[v]):
            raise ValueError(f"port {p} invalid at node {v} of degree {self.degree(v)}")
        return int(self._succ_node[v, p])

    def entry_port(self, v: int, p: int) -> int:
        """Port at ``succ(v, p)`` by which an agent leaving ``v`` enters it."""
        if not (0 <= p < self._degrees[v]):
            raise ValueError(f"port {p} invalid at node {v} of degree {self.degree(v)}")
        return int(self._succ_port[v, p])

    # ------------------------------------------------------------------
    # Path machinery (Section 2 of the paper)
    # ------------------------------------------------------------------
    def apply_port_sequence(self, x: int, alpha: Sequence[int]) -> int:
        """Return ``alpha(x)``: follow outgoing ports ``alpha`` from ``x``.

        Raises if some port in the sequence is invalid at the node
        reached at that point (the paper only applies sequences where
        this cannot happen, e.g. between symmetric nodes).
        """
        node = x
        for p in alpha:
            node = self.succ(node, p)
        return node

    def walk(self, x: int, alpha: Sequence[int]) -> list[int]:
        """Nodes visited following ``alpha`` from ``x`` (length ``len(alpha)+1``)."""
        nodes = [x]
        for p in alpha:
            nodes.append(self.succ(nodes[-1], p))
        return nodes

    def reverse_ports(self, x: int, alpha: Sequence[int]) -> tuple[int, ...]:
        """Outgoing ports of the *reverse path* of ``alpha`` started at ``x``.

        If following ``alpha`` from ``x`` traverses nodes
        ``x = u_0, ..., u_k`` then the result, applied at ``u_k``, walks
        back ``u_k, ..., u_0`` (the paper's ``reverse path`` of
        Section 2).
        """
        node = x
        back: list[int] = []
        for p in alpha:
            back.append(self.entry_port(node, p))
            node = self.succ(node, p)
        back.reverse()
        return tuple(back)

    # ------------------------------------------------------------------
    # Metrics and export
    # ------------------------------------------------------------------
    def distances_from(self, source: int) -> np.ndarray:
        """BFS distances from ``source`` (vector of length ``n``).

        Runs on the cached CSR adjacency through
        :func:`repro.graphs.csr.bfs_distances`: each level expands the
        whole frontier with two gathers and drops duplicates without a
        sort, so the cost is ``O(n + m)`` array work with no per-node
        Python.  Values are bit-identical to
        :meth:`distances_from_reference` (BFS levels do not depend on
        expansion order).
        """
        n = self._n
        given = int(source)
        source = given + n if given < 0 else given
        if not 0 <= source < n:
            raise IndexError(f"source {given} out of range for n={n}")
        indptr, indices = self._csr()
        return bfs_distances(indptr, indices, source)

    def distances_from_reference(self, source: int) -> np.ndarray:
        """Retained scalar BFS — the differential baseline for
        :meth:`distances_from` and the blocked symmetry-kernel BFS."""
        dist = np.full(self._n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for p in range(int(self._degrees[u])):
                    w = int(self._succ_node[u, p])
                    if dist[w] == -1:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance between ``u`` and ``v``."""
        return int(self.distances_from(u)[v])

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of ``v`` in port order."""
        return [int(self._succ_node[v, p]) for p in range(self.degree(v))]

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` with ``port`` edge attrs.

        Edge attribute ``ports`` is a dict ``{u: p_u, v: p_v}``.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        for u, pu, v, pv in self.edges:
            g.add_edge(u, v, ports={u: pu, v: pv})
        return g

    def is_regular(self) -> bool:
        """True when every node has the same degree."""
        return bool((self._degrees == self._degrees[0]).all())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PortLabeledGraph(n={self._n}, m={len(self._edge_array)})"

    def _canonical(self) -> np.ndarray:
        """Edges with the lower-id endpoint first, in ascending order of
        that endpoint's dart ``u * max_degree + p_u`` — the
        orientation- and order-insensitive identity used by
        ``__eq__``/``__hash__``.

        A dart belongs to exactly one edge, so the order is total and is
        the lexicographic order of the oriented ``(u, p_u, v, p_v)``
        rows.  Memoized: instances are immutable, and the per-graph
        symmetry kernel cache (:func:`repro.symmetry.context.symmetry_context`)
        hashes graphs on every wrapper call.
        """
        if self._canonical_cache is None:
            e = self._edge_array
            flip = (e[:, 0] > e[:, 2])[:, None]
            oriented = np.where(flip, e[:, [2, 3, 0, 1]], e)
            darts = oriented[:, 0] * self._max_degree + oriented[:, 1]
            canonical = oriented[np.argsort(darts)]
            canonical.setflags(write=False)
            self._canonical_cache = canonical
        return self._canonical_cache

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortLabeledGraph):
            return NotImplemented
        return self._n == other._n and np.array_equal(
            self._canonical(), other._canonical()
        )

    def __hash__(self) -> int:
        """A fixed 64-bit digest of ``n`` and the canonical edge array,
        so the value does not depend on ``PYTHONHASHSEED``."""
        if self._hash_cache is None:
            digest = hashlib.blake2b(int(self._n).to_bytes(8, "little"), digest_size=8)
            digest.update(self._canonical().astype("<i8", copy=False).tobytes())
            self._hash_cache = int.from_bytes(digest.digest(), "little", signed=True)
        return self._hash_cache

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate_simple(self) -> None:
        e = self._edge_array
        lo = np.minimum(e[:, 0], e[:, 2])
        keys = np.sort(lo * self._n + np.maximum(e[:, 0], e[:, 2]))
        if not (keys[1:] == keys[:-1]).any():
            return
        # Some edge repeats: the scalar scan names the first repeat in
        # input order, with the message it has always raised.
        seen: set[tuple[int, int]] = set()
        for u, _pu, v, _pv in self.edges:
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"parallel edge {key}: the model uses simple graphs")
            seen.add(key)

    def _validate_connected(self) -> None:
        if self._n == 1:
            return
        if int((self.distances_from(0) == -1).sum()) > 0:
            raise ValueError("graph is not connected")
