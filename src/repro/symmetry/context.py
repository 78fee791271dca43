"""Per-graph symmetry kernel: views, distances, and all-pairs Shrink
computed once, in numpy — with a sparse/blocked path for huge graphs.

The scalar analysis layer re-derives symmetry data per call:
:func:`repro.symmetry.views.view_classes` walks a tuple-dict refinement
loop, and :func:`repro.symmetry.shrink.shrink_witness` runs one
Python-dict BFS over the product graph *per pair*.  Sweeps that touch
every pair of a graph — atlases, ``shrink_matrix``, STIC enumeration —
therefore pay ``O(n^2)`` scalar reconstructions of the same facts.

:class:`SymmetryContext` computes each fact once per graph:

* **view colors** by array-based partition refinement: each round
  packs the per-node signature columns into one int64 code by an exact
  pairing (a 1-D ``np.unique`` renumbers it densely whenever the next
  column would overflow), renumbered by first occurrence so the colors
  are bit-identical to :func:`~repro.symmetry.views.view_classes`;
* **distances** by frontier-compressed multi-source BFS over the
  graph's CSR adjacency, computed in *source blocks*
  (:meth:`~SymmetryContext.distances_block`) so working memory is
  ``O(m + block * n)``; the dense :attr:`~SymmetryContext.distances`
  property is a thin blockwise materialization of the same engine;
* **Shrink** two ways, both exact: blocked all-pairs value iteration
  with an active-row worklist (:meth:`~SymmetryContext.shrink_all_into`,
  backing :attr:`~SymmetryContext.shrink_all`), and batched per-pair
  product-graph BFS (:meth:`~SymmetryContext.shrink_pairs`) that never
  allocates anything ``n x n`` — the scale path for graphs where the
  full matrix cannot exist.

Bit-identity across all of these paths is structural, and enforced by
the differential suites (``tests/symmetry/test_context_differential.py``,
``tests/symmetry/test_blocked_differential.py``): BFS levels do not
depend on expansion order, and the Shrink fixpoint — the minimum of
``dist(x, y)`` over pairs reachable in the product graph — is unique
and monotone, so any fair relaxation schedule (dense sweeps, blocked
worklist, per-pair BFS) lands on identical int64 values.

Derived products (symmetric pairs, per-pair feasibility verdicts,
witness reconstruction) are served from the cached arrays.  The
whole-graph consumers — ``shrink_matrix``, ``enumerate_stics`` and the
feasibility atlas — read the dense all-pairs matrix: they produce
``O(n^2)`` output anyway.  Per-pair queries
(:meth:`~SymmetryContext.verdicts_for_pairs`, ``delay_profile``) take
the blocked path.  The scalar functions in
:mod:`~repro.symmetry.views`, :mod:`~repro.symmetry.shrink` and
:mod:`~repro.symmetry.feasibility` are thin wrappers over this kernel;
their outputs are unchanged.

Contexts are memoized per graph (keyed by graph equality) in an LRU
bounded by **approximate retained bytes** (default 256 MiB, see
:func:`set_context_cache_limit`), so one huge dense kernel cannot pin
dozens of others.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.csr import repeat_ranges
from repro.graphs.port_graph import PortLabeledGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (feasibility
    # imports this module at runtime; see verdict()).
    from repro.symmetry.feasibility import FeasibilityVerdict

__all__ = [
    "SymmetryContext",
    "symmetry_context",
    "set_context_cache_limit",
    "context_cache_bytes",
    "clear_context_cache",
]

#: Default number of BFS sources / Shrink rows processed per block when
#: materializing dense arrays.  Working memory per block is
#: ``O(block * n)`` int64.
_DEFAULT_BLOCK = 512

#: Default number of (u, v) pairs batched into one product-graph BFS by
#: :meth:`SymmetryContext.shrink_pairs`.
_DEFAULT_PAIR_CHUNK = 32

#: Default cap on product-graph states visited by one
#: :meth:`SymmetryContext.shrink_pairs` chunk (int64 keys; the cap
#: bounds peak working memory at roughly ``3 * 8 * budget`` bytes
#: through the sort/merge steps).
_DEFAULT_STATE_BUDGET = 50_000_000


def _rank_by_first_occurrence(first_index: np.ndarray) -> np.ndarray:
    """Map sorted-unique class ids to first-occurrence order.

    ``np.unique`` numbers classes in sorted order; the scalar
    canonicalizers number them by first occurrence.  Given the first
    index of each sorted class, return the renumbering that restores
    first-occurrence order.
    """
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank


def _canonical_codes(values: np.ndarray) -> np.ndarray:
    """First-occurrence canonical codes of a 1-D integer array."""
    _, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    return _rank_by_first_occurrence(first)[inverse.reshape(-1)]


#: Largest value a packed refinement code may reach.
_PACK_LIMIT = int(np.iinfo(np.int64).max)


def _pack_columns(
    code: np.ndarray, columns: Iterable[np.ndarray], base: int
) -> np.ndarray:
    """One int64 code per row of ``(code, *columns)``, equal iff the
    rows are equal.

    ``code`` holds values in ``0..base-1`` and every column values in
    ``-1..base-2``, so ``code * base + column + 1`` pairs them exactly.
    Columns are packed in one after another while the product stays in
    int64; before it would overflow, ``np.unique`` renumbers the codes
    densely (below ``n <= base``) and packing goes on.
    """
    span = base
    for column in columns:
        if span > _PACK_LIMIT // base:
            code = np.unique(code, return_inverse=True)[1]
            span = base
        code = code * base + (column + 1)
        span *= base
    return code


def _first_of_runs(sorted_arr: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in an
    ascending array."""
    mask = np.empty(len(sorted_arr), dtype=bool)
    mask[:1] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=mask[1:])
    return mask


def _in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in an ascending int64 array."""
    if sorted_arr.size == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_arr, values)
    pos[pos == len(sorted_arr)] = len(sorted_arr) - 1
    return sorted_arr[pos] == values


def _as_index_array(values: object, n: int, what: str) -> np.ndarray:
    """Validate node indices as a 1-D int64 array in ``[0, n)``."""
    arr = np.asarray(values, dtype=np.int64).reshape(-1)
    if arr.size and ((arr < 0).any() or (arr >= n).any()):
        raise ValueError(f"{what} must lie in 0..{n - 1}")
    return arr


class SymmetryContext:
    """All symmetry facts of one port-labeled graph, as numpy arrays.

    Construction computes the view-color partition; distances and the
    all-pairs Shrink matrix are computed lazily on first access (the
    color partition alone serves many callers).  Use
    :func:`symmetry_context` to share contexts across call sites.

    For graphs too large for any dense ``n x n`` array, use the blocked
    API instead of the dense properties: :meth:`distances_block`,
    :meth:`shrink_pairs`, :meth:`verdicts_for_pairs`, and
    :meth:`shrink_all_into` with a memory-mapped output.
    """

    __slots__ = ("graph", "_colors", "_distances", "_shrink")

    def __init__(self, graph: PortLabeledGraph) -> None:
        self.graph = graph
        self._colors = self._compute_colors()
        self._colors.setflags(write=False)
        self._distances: np.ndarray | None = None
        self._shrink: np.ndarray | None = None

    # ------------------------------------------------------------------
    # View colors (array-based partition refinement)
    # ------------------------------------------------------------------
    def _compute_colors(self) -> np.ndarray:
        graph = self.graph
        n = graph.n
        succ = graph.succ_node_array
        entry = graph.succ_port_array
        valid = succ >= 0
        safe_succ = np.where(valid, succ, 0)
        # Entry ports are >= 0 wherever valid, so -1 padding encodes the
        # degree into the signature exactly as tuple length does in the
        # scalar signatures.
        padded_entry = np.where(valid, entry, -1)
        # Every signature column lies in -1..base-2 and every class id
        # below n < base, as _pack_columns requires.
        base = max(n, succ.shape[1]) + 1
        # The entry ports never change between rounds: pack them once.
        entry_code = _canonical_codes(
            _pack_columns(np.zeros(n, dtype=np.int64), padded_entry.T, base)
        )

        colors = _canonical_codes(graph.degrees)
        for _ in range(max(n - 1, 1)):
            # The signature (own color, then entry port and neighbor
            # color per port) as one code: equal codes iff equal rows.
            neighbor = np.where(valid, colors[safe_succ], -1)
            new_colors = _canonical_codes(
                _pack_columns(colors, [entry_code, *neighbor.T], base)
            )
            if np.array_equal(new_colors, colors):
                break
            colors = new_colors
        return colors

    @property
    def colors(self) -> np.ndarray:
        """Canonical view colors (read-only; same values as
        :func:`~repro.symmetry.views.view_classes`)."""
        return self._colors

    def color_list(self) -> list[int]:
        """Colors as a plain list (the scalar wrappers' return type)."""
        return [int(c) for c in self._colors]

    def are_symmetric(self, u: int, v: int) -> bool:
        """True iff ``u`` and ``v`` have equal views."""
        return bool(self._colors[u] == self._colors[v])

    def _color_groups(self) -> list[np.ndarray]:
        """Nodes grouped by color: canonical color order, members
        ascending.  ``O(n log n)`` — no dense ``n x n`` mask."""
        order = np.argsort(self._colors, kind="stable")
        sorted_colors = self._colors[order]
        cuts = np.flatnonzero(sorted_colors[1:] != sorted_colors[:-1]) + 1
        return np.split(order, cuts)

    def symmetric_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All unordered symmetric pairs as ``(us, vs)`` int64 arrays.

        Same pairs, same (row-major ``u`` then ``v``) order as
        :meth:`symmetric_pairs`, built by color bucketing in
        ``O(n log n + output)`` instead of an ``n x n`` mask.
        """
        groups = [g for g in self._color_groups() if len(g) > 1]
        if not groups:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        us_parts = []
        vs_parts = []
        for members in groups:
            iu, iv = np.triu_indices(len(members), k=1)
            us_parts.append(members[iu])
            vs_parts.append(members[iv])
        us = np.concatenate(us_parts)
        vs = np.concatenate(vs_parts)
        order = np.lexsort((vs, us))
        return us[order], vs[order]

    def symmetric_pairs(self) -> list[tuple[int, int]]:
        """All unordered pairs ``u < v`` of distinct symmetric nodes."""
        us, vs = self.symmetric_pair_arrays()
        return list(zip(us.tolist(), vs.tolist()))

    def orbits(self) -> list[list[int]]:
        """Nodes grouped by view color, in canonical color order."""
        return [group.tolist() for group in self._color_groups()]

    # ------------------------------------------------------------------
    # Distances (blocked frontier-compressed multi-source BFS)
    # ------------------------------------------------------------------
    def _bfs_block(
        self, sources: np.ndarray, max_level: int | None = None
    ) -> np.ndarray:
        """BFS distances from every node of ``sources`` at once.

        Frontier compression: the live frontier is a flat array of
        ``slot * n + node`` keys (slot = position within ``sources``),
        expanded per level with two CSR gathers.  Duplicates are removed
        in place, with the output itself as the owner array: every
        unvisited target cell is stamped with its candidate's mark
        ``-2 - i`` and only the candidate that reads its own mark back
        survives — no sort, no extra ``O(block * n)`` buffer.  Working
        memory is ``O(block * n)`` for the output plus ``O(frontier
        edges)`` transient — no dense adjacency, no matmul.

        With ``max_level``, the search stops after that level: nodes
        farther than ``max_level`` from their source stay ``-1``.
        """
        graph = self.graph
        n = graph.n
        indptr = graph.csr_indptr
        indices = graph.csr_indices
        sources = np.asarray(sources, dtype=np.int64)
        block = len(sources)
        dist = np.full((block, n), -1, dtype=np.int64)
        flat = dist.reshape(-1)
        # A key splits into its row offset slot * n and its node.
        frontier_row = np.arange(block, dtype=np.int64) * n
        frontier_node = sources
        flat[frontier_row + frontier_node] = 0
        level = 0
        while frontier_node.size and (max_level is None or level < max_level):
            level += 1
            starts = indptr[frontier_node]
            counts = indptr[frontier_node + 1] - starts
            keys = np.repeat(frontier_row, counts)
            keys += indices[repeat_ranges(starts, counts)]
            keys = keys[flat[keys] == -1]
            if keys.size == 0:
                break
            marks = -2 - np.arange(keys.size, dtype=np.int64)
            flat[keys] = marks
            keys = keys[flat[keys] == marks]
            flat[keys] = level
            frontier_node = keys % n
            frontier_row = keys - frontier_node
        return dist

    def distances_block(self, rows: object) -> np.ndarray:
        """BFS distance rows for ``rows`` (fresh ``(len(rows), n)``).

        The blocked entry point: computes only the requested source
        rows, in ``O(m + len(rows) * n)`` memory.  Served as a slice of
        the dense matrix when that is already materialized.
        """
        sources = _as_index_array(rows, self.graph.n, "distance rows")
        if self._distances is not None:
            return np.array(self._distances[sources])
        return self._bfs_block(sources)

    @property
    def distances(self) -> np.ndarray:
        """All-pairs shortest-path distances (``n x n``, computed once).

        A thin materialization of :meth:`distances_block` — the dense
        matrix is filled block of sources by block of sources, so the
        only ``n x n`` allocation is the result itself.  The array is
        shared and marked read-only — mutating it would poison the
        memoized kernel; copy before editing.
        """
        if self._distances is None:
            n = self.graph.n
            dist = np.empty((n, n), dtype=np.int64)
            block = min(n, _DEFAULT_BLOCK)
            for start in range(0, n, block):
                stop = min(start + block, n)
                dist[start:stop] = self._bfs_block(
                    np.arange(start, stop, dtype=np.int64)
                )
            self._distances = dist
            self._distances.setflags(write=False)
        return self._distances

    def _distance_rows(
        self, rows: np.ndarray, max_level: int | None = None
    ) -> np.ndarray:
        """Internal: distance rows, from the cache when present (whole
        rows then); otherwise BFS rows truncated at ``max_level``."""
        if self._distances is not None:
            return self._distances[rows]
        return self._bfs_block(rows, max_level)

    # ------------------------------------------------------------------
    # All-pairs Shrink (blocked value iteration, active-row worklist)
    # ------------------------------------------------------------------
    @property
    def shrink_all(self) -> np.ndarray:
        """``Shrink(u, v)`` for *every* ordered pair (``n x n``).

        Defined for arbitrary pairs by restricting to ports valid at
        both nodes (the paper's definition on symmetric pairs, where
        degrees agree along the way).  Symmetric by construction;
        0 on the diagonal.  Shared and read-only, like
        :attr:`distances`.  Materialized through
        :meth:`shrink_all_into`.
        """
        if self._shrink is None:
            self._shrink = self.shrink_all_into()
            self._shrink.setflags(write=False)
        return self._shrink

    def shrink_all_into(
        self, out: np.ndarray | None = None, *, block_size: int | None = None
    ) -> np.ndarray:
        """Fill ``out`` with the all-pairs Shrink matrix, blockwise.

        Value iteration on the ``n^2``-state product graph, processed
        in row blocks with an **active-row worklist**: row ``x`` of the
        matrix depends only on rows ``succ(x, p)`` (the graph neighbors
        of ``x``), so after a sweep only the neighbors of rows that
        changed need relaxing again.  Sparse graphs therefore converge
        in near-output time instead of re-sweeping all ``n`` rows until
        global quiescence.

        ``out`` may be any writable int64 ``(n, n)`` array — in
        particular a ``np.lib.format.open_memmap`` result, which keeps
        resident working memory at ``O(m + block * n)`` while the full
        matrix lives on disk.  The fixpoint is unique and monotone, so
        the result is bit-identical to the dense kernel regardless of
        ``block_size`` or sweep order.
        """
        graph = self.graph
        n = graph.n
        if out is None:
            out = np.empty((n, n), dtype=np.int64)
        if out.shape != (n, n) or out.dtype != np.int64:
            raise ValueError(
                f"out must be an int64 array of shape {(n, n)}, "
                f"got {out.dtype} {out.shape}"
            )
        block = min(n, int(block_size) if block_size is not None else _DEFAULT_BLOCK)
        if block <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")

        # Start from distances: Shrink(x, y) = min(dist(x, y),
        # min_p Shrink(succ(x, p), succ(y, p))).
        for start in range(0, n, block):
            stop = min(start + block, n)
            out[start:stop] = self._distance_rows(
                np.arange(start, stop, dtype=np.int64)
            )

        succ = graph.succ_node_array
        valid_cols = succ >= 0  # valid_cols[y, p]: y has a port p
        col_targets = np.where(valid_cols, succ, 0)
        indptr = graph.csr_indptr
        indices = graph.csr_indices
        max_degree = succ.shape[1]

        active = np.ones(n, dtype=bool)
        while True:
            changed = np.zeros(n, dtype=bool)
            for start in range(0, n, block):
                stop = min(start + block, n)
                sel = active[start:stop]
                if not sel.any():
                    continue
                rows = np.flatnonzero(sel).astype(np.int64) + start
                values = np.array(out[rows])
                row_changed = np.zeros(len(rows), dtype=bool)
                for p in range(max_degree):
                    row_targets = succ[rows, p]
                    has_port = row_targets >= 0
                    if not has_port.any():
                        continue
                    # pulled[i, y] = S[succ(rows[i], p), succ(y, p)]
                    pulled = np.asarray(out[row_targets[has_port]])[
                        :, col_targets[:, p]
                    ]
                    sub = values[has_port]
                    improved = valid_cols[:, p][None, :] & (pulled < sub)
                    if improved.any():
                        sub[improved] = pulled[improved]
                        values[has_port] = sub
                        row_changed[has_port] |= improved.any(axis=1)
                if row_changed.any():
                    hit = rows[row_changed]
                    out[hit] = values[row_changed]
                    changed[hit] = True
            hits = np.flatnonzero(changed).astype(np.int64)
            if hits.size == 0:
                break
            # A changed row S[z, :] can only improve rows x with
            # succ(x, p) == z for some p — the graph neighbors of z.
            starts = indptr[hits]
            neighbor_nodes = indices[repeat_ranges(starts, indptr[hits + 1] - starts)]
            active = np.zeros(n, dtype=bool)
            active[neighbor_nodes] = True
        return out

    def shrink_pairs(
        self,
        us: object,
        vs: object,
        *,
        pair_chunk: int | None = None,
        state_budget: int | None = None,
    ) -> np.ndarray:
        """Exact ``Shrink(u, v)`` for each listed pair, no dense arrays.

        Batched BFS over the product graph, ``pair_chunk`` pairs per
        batch, with live states as flat ``slot * n^2 + x * n + y`` keys
        (``n^2`` fits int64 up to n ~ 3e6, far past the target scale).
        Two exactness tricks keep huge graphs cheap:

        * ``Shrink(u, v) == 0`` iff a diagonal state ``(z, z)`` is
          product-reachable, so a pair finishes the moment its frontier
          touches the diagonal — no distance lookups at all;
        * pairs whose reach exhausts without touching the diagonal
          evaluate ``min dist(x, y)`` over their visited states
          *deferred*, bounded by the start state: ``Shrink(u, v) <=
          dist(u, v)``, so the start rows seed the minimum and the
          other states, grouped by left endpoint, read BFS rows
          truncated at the chunk's largest ``dist(u, v) - 1`` (whole
          rows when the dense distance matrix is already cached).
          The cost is one ball of that radius per distinct left
          endpoint, not one full row.

        ``state_budget`` caps visited product states per batch; graphs
        with giant symmetric reaches (e.g. large rings, where each
        pair's reach is ``Theta(n)`` states and never shrinks to the
        diagonal early) should lower ``pair_chunk`` or raise the
        budget.  Raises :class:`ValueError` when the cap is hit.
        """
        n = self.graph.n
        us_arr = _as_index_array(us, n, "pair endpoints")
        vs_arr = _as_index_array(vs, n, "pair endpoints")
        if us_arr.shape != vs_arr.shape:
            raise ValueError("us and vs must have equal length")
        if self._shrink is not None:
            return np.array(self._shrink[us_arr, vs_arr])
        chunk = pair_chunk if pair_chunk is not None else _DEFAULT_PAIR_CHUNK
        if chunk <= 0:
            raise ValueError(f"pair_chunk must be positive, got {pair_chunk}")
        budget = state_budget if state_budget is not None else _DEFAULT_STATE_BUDGET
        out = np.empty(len(us_arr), dtype=np.int64)
        for start in range(0, len(us_arr), chunk):
            stop = min(start + chunk, len(us_arr))
            out[start:stop] = self._shrink_pairs_chunk(
                us_arr[start:stop], vs_arr[start:stop], budget
            )
        return out

    def _shrink_pairs_chunk(
        self, us: np.ndarray, vs: np.ndarray, state_budget: int
    ) -> np.ndarray:
        graph = self.graph
        n = graph.n
        nn = np.int64(n) * np.int64(n)
        count = len(us)
        degrees = graph.degrees
        succ = graph.succ_node_array

        # n is a strict upper bound on any distance, so it doubles as
        # "no value" for the deferred minimum.
        result = np.full(count, n, dtype=np.int64)
        finished = np.zeros(count, dtype=bool)
        diagonal_start = us == vs
        result[diagonal_start] = 0
        finished[diagonal_start] = True

        slots = np.arange(count, dtype=np.int64)
        start_keys = slots * nn + us * np.int64(n) + vs
        visited = np.sort(start_keys)
        frontier = start_keys[~finished]
        total_states = len(visited)
        while frontier.size:
            slot = frontier // nn
            rest = frontier - slot * nn
            x = rest // n
            y = rest - x * n
            limit = np.minimum(degrees[x], degrees[y])
            state_index = np.repeat(
                np.arange(len(frontier), dtype=np.int64), limit
            )
            ports = repeat_ranges(np.zeros(len(frontier), dtype=np.int64), limit)
            next_x = succ[x[state_index], ports]
            next_y = succ[y[state_index], ports]
            # Dedup by sort plus a first-of-run mask: on plain int64
            # input numpy 2.x's np.unique hashes, tens of times slower
            # than sorting at millions of keys.
            keys = np.sort(slot[state_index] * nn + next_x * np.int64(n) + next_y)
            keys = keys[_first_of_runs(keys)]
            keys = keys[~_in_sorted(visited, keys)]
            if keys.size == 0:
                break
            total_states += keys.size
            if total_states > state_budget:
                raise ValueError(
                    f"shrink_pairs state budget exceeded "
                    f"({total_states} > {state_budget}); lower pair_chunk "
                    f"or raise state_budget"
                )
            visited = np.sort(np.concatenate([visited, keys]))
            key_slot = keys // nn
            key_rest = keys - key_slot * nn
            key_x = key_rest // n
            key_y = key_rest - key_x * n
            diagonal = key_x == key_y
            if diagonal.any():
                solved = key_slot[diagonal]
                result[solved] = 0
                finished[solved] = True
            frontier = keys[~finished[key_slot]]

        pending = ~finished
        if pending.any():
            # Exhausted reaches: min dist over every visited state of
            # the pending slots.  The start state is in the reach, so
            # Shrink <= dist(u, v): seed with the start rows (one small
            # block), then fetch the other rows only out to the largest
            # bound minus one — anything farther cannot lower a minimum.
            pending_slots = np.flatnonzero(pending)
            start_rows = self._distance_rows(us[pending_slots])
            bound = start_rows[np.arange(len(pending_slots)), vs[pending_slots]]
            result[pending_slots] = bound
            max_level = int(bound.max()) - 1
            keep = pending[visited // nn]
            keys = visited[keep]
            key_slot = keys // nn
            key_rest = keys - key_slot * nn
            key_x = key_rest // n
            key_y = key_rest - key_x * n
            order = np.argsort(key_x, kind="stable")
            key_x = key_x[order]
            key_y = key_y[order]
            key_slot = key_slot[order]
            first = np.flatnonzero(_first_of_runs(key_x))
            unique_x = key_x[first]
            bounds = np.concatenate([first, [len(key_x)]])
            row_block = min(len(unique_x), _DEFAULT_BLOCK)
            for c0 in range(0, len(unique_x), row_block):
                c1 = min(c0 + row_block, len(unique_x))
                rows = unique_x[c0:c1]
                dist_rows = self._distance_rows(rows, max_level)
                lo = bounds[c0]
                hi = bounds[c1]
                local = np.searchsorted(rows, key_x[lo:hi])
                values = dist_rows[local, key_y[lo:hi]]
                # -1 means "farther than max_level": no value.
                values[values < 0] = n
                np.minimum.at(result, key_slot[lo:hi], values)
        return result

    def shrink_value(self, u: int, v: int) -> int:
        """``Shrink(u, v)`` of Definition 3.1 (0 when ``u == v``)."""
        return int(self.shrink_all[u, v])

    def shrink_matrix(self) -> np.ndarray:
        """Shrink for symmetric pairs, ``-1`` for non-symmetric pairs,
        0 on the diagonal — the :func:`repro.symmetry.shrink_matrix`
        contract.  Fills through the color-bucketed pair arrays: no
        dense boolean mask, no ``np.where`` temporary."""
        n = self.graph.n
        out = np.full((n, n), -1, dtype=np.int64)
        np.fill_diagonal(out, 0)
        us, vs = self.symmetric_pair_arrays()
        if us.size:
            shrink = self.shrink_all
            out[us, vs] = shrink[us, vs]
            out[vs, us] = shrink[vs, us]
        return out

    def shrink_witness(
        self, u: int, v: int
    ) -> tuple[int, tuple[int, ...], tuple[int, int]]:
        """``Shrink(u, v)`` with a shortest witness sequence.

        Same BFS (and hence the same witness) as the scalar
        :func:`repro.symmetry.shrink.shrink_witness`, fed from the
        cached distance matrix.
        """
        if u == v:
            return 0, (), (u, v)
        graph = self.graph
        dist = self.distances
        succ = graph.succ_node_array
        degrees = graph.degrees

        start = (u, v)
        parent: dict[tuple[int, int], tuple[tuple[int, int], int] | None]
        parent = {start: None}
        best_pair = start
        best = int(dist[u, v])
        queue: deque[tuple[int, int]] = deque([start])
        while queue:
            x, y = queue.popleft()
            limit = int(min(degrees[x], degrees[y]))
            for p in range(limit):
                nxt = (int(succ[x, p]), int(succ[y, p]))
                if nxt in parent:
                    continue
                parent[nxt] = ((x, y), p)
                d = int(dist[nxt[0], nxt[1]])
                if d < best:
                    best = d
                    best_pair = nxt
                    if best == 0:
                        queue.clear()
                        break
                queue.append(nxt)

        alpha: list[int] = []
        cursor: tuple[int, int] | None = best_pair
        while parent[cursor] is not None:  # type: ignore[index]
            prev, port = parent[cursor]  # type: ignore[misc, index]
            alpha.append(port)
            cursor = prev
        alpha.reverse()
        return best, tuple(alpha), best_pair

    # ------------------------------------------------------------------
    # Feasibility (Corollary 3.1)
    # ------------------------------------------------------------------
    def verdict(self, u: int, v: int, delta: int) -> "FeasibilityVerdict":
        """The Corollary 3.1 verdict for STIC ``[(u, v), delta]``."""
        # Local import: repro.symmetry.feasibility wraps this module.
        from repro.symmetry.feasibility import classify_from_symmetry

        if delta < 0:
            raise ValueError(f"delay must be non-negative, got {delta}")
        if u == v:
            raise ValueError("the model requires distinct initial nodes")
        if not self.are_symmetric(u, v):
            return classify_from_symmetry(False, None, delta)
        return classify_from_symmetry(True, self.shrink_value(u, v), delta)

    def verdicts_for_pairs(
        self, us: object, vs: object, delta: int
    ) -> "list[FeasibilityVerdict]":
        """Corollary 3.1 verdicts for a batch of pairs, scale-safely.

        Same per-pair results as :meth:`verdict`, but Shrink values are
        fetched through :meth:`shrink_pairs` for the symmetric pairs
        only — non-symmetric pairs never touch the product graph and
        nothing dense is materialized.
        """
        from repro.symmetry.feasibility import classify_from_symmetry

        if delta < 0:
            raise ValueError(f"delay must be non-negative, got {delta}")
        n = self.graph.n
        us_arr = _as_index_array(us, n, "pair endpoints")
        vs_arr = _as_index_array(vs, n, "pair endpoints")
        if us_arr.shape != vs_arr.shape:
            raise ValueError("us and vs must have equal length")
        if (us_arr == vs_arr).any():
            raise ValueError("the model requires distinct initial nodes")
        symmetric = self._colors[us_arr] == self._colors[vs_arr]
        shrinks = np.zeros(len(us_arr), dtype=np.int64)
        if symmetric.any():
            shrinks[symmetric] = self.shrink_pairs(
                us_arr[symmetric], vs_arr[symmetric]
            )
        return [
            classify_from_symmetry(True, int(value), delta)
            if is_symmetric
            else classify_from_symmetry(False, None, delta)
            for is_symmetric, value in zip(symmetric.tolist(), shrinks.tolist())
        ]

    # ------------------------------------------------------------------
    # Cache accounting
    # ------------------------------------------------------------------
    def retained_bytes(self) -> int:
        """Approximate bytes this context pins while cached.

        Sums the kernel's retained numpy buffers (colors plus any
        materialized dense matrices) and a small fixed overhead for the
        Python object graph.  Lazy materialization grows this after
        construction, which is why :func:`symmetry_context` re-enforces
        the cache budget on every call.
        """
        total = _ENTRY_OVERHEAD_BYTES + self._colors.nbytes
        if self._distances is not None:
            total += self._distances.nbytes
        if self._shrink is not None:
            total += self._shrink.nbytes
        return total


# Contexts are cached per graph *value* (PortLabeledGraph hashes by its
# canonical edge list), so equal graphs constructed independently share
# one kernel.  The LRU is bounded by approximate retained *bytes*, not
# entry count: dense kernels are quadratic, so one million-node context
# must evict many small ones (and a flat entry cap would let 64 huge
# kernels pin ~80 GB).  Lazy arrays grow after insertion, so the bound
# is re-enforced on every lookup.
_ENTRY_OVERHEAD_BYTES = 4096
_CONTEXT_CACHE: OrderedDict[PortLabeledGraph, SymmetryContext] = OrderedDict()
_CONTEXT_CACHE_MAX_BYTES = 256 * 1024 * 1024


def set_context_cache_limit(max_bytes: int) -> int:
    """Set the context cache byte budget; returns the previous budget.

    Eviction happens immediately and on every subsequent
    :func:`symmetry_context` call.  The most recently served context is
    always retained, even when it alone exceeds the budget.
    """
    global _CONTEXT_CACHE_MAX_BYTES
    if max_bytes <= 0:
        raise ValueError(f"cache limit must be positive, got {max_bytes}")
    previous = _CONTEXT_CACHE_MAX_BYTES
    _CONTEXT_CACHE_MAX_BYTES = int(max_bytes)
    _evict_to_limit(keep=None)
    return previous


def context_cache_bytes() -> int:
    """Approximate bytes currently retained by the context cache."""
    return sum(context.retained_bytes() for context in _CONTEXT_CACHE.values())


def clear_context_cache() -> None:
    """Drop every cached context (test isolation helper)."""
    _CONTEXT_CACHE.clear()


def _evict_to_limit(keep: SymmetryContext | None) -> None:
    total = context_cache_bytes()
    while total > _CONTEXT_CACHE_MAX_BYTES and _CONTEXT_CACHE:
        victim_graph = None
        victim = None
        for graph, context in _CONTEXT_CACHE.items():
            if context is not keep:
                victim_graph = graph
                victim = context
                break
        if victim_graph is None or victim is None:
            break  # only the just-served context remains
        del _CONTEXT_CACHE[victim_graph]
        total -= victim.retained_bytes()


def symmetry_context(graph: PortLabeledGraph) -> SymmetryContext:
    """The (memoized) :class:`SymmetryContext` of ``graph``."""
    context = _CONTEXT_CACHE.get(graph)
    if context is None:
        context = SymmetryContext(graph)
        _CONTEXT_CACHE[graph] = context
    else:
        _CONTEXT_CACHE.move_to_end(graph)
    _evict_to_limit(keep=context)
    return context
