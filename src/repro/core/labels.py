"""View-based labels for AsymmRV (substitute for [20]).

See :mod:`repro.core.profile` for the substitution argument.

Non-symmetric nodes of an ``n``-node graph have different views
truncated at depth ``n - 1`` (Norris' theorem).  Each agent therefore
derives a *label* from its own truncated view; distinct views yield
distinct labels, and the time-multiplexing scheduler of
:mod:`repro.core.schedules` turns any label difference into a
guaranteed meeting.

The encoding is the canonical *minimized view DAG*: truncated views
are exponentially large as trees but have at most ``n * (depth + 1)``
distinct subtrees, so hash-consing them bottom-up (in deterministic
postorder) gives a polynomial-size canonical form.  Two computation
paths produce bit-identical encodings:

* :func:`encode_graph_view` — "oracle" mode: walks the graph data
  structure directly (polynomial time; the agent is charged a fixed
  round budget while waiting in place).
* :func:`encode_view_tree` — "faithful" mode: encodes a view tree that
  the agent physically reconstructed by walking all paths of the given
  depth (see :func:`reconstruct_view`), exponential but
  perception-only.

Labels are padded to the fixed width :func:`max_label_bits` (reference
mode) or hashed to a small fixed width (tuned mode; collisions would
void the guarantee, so harnesses certify label distinctness per run).
"""

from __future__ import annotations

from collections.abc import Generator, Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import Action, Move, Perception
from repro.util.lcg import SplitMix64, derive_seed

__all__ = [
    "encode_graph_view",
    "encode_view_tree",
    "reconstruct_view",
    "view_reconstruction_budget",
    "max_label_bits",
    "pad_bits",
    "unpad_bits",
    "hash_bits",
]

_FIELD = 16  # fixed field width; all quantities here are < 2^16


def _emit_row(bits: list[int], degree: int, children: tuple | None) -> None:
    bits.append(0 if children is None else 1)
    bits.extend(_field(degree))
    if children is not None:
        for entry, child_id in children:
            bits.extend(_field(entry))
            bits.extend(_field(child_id))


def _field(value: int) -> tuple[int, ...]:
    if not (0 <= value < (1 << _FIELD)):
        raise ValueError(f"field value {value} out of range")
    return tuple((value >> shift) & 1 for shift in range(_FIELD - 1, -1, -1))


def _encode_rows(rows: list[tuple[int, tuple | None]], root_id: int) -> tuple[int, ...]:
    bits: list[int] = []
    bits.extend(_field(len(rows)))
    for degree, children in rows:
        _emit_row(bits, degree, children)
    bits.extend(_field(root_id))
    return tuple(bits)


def encode_graph_view(graph: PortLabeledGraph, v: int, depth: int) -> tuple[int, ...]:
    """Canonical bit encoding of the depth-``depth`` view from ``v``.

    Polynomial time and size: memoized on ``(node, remaining_depth)``,
    with canonical ids assigned at first postorder appearance of each
    distinct sub-view signature.
    """
    ids: dict[object, int] = {}
    rows: list[tuple[int, tuple | None]] = []
    memo: dict[tuple[int, int], int] = {}

    def visit(node: int, remaining: int) -> int:
        key = (node, remaining)
        if key in memo:
            return memo[key]
        degree = graph.degree(node)
        if remaining == 0:
            sig: object = ("leaf", degree)
            children = None
        else:
            child_ids = tuple(
                (
                    graph.entry_port(node, p),
                    visit(graph.succ(node, p), remaining - 1),
                )
                for p in range(degree)
            )
            sig = ("node", degree, child_ids)
            children = child_ids
        if sig not in ids:
            ids[sig] = len(rows)
            rows.append((degree, children))
        memo[key] = ids[sig]
        return ids[sig]

    root = visit(v, depth)
    return _encode_rows(rows, root)


def encode_view_tree(tree: tuple) -> tuple[int, ...]:
    """Canonical bit encoding of a materialized truncated view tree.

    ``tree`` uses the :func:`repro.symmetry.views.truncated_view`
    format: ``(degree, None)`` at the cutoff, else
    ``(degree, ((port, entry, subtree), ...))`` with ports in order.
    Produces bit-identical output to :func:`encode_graph_view` on the
    same view.
    """
    ids: dict[object, int] = {}
    rows: list[tuple[int, tuple | None]] = []

    def visit(node: tuple) -> int:
        degree, children = node
        if children is None:
            sig: object = ("leaf", degree)
            encoded = None
        else:
            child_ids = tuple(
                (entry, visit(sub)) for _port, entry, sub in children
            )
            sig = ("node", degree, child_ids)
            encoded = child_ids
        if sig not in ids:
            ids[sig] = len(rows)
            rows.append((degree, encoded))
        return ids[sig]

    root = visit(tree)
    return _encode_rows(rows, root)


def reconstruct_view(
    percept: Perception, depth: int
) -> Generator[Action, Perception, tuple[Perception, tuple]]:
    """Agent subroutine: physically reconstruct the truncated view.

    Enumerates all walks of length ``depth`` from the current node in
    lexicographic order (odometer, as in ``Explore``), recording the
    degree and entry port at each step, and assembles the view tree in
    :func:`repro.symmetry.views.truncated_view` format.

    Returns ``(final_perception, view_tree)``; starts and ends at the
    same node.  Cost is bounded by :func:`view_reconstruction_budget`.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    root_degree = percept.degree
    if depth == 0 or root_degree == 0:
        return percept, (root_degree, None)

    # children[path] accumulates the discovered tree as nested dicts:
    # {"deg": int, "kids": {port: [entry, subdict]}}.
    root: dict = {"deg": root_degree, "kids": {}}
    ports = [0] * depth
    while True:
        degrees = [0] * depth
        entries = [0] * depth
        cursor = root
        for i in range(depth):
            degrees[i] = percept.degree
            percept = yield Move(ports[i])
            entries[i] = percept.entry_port
            nxt = cursor["kids"].get(ports[i])
            if nxt is None:
                nxt = [entries[i], {"deg": percept.degree, "kids": {}}]
                cursor["kids"][ports[i]] = nxt
            else:
                nxt[1]["deg"] = percept.degree
            cursor = nxt[1]
        for i in range(depth - 1, -1, -1):
            percept = yield Move(entries[i])
        level = depth - 1
        while level >= 0 and ports[level] + 1 >= degrees[level]:
            level -= 1
        if level < 0:
            break
        ports[level] += 1
        for i in range(level + 1, depth):
            ports[i] = 0

    def freeze(node: dict, remaining: int) -> tuple:
        if remaining == 0:
            return (node["deg"], None)
        children = tuple(
            (port, node["kids"][port][0], freeze(node["kids"][port][1], remaining - 1))
            for port in sorted(node["kids"])
        )
        return (node["deg"], children)

    return percept, freeze(root, depth)


def view_reconstruction_budget(n: int, depth: int) -> int:
    """Upper bound on the rounds :func:`reconstruct_view` can take on
    any graph of size ``<= n`` (at most ``(n - 1)^depth`` walks, each
    costing ``2 * depth`` rounds)."""
    if depth == 0:
        return 0
    return 2 * depth * max(n - 1, 1) ** depth


def max_label_bits(n: int, depth: int) -> int:
    """Width every label for assumed size ``n`` is padded to.

    Row count is at most ``n * (depth + 1)`` (distinct sub-views per
    remaining-depth level); each row costs ``1 + 16`` bits plus
    ``32`` per port; plus the row-count and root-id fields and one
    bit for the self-delimiting pad marker.
    """
    max_rows = n * (depth + 1)
    row_bits = 1 + _FIELD + (max(n - 1, 1)) * 2 * _FIELD
    return 2 * _FIELD + max_rows * row_bits + 1


def pad_bits(bits: Sequence[int], width: int) -> tuple[int, ...]:
    """Pad to ``width`` with the self-delimiting ``1 0...0`` suffix.

    Injective for inputs of length ``< width``: the original is
    recovered by stripping trailing zeros and one final 1.
    """
    if len(bits) >= width:
        raise ValueError(f"label of {len(bits)} bits does not fit width {width}")
    return tuple(bits) + (1,) + (0,) * (width - len(bits) - 1)


def unpad_bits(padded: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`pad_bits`."""
    i = len(padded) - 1
    while i >= 0 and padded[i] == 0:
        i -= 1
    if i < 0 or padded[i] != 1:
        raise ValueError("malformed padding: no 1 marker found")
    return tuple(padded[:i])


def hash_bits(bits: Sequence[int], width: int) -> tuple[int, ...]:
    """Deterministic ``width``-bit digest of a bit string (tuned mode).

    Not injective in general — harnesses that use hashed labels must
    certify that the two agents' labels actually differ.
    """
    acc = derive_seed("label", len(bits))
    value = 0
    for i, bit in enumerate(bits):
        if bit:
            value ^= SplitMix64(acc ^ i).next_u64()
    rng = SplitMix64(value)
    return tuple(rng.randrange(2) for _ in range(width))
