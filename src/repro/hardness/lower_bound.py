"""Theorem 4.1 — the exponential lower bound, reproduced executably.

The theorem: any algorithm achieving rendezvous for every STIC
``[(r, v), D]`` in ``Q̂_h`` (``D = 2k``, ``h = 2D``, ``v in Z``) needs
time at least ``2^(k-1)``.

Because ``Q̂_h`` is 4-regular, anonymous, and N-S/E-W port-consistent,
*every* deterministic algorithm on it degenerates to an oblivious word
over ``{stay, N, E, S, W}`` — conditionals have nothing to condition
on.  That makes the theorem directly machine-checkable at small scale
and measurable at large scale:

* :func:`dedicated_word` constructs the natural *optimal-shape*
  algorithm for the ``Z`` family (enumerate ``γ·γ`` excursions with
  backtracking); its worst-case meeting time is ``THETA(k 2^k)``,
  exhibiting the exponential growth the theorem forces.
* :func:`simulate_word` / :func:`simulate_word_symbolic` run an
  oblivious word from a STIC — on the concrete graph, or symbolically
  on the infinite-ish tree (positions as reduced root paths, valid
  while walks stay inside ``Q_h``, which the lower-bound argument
  itself guarantees for horizons below the leaf distance).
* :func:`worst_case_meeting_time` gets the meeting time for every
  ``v in Z`` at once.  Away from the leaves'
  cycle ports ``Q_h`` is the Cayley graph of the free group on
  ``{N, E}`` and a reduced root path is a group element, so with
  ``R(t)`` the reduced form of the word's first ``t`` letters the
  agents meet at round ``t`` iff ``R(t) · R(t - D)^-1 == v``: one pass
  over the rounds serves all ``2^k`` targets.  An exactness guard
  (no walk can leave ``Q_h``) decides when that pass applies; outside
  it the symbolic walks run per ``v``, and they stay the oracle.
* :func:`midpoint_dichotomy` checks the proof's pivot on concrete
  runs: before meeting, (at least) one of the agents passes through
  the midpoint ``M(v)``.
* :func:`theoretical_bound` is the paper's ``2^(k-1)``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.graphs.port_graph import PortLabeledGraph
from repro.hardness.qtree import E, N, QTree, S, W, opposite
from repro.hardness.zset import ZMember, z_paths

__all__ = [
    "STAY",
    "dedicated_word",
    "simulate_word",
    "simulate_word_symbolic",
    "OblivousOutcome",
    "theoretical_bound",
    "midpoint_dichotomy",
    "worst_case_meeting_time",
]

#: The "stay put" letter of an oblivious algorithm word.
STAY = -1

_LETTERS = frozenset((STAY, N, E, S, W))
#: ``_INVERSE[x]`` is ``opposite(x)``: the free-group inverse letter.
_INVERSE = (S, W, N, E)


def theoretical_bound(k: int) -> int:
    """The paper's lower bound ``2^(k-1)`` on rendezvous time."""
    return 2 ** (k - 1)


def dedicated_word(k: int) -> tuple[int, ...]:
    """The natural dedicated algorithm for the family ``{[(r, v), 2k]}``.

    For each ``γ in {N, E}^k`` in lex order: walk ``γ·γ`` (out to the
    candidate ``v``), then walk back reversing with opposite letters.
    Each block has ``4k`` letters and starts/ends at the agent's home.

    Alignment argument (mirrors Lemma 3.2's): with delay ``D = 2k``,
    when the earlier agent's block for the true ``γ*`` reaches
    ``v = γ*γ*(r)`` at block offset ``2k``, the later agent — exactly
    half a block behind — is at offset 0 of a block, i.e. sitting at
    its home ``v``.  Rendezvous is therefore achieved for every
    ``v in Z`` within ``4k * 2^k`` rounds, while Theorem 4.1 shows no
    algorithm can beat ``2^(k-1)``.
    """
    word: list[int] = []
    for path in z_paths(k):
        word.extend(path)
        word.extend(opposite(p) for p in reversed(path))
    return tuple(word)


@dataclass(frozen=True)
class OblivousOutcome:
    """Result of running an oblivious word from one STIC."""

    met: bool
    meeting_time: int | None  # global round
    time_from_later: int | None
    visited_a: tuple[int, ...]  # positions per round (node or path key)
    visited_b: tuple[int, ...]


def _letters_at(word: tuple[int, ...], t: int) -> int:
    """Word letter executed at local time ``t`` (word repeats forever)."""
    return word[t % len(word)]


def simulate_word(
    graph: PortLabeledGraph,
    word: tuple[int, ...],
    u: int,
    v: int,
    delta: int,
    max_rounds: int,
) -> OblivousOutcome:
    """Run the same oblivious word from ``u`` (round 0) and ``v``
    (round ``delta``) on a concrete 4-regular graph."""
    pos_a, pos_b = u, v
    hist_a, hist_b = [u], [v]
    for t in range(max_rounds):
        if t >= delta and pos_a == pos_b:
            return OblivousOutcome(True, t, t - delta, tuple(hist_a), tuple(hist_b))
        la = _letters_at(word, t)
        if la != STAY:
            pos_a = graph.succ(pos_a, la)
        if t >= delta:
            lb = _letters_at(word, t - delta)
            if lb != STAY:
                pos_b = graph.succ(pos_b, lb)
        hist_a.append(pos_a)
        hist_b.append(pos_b)
    met = max_rounds >= delta and pos_a == pos_b
    return OblivousOutcome(
        met,
        max_rounds if met else None,
        max_rounds - delta if met else None,
        tuple(hist_a),
        tuple(hist_b),
    )


def _step_path(path: tuple[int, ...], letter: int, h: int) -> tuple[int, ...]:
    """Apply one letter to a reduced root path inside ``Q_h``.

    Valid while the walk stays in the tree: at internal nodes every
    letter is available (parent or child edge); at leaves only the
    parent letter is — violations raise, which is itself a check that
    the workload respects the tree-confinement premise of the proof.
    """
    if letter == STAY:
        return path
    if path and path[-1] == opposite(letter):
        return path[:-1]
    if len(path) >= h:
        raise ValueError(
            "walk tried to leave Q_h through a leaf's cycle port; "
            "symbolic simulation only covers tree-confined horizons"
        )
    return path + (letter,)


def simulate_word_symbolic(
    h: int,
    word: tuple[int, ...],
    start_a: tuple[int, ...],
    start_b: tuple[int, ...],
    delta: int,
    max_rounds: int,
) -> OblivousOutcome:
    """Run an oblivious word on ``Q_h`` *without materializing it*.

    Positions are reduced port paths from the root (node identities in
    a tree), enabling the lower-bound sweeps at heights whose node
    count (``~3^h``) is far beyond what can be built.
    """
    pos_a, pos_b = tuple(start_a), tuple(start_b)
    hist_a, hist_b = [pos_a], [pos_b]
    for t in range(max_rounds):
        if t >= delta and pos_a == pos_b:
            return OblivousOutcome(True, t, t - delta, tuple(hist_a), tuple(hist_b))
        la = _letters_at(word, t)
        pos_a = _step_path(pos_a, la, h)
        if t >= delta:
            lb = _letters_at(word, t - delta)
            pos_b = _step_path(pos_b, lb, h)
        hist_a.append(pos_a)
        hist_b.append(pos_b)
    met = max_rounds >= delta and pos_a == pos_b
    return OblivousOutcome(
        met,
        max_rounds if met else None,
        max_rounds - delta if met else None,
        tuple(hist_a),
        tuple(hist_b),
    )


def _path_code(path: tuple[int, ...]) -> int:
    """A root path's letters read as base-4 digits, first letter high."""
    code = 0
    for x in path:
        code = code * 4 + x
    return code


def _free_group_meeting_times(
    h: int,
    word: tuple[int, ...],
    targets: list[tuple[int, ...]],
    delta: int,
    horizon: int,
) -> list[int | None] | None:
    """``time_from_later`` of ``simulate_word_symbolic(h, word, (), p,
    delta, horizon)`` for every target ``p`` (root paths of one
    length, such as the paths of ``Z``), in one pass over the rounds,
    or ``None`` when that pass would not be exact.

    ``R(t)``, the reduced form of the word's first ``t`` letters, is
    kept as a node of the trie the prefixes span.  Agent ``a`` sits at
    ``R(t)``, agent ``b`` at ``p · R(t - delta)``, so they meet at
    round ``t`` iff ``R(t) · R(t - delta)^-1 == p``.  Writing
    ``R(t) = x·c`` and ``R(t - delta) = y·c`` with ``c`` their longest
    common suffix, the product's reduced form is ``x·y^-1``: the pass
    strips common suffixes by walking both trie nodes up together, then
    looks the product's base-4 code up among the targets'.

    Exactness guard: positions are free-group elements only while no
    walk leaves ``Q_h``.  ``|R(t)| <= max|R|`` and
    ``|p · R(s)| <= |p| + max|R|``, so the pass is exact when
    ``|p| + max|R| <= h``; otherwise (or for letters outside the
    compass and ``STAY``, or codes that would overflow int64) it
    declines and the caller runs the scalar walks.
    """
    length = len(targets[0])  # every target has this length
    if not word or any(x not in _LETTERS for x in word) or 2 * length > 62:
        return None
    n_letters = len(word)
    parent, letter, depth = [0], [-1], [0]
    code_fwd, code_inv = [0], [0]
    children: dict[tuple[int, int], int] = {}
    at = [0] * (horizon + 1)
    node = 0
    for t in range(horizon):
        x = word[t % n_letters]
        if x != STAY:
            if letter[node] == _INVERSE[x]:
                node = parent[node]
            else:
                child = children.get((node, x))
                if child is None:
                    child = len(parent)
                    children[node, x] = child
                    d = depth[node]
                    parent.append(node)
                    letter.append(x)
                    depth.append(d + 1)
                    if d < length:
                        code_fwd.append(code_fwd[node] * 4 + x)
                        code_inv.append(code_inv[node] + _INVERSE[x] * 4**d)
                    else:
                        code_fwd.append(0)
                        code_inv.append(0)
                node = child
        at[t + 1] = node
    if length + max(depth) > h:
        return None

    par = np.asarray(parent, dtype=np.int64)
    let = np.asarray(letter, dtype=np.int64)
    dep = np.asarray(depth, dtype=np.int64)
    nodes = np.asarray(at, dtype=np.int64)
    # Lane s pairs round t = delta + s: R(t) against R(s).
    i = nodes[delta:].copy()
    j = nodes[: len(i)].copy()
    live = np.flatnonzero(i)
    while len(live):
        ii, jj = i[live], j[live]
        live = live[(let[ii] == let[jj]) & (ii != 0)]
        i[live] = par[i[live]]
        j[live] = par[j[live]]
    hits = np.flatnonzero(dep[i] + dep[j] == length)
    ih, jh = i[hits], j[hits]
    fwd = np.asarray(code_fwd, dtype=np.int64)
    inv = np.asarray(code_inv, dtype=np.int64)
    codes = (fwd[ih] << (2 * dep[jh])) + inv[jh]
    wanted = {_path_code(p): index for index, p in enumerate(targets)}
    times: list[int | None] = [None] * len(targets)
    for s, code in zip(hits.tolist(), codes.tolist()):
        index = wanted.get(code)
        if index is not None and times[index] is None:
            times[index] = s
    return times


def _z_meeting_times(
    k: int, *, word: tuple[int, ...] | None = None
) -> Iterator[int | None]:
    """The word's rendezvous time from the later start, per ``v in Z``.

    One STIC ``[(r, v), 2k]`` per path of :func:`z_paths` (in its
    order) on ``Q_h`` with ``h = 4k``, over a horizon of the word's
    length plus ``10k`` rounds; ``None`` where no meeting falls within
    it.  Each value equals ``simulate_word_symbolic(h, word, (), v,
    2k, horizon).time_from_later``.  All ``2^k`` of them come from one
    free-group pass over the rounds when its exactness guard holds;
    otherwise each is the scalar walk, run lazily in path order, so a
    walk that leaves ``Q_h`` raises the scalar's error at its path.
    """
    if word is None:
        word = dedicated_word(k)
    h = 4 * k
    delta = 2 * k
    horizon = len(word) + 8 * k + delta
    paths = z_paths(k)
    times = _free_group_meeting_times(h, word, paths, delta, horizon)
    if times is not None:
        yield from times
        return
    for path in paths:
        yield simulate_word_symbolic(h, word, (), path, delta, horizon).time_from_later


def worst_case_meeting_time(k: int, *, word: tuple[int, ...] | None = None) -> int:
    """Max over ``v in Z`` of the dedicated word's rendezvous time.

    Measured from the later agent's start on ``Q_h`` with
    ``h = 2D = 4k`` (:func:`_z_meeting_times`: one free-group pass, or
    the symbolic walks it falls back to).  This is the measured curve
    that EXPERIMENTS.md compares against ``2^(k-1)``.
    """
    worst = 0
    for path, time in zip(z_paths(k), _z_meeting_times(k, word=word)):
        if time is None:
            raise AssertionError(f"dedicated word failed to meet for v={path}")
        worst = max(worst, time)
    return worst


def midpoint_dichotomy(
    tree: QTree,
    member: ZMember,
    outcome: OblivousOutcome,
) -> tuple[bool, bool]:
    """Check the proof's dichotomy on a concrete run.

    Returns ``(a_visited_midpoint, b_visited_midpoint)`` restricted to
    rounds up to the meeting; Theorem 4.1's argument implies at least
    one of them is true for every successful run.
    """
    if not outcome.met:
        raise ValueError("dichotomy is only defined for successful runs")
    cut = outcome.meeting_time + 1
    mid = member.midpoint
    return (
        mid in outcome.visited_a[:cut],
        mid in outcome.visited_b[:cut],
    )
