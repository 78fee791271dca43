"""``AsymmRV(n)`` — rendezvous from non-symmetric positions ([20]).

Substitution (see :mod:`repro.core.profile`): instead of the log-space machinery of
Czyzowicz–Kosowski–Pelc we implement the classical label +
time-multiplexing scheme, which provides the same *guarantee*
(Proposition 3.1: from non-symmetric positions in a graph of size
``n``, rendezvous within a computable bound for **any** delay):

1. **Label acquisition** (fixed ``2 * view_budget`` rounds): the agent
   derives a label from its own truncated view — physically
   reconstructing it by walking (``faithful`` mode), or receiving the
   view-determined value from the harness while waiting in place
   (``oracle`` mode; charged the same budget).  Non-symmetric nodes
   have different views at depth ``n - 1``, hence different labels.
2. **Scheduling**: the label is turned into a periodic activity word
   (:mod:`repro.core.schedules`); in active slots the agent traverses
   the whole graph along the UXS and returns home, in passive slots it
   waits at home.  Distinct labels guarantee a slot where one agent
   explores while the other sits still — a meeting.

Every round count in this procedure is a function of the *parameters*
only (never of the graph or position), which is what UniversalRV's
phase bookkeeping requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Generator, Sequence
from typing import TYPE_CHECKING

from repro.core.combinators import backtrack
from repro.core.labels import (
    encode_view_tree,
    hash_bits,
    max_label_bits,
    pad_bits,
    reconstruct_view,
)
from repro.core.schedules import good_window_bound, schedule_word
from repro.sim.actions import Action, Move, Perception, WaitBlock
from repro.sim.agent import AgentScript, wait_rounds

if TYPE_CHECKING:  # circular at runtime: universal imports asymm_rv
    from repro.core.universal import UniversalOracle

__all__ = [
    "AsymmParams",
    "asymm_rv",
    "make_asymm_algorithm",
    "uxs_traverse_and_return",
    "finalize_label",
    "slot_rounds",
    "word_slots",
    "asymm_meeting_bound",
]


@dataclass(frozen=True)
class AsymmParams:
    """Public parameters of one AsymmRV execution (shared by both agents).

    Attributes
    ----------
    n:
        Assumed graph size.
    depth:
        Truncated-view depth used for labels (reference: ``n - 1``).
    uxs:
        The exploration sequence used in active slots (must cover the
        graph from every node for the guarantee to hold).
    view_budget:
        Round budget for label acquisition; must dominate the faithful
        reconstruction cost on the assumed graph class.
    label_mode:
        ``"padded"`` (injective, reference) or ``"hash16"`` /
        ``"hash32"`` (fixed small width; harnesses certify per run
        that the two agents' labels differ).
    """

    n: int
    depth: int
    uxs: tuple[int, ...]
    view_budget: int
    label_mode: str = "padded"


def slot_rounds(params: AsymmParams) -> int:
    """Rounds per schedule slot: full UXS walk out and back."""
    return 2 * (len(params.uxs) + 1)


def label_width(params: AsymmParams) -> int:
    """Bit width of finalized labels under these parameters."""
    if params.label_mode == "padded":
        return max_label_bits(params.n, params.depth)
    if params.label_mode == "hash16":
        return 16
    if params.label_mode == "hash32":
        return 32
    raise ValueError(f"unknown label mode {params.label_mode!r}")


def word_slots(params: AsymmParams) -> int:
    """Length of the periodic schedule word (marker + 4 slots per bit)."""
    return 6 + 4 * label_width(params)


def finalize_label(raw_bits: Sequence[int], params: AsymmParams) -> tuple[int, ...]:
    """Map a raw view encoding to the fixed-width label actually used."""
    if params.label_mode == "padded":
        return pad_bits(raw_bits, label_width(params))
    return hash_bits(raw_bits, label_width(params))


def asymm_meeting_bound(params: AsymmParams) -> int:
    """Rounds (from the later agent's start) within which rendezvous is
    guaranteed for non-symmetric positions — our concrete ``P(n)``.

    Acquisition takes ``2 * view_budget``; afterwards a good window
    occurs within :func:`good_window_bound` slots (labels have equal
    width, so both words have length :func:`word_slots`); one extra
    slot absorbs partial-slot alignment.
    """
    w = word_slots(params)
    return 2 * params.view_budget + (good_window_bound(w, w) + 2) * slot_rounds(params)


def uxs_traverse_and_return(percept: Perception, uxs: Sequence[int]) -> AgentScript:
    """One *active slot*: apply the UXS from home, then walk back.

    Takes exactly ``2 * (len(uxs) + 1)`` rounds on any graph.
    """
    trail: list[int] = []
    percept = yield Move(0)
    assert percept.entry_port is not None
    q = percept.entry_port
    trail.append(q)
    for a in uxs:
        p = (q + a) % percept.degree
        percept = yield Move(p)
        assert percept.entry_port is not None
        q = percept.entry_port
        trail.append(q)
    percept = yield from backtrack(percept, trail)
    return percept


def _acquire_label_faithful(
    percept: Perception, params: AsymmParams
) -> Generator[Action, Perception, tuple[Perception, tuple[int, ...]]]:
    """Reconstruct the view within ``2 * view_budget`` rounds.

    If the budget is exhausted mid-walk (possible only when the actual
    graph exceeds the assumed size, i.e. in phases whose assumptions
    are wrong and whose outcome does not matter), the walk is undone
    and a constant fallback label is used.  Either way the acquisition
    takes exactly ``2 * view_budget`` rounds and ends at home.
    """
    budget = params.view_budget
    inner = reconstruct_view(percept, params.depth)
    trail: list[int] = []
    used = 0
    tree = None
    try:
        action = next(inner)
    except StopIteration as stop:  # depth 0: immediate return
        percept, tree = stop.value
        action = None
    while action is not None:
        if used >= budget:
            inner.close()
            break
        if isinstance(action, Move):
            percept = yield action
            assert percept.entry_port is not None
            trail.append(percept.entry_port)
            used += 1
        elif isinstance(action, WaitBlock):
            span = min(action.rounds, budget - used)
            if span:
                percept = yield WaitBlock(span)
            used += span
        else:
            percept = yield action
            used += 1
        try:
            action = inner.send(percept)
        except StopIteration as stop:
            percept, tree = stop.value
            trail.clear()  # reconstruction ends back at home
            action = None
    if tree is not None:
        raw = encode_view_tree(tree)
    else:
        raw = (0,)  # fallback: wrong-phase truncation
    percept = yield from backtrack(percept, trail)
    percept = yield from wait_rounds(percept, 2 * budget - used - len(trail))
    return percept, finalize_label(raw, params)


def asymm_rv(
    percept: Perception,
    params: AsymmParams,
    oracle_label: Sequence[int] | None = None,
) -> AgentScript:
    """Agent subroutine for AsymmRV; runs forever (callers truncate).

    ``oracle_label`` supplies the *raw* view encoding in oracle mode
    (``None`` selects faithful physical reconstruction).  The raw
    encoding must equal ``encode_graph_view(graph, home, depth)`` —
    i.e. be a function of the agent's own view only.
    """
    if oracle_label is not None:
        bits = finalize_label(oracle_label, params)
        percept = yield from wait_rounds(percept, 2 * params.view_budget)
    else:
        percept, bits = yield from _acquire_label_faithful(percept, params)

    word = schedule_word(bits)
    rounds_per_slot = slot_rounds(params)
    slot = 0
    while True:
        if word[slot % len(word)]:
            percept = yield from uxs_traverse_and_return(percept, params.uxs)
        else:
            percept = yield from wait_rounds(percept, rounds_per_slot)
        slot += 1


def make_asymm_algorithm(
    params: AsymmParams, *, use_oracle: bool
) -> Callable[..., AgentScript]:
    """Algorithm factory: dedicated ``AsymmRV`` with known parameters.

    With ``use_oracle=True`` the scheduler must supply per-agent
    oracles exposing ``raw_label(n)`` (see
    :class:`repro.core.universal.UniversalOracle`); otherwise agents
    reconstruct their views physically.
    """

    def algorithm(
        percept: Perception, oracle: UniversalOracle | None = None
    ) -> AgentScript:
        raw: Sequence[int] | None = None
        if use_oracle:
            assert oracle is not None, "oracle mode needs a scheduler oracle"
            raw = oracle.raw_label(params.n)
        yield from asymm_rv(percept, params, raw)
        raise AssertionError("asymm_rv never returns")

    return algorithm
