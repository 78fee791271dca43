"""Active/passive slot schedules for label-based rendezvous.

The classical way to rendezvous with *distinct labels* under arbitrary
delay (Dessmark et al.; used here as the engine of our AsymmRV
substitute): time is cut into fixed-length *slots*; in an **active**
slot the agent performs a full exploration of the graph and returns
home; in a **passive** slot it waits at home.  If at some point one
agent is active during a slot that lies entirely inside a passive
stretch of the other, the active agent's traversal visits the waiting
agent's node and they meet.

Because the delay is not a multiple of the slot length, one agent's
slot can straddle *two* of the other's, so the sufficient condition is
"one agent active while the other is passive for two consecutive
slots".  :func:`schedule_word` maps a label to a periodic binary word
(1 = active) such that for any two *distinct* labels and any slot
shift, that condition occurs; :func:`verify_schedule_pair` checks the
property exhaustively and is exercised over all small label pairs in
the test suite (our construction is verified rather than proven — see
:mod:`repro.core.profile`).

Construction: a marker block ``111000`` followed by one block per
label bit: ``1100`` for a one-bit, ``0011`` for a zero-bit.  The
marker skews the word so that no nontrivial cyclic shift maps the
word family onto itself; the meeting property itself is established
*exhaustively* by :func:`verify_schedule_pair` over all small label
pairs in the test suite rather than by a structural proof.
"""

from __future__ import annotations

from math import gcd
from collections.abc import Sequence

__all__ = [
    "schedule_word",
    "verify_schedule_pair",
    "good_window_bound",
    "first_good_window",
]

_MARKER = (1, 1, 1, 0, 0, 0)
_ONE_BLOCK = (1, 1, 0, 0)
_ZERO_BLOCK = (0, 0, 1, 1)


def schedule_word(label_bits: Sequence[int]) -> tuple[int, ...]:
    """Periodic activity word for a label (1 = active slot)."""
    word: list[int] = list(_MARKER)
    for bit in label_bits:
        if bit not in (0, 1):
            raise ValueError(f"label bits must be 0/1, got {bit}")
        word.extend(_ONE_BLOCK if bit else _ZERO_BLOCK)
    return tuple(word)


def _window_at(
    w_active: Sequence[int], w_passive: Sequence[int], i: int, shift: int
) -> bool:
    """Active agent's slot ``i`` sits over two passive slots of the other."""
    la, lb = len(w_active), len(w_passive)
    return (
        w_active[i % la] == 1
        and w_passive[(i - shift - 1) % lb] == 0
        and w_passive[(i - shift) % lb] == 0
    )


def first_good_window(
    word_a: Sequence[int], word_b: Sequence[int], shift: int
) -> tuple[str, int] | None:
    """First slot index realizing the meeting condition at ``shift``.

    Agent A's slot grid leads agent B's by ``shift`` slots (B's slot
    ``j`` overlaps A's slots ``j + shift`` and ``j + shift + 1``).
    Returns ``("a", i)`` if A is active in its slot ``i`` while B is
    passive in both overlapped slots, ``("b", j)`` for the symmetric
    case, or ``None`` if no window exists within one full period.
    """
    la, lb = len(word_a), len(word_b)
    period = la * lb // gcd(la, lb)
    for t in range(period + max(la, lb) + 2):
        if _window_at(word_a, word_b, t, shift):
            return ("a", t)
        # B active in its slot t; A's overlapped slots are t+shift, t+shift+1.
        if (
            word_b[t % lb] == 1
            and word_a[(t + shift) % la] == 0
            and word_a[(t + shift + 1) % la] == 0
        ):
            return ("b", t)
    return None


def verify_schedule_pair(word_a: Sequence[int], word_b: Sequence[int]) -> bool:
    """Exhaustively check the meeting condition for every slot shift."""
    la, lb = len(word_a), len(word_b)
    period = la * lb // gcd(la, lb)
    return all(
        first_good_window(word_a, word_b, shift) is not None
        for shift in range(period)
    )


def good_window_bound(len_a: int, len_b: int) -> int:
    """Slots within which a good window is guaranteed (when one exists
    for every shift): one full joint period plus slack."""
    period = len_a * len_b // gcd(len_a, len_b)
    return period + max(len_a, len_b) + 2
