"""Deterministic, portable pseudo-random number generation.

The paper's algorithms are deterministic: both agents must derive *the
same* exploration sequence from the same public parameter (the assumed
graph size ``n``).  Python's :mod:`random` is stable across platforms,
but we want an explicitly specified generator so that sequences are
reproducible byte-for-byte forever, independent of the standard
library.  We use the classic 64-bit SplitMix64 generator, which has a
one-word state, passes BigCrush, and is trivially portable.

The state after ``k`` steps is the closed form ``seed + k * GAMMA``, so
whole runs of the stream evaluate as arrays (:func:`splitmix64_block`),
and so do runs of bounded draws (:meth:`SplitMix64.randrange_many`,
:func:`randrange_block`), rejection sampling included.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SplitMix64", "derive_seed", "randrange_block", "splitmix64_block"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class SplitMix64:
    """SplitMix64 PRNG (Steele, Lea & Flood 2014).

    Deterministic function of its seed; used wherever the library needs
    a "public coin" shared by both agents (e.g. certified exploration
    sequences keyed by the assumed graph size).

    >>> g = SplitMix64(42)
    >>> g.next_u64() == SplitMix64(42).next_u64()
    True
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next 64-bit unsigned integer of the stream."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        """Return a uniform integer in ``[0, bound)``.

        Uses rejection sampling so the distribution is exactly uniform
        (important for the coverage certifier's expected-length
        analysis, and for honest random-walk baselines).
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        # Largest multiple of `bound` that fits in 64 bits.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound

    def randrange_many(self, bounds) -> np.ndarray:
        """``[self.randrange(b) for b in bounds]`` as one int64 array.

        Draw for draw equal to the scalar loop, rejection sampling in
        stream order included, and the generator is left in the state
        the loop would leave it in.  Bounds must lie in ``1 .. 2**63 - 1``.
        """
        values, consumed = randrange_block(self._state, bounds)
        self._state = (self._state + consumed * _GAMMA) & _MASK64
        return values

    def random(self) -> float:
        """Return a float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def derive_seed(*parts: int | str) -> int:
    """Derive a stable 64-bit seed from a tuple of ints/strings.

    Uses an FNV-1a fold over the textual representation, so
    ``derive_seed("uxs", n)`` is a pure function of ``n`` and is
    identical for both agents of a rendezvous instance.  Each part is
    folded via its ``repr`` with a terminator byte, so parts keep
    their type and position: ``("ab", "c")`` and ``("a", "bc")``
    differ, as do the int 4 and the string ``"4"``.  Campaign cells
    rely on this axis separation for independent per-cell streams
    (property-tested in tests/util/test_seed_separation.py).

    The values are pinned forever — these exact constants are part of
    the replay-artifact contract:

    >>> derive_seed("uxs", 4)
    4510507241103289587
    >>> derive_seed("uxs", "4")
    914211383304949347
    >>> derive_seed("uxs", 4) == derive_seed("uxs", 4)
    True
    """
    acc = 0xCBF29CE484222325
    for part in parts:
        for byte in f"{part!r}".encode():
            acc ^= byte
            acc = (acc * 0x100000001B3) & _MASK64
        acc ^= 0xFF
        acc = (acc * 0x100000001B3) & _MASK64
    return acc


def splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of ``SplitMix64(seed)``.

    Output ``i`` (0-based) of the scalar generator mixes the state
    ``seed + (i+1) * GAMMA``; evaluating that closed form over an index
    range vectorizes the whole stream.
    """
    with np.errstate(over="ignore"):
        index = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        z = np.uint64(seed & _MASK64) + index * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def randrange_block(seed: int, bounds) -> tuple[np.ndarray, int]:
    """Bounded draws ``randrange(bounds[i])`` of ``SplitMix64(seed)``.

    Returns ``(values, consumed)``: the int64 draws, equal to the scalar
    :meth:`SplitMix64.randrange` loop, and the number of raw words that
    loop reads.  Draw ``i`` accepts the first unread word below the
    largest multiple of ``bounds[i]`` that fits in 64 bits.  Words are
    evaluated a window at a time under the assumption that none is
    rejected; the first rejected word splits the window, the prefix
    before it is kept, and the next window resumes one word later.
    The window shrinks to about twice the last run of accepted draws,
    so frequent rejections cost small windows, not repeated long ones.
    """
    bounds = np.asarray(bounds, dtype=np.int64).reshape(-1)
    count = len(bounds)
    if count and (int(bounds.min()) <= 0):
        raise ValueError(f"bound must be positive, got {int(bounds.min())}")
    b64 = bounds.astype(np.uint64)
    if count and not (bounds != bounds[0]).any():
        b64 = b64[0]  # one bound: scalar compare and modulo are cheaper
    # 2**64 mod b == (2**64 - b) mod b, computed without leaving uint64;
    # a word is accepted iff word < 2**64 - rem, i.e. word <= MAX - rem.
    with np.errstate(over="ignore"):
        highest = np.uint64(_MASK64) - (np.uint64(0) - b64) % b64
    out = np.empty(count, dtype=np.int64)
    done = consumed = 0
    window = count
    while done < count:
        width = min(window, count - done)
        words = splitmix64_block(seed, consumed, width)
        limit = highest if highest.ndim == 0 else highest[done : done + width]
        rejected = words > limit
        run = int(rejected.argmax()) if rejected.any() else width
        divisor = b64 if b64.ndim == 0 else b64[done : done + run]
        out[done : done + run] = words[:run] % divisor
        done += run
        if run < width:
            consumed += run + 1
            window = max(2 * run, 64)
        else:
            consumed += run
            window = 2 * width
    return out, consumed
