"""Closed-form time bounds quoted by the paper (Lemma 3.3, Prop. 4.1).

These formulas are used three ways: as the *padding targets* inside
Algorithm UniversalRV (both agents pad each phase segment to the same
formula-determined duration), as assertions in tests (measured run
time never exceeds the bound), and as the "paper" column of
EXPERIMENTS.md.
"""

from __future__ import annotations

__all__ = [
    "symm_rv_time_bound",
    "walk_count_bound",
    "universal_time_envelope",
]


def walk_count_bound(n: int, d: int) -> int:
    """The paper's bound ``(n - 1)^d`` on walks of length ``d``."""
    return max(n - 1, 1) ** d


def symm_rv_time_bound(n: int, d: int, delta: int, uxs_length: int) -> int:
    """``T(n, d, delta)`` of Lemma 3.3.

    ``[(d + delta) * (n - 1)^d] * (M + 2) + 2 * (M + 1)`` where ``M``
    is the length of the UXS used for size ``n``.  This is an upper
    bound on the running time of ``SymmRV(n, d, delta)`` on any graph
    of size at most ``n``.
    """
    m = uxs_length
    return (d + delta) * walk_count_bound(n, d) * (m + 2) + 2 * (m + 1)


def universal_time_envelope(n: int, delta: int) -> int:
    """The ``O(n + delta)^O(n + delta)`` envelope of Proposition 4.1.

    We instantiate the constants as ``(n + delta + 2)^(2 * (n + delta + 2))``
    — a concrete member of the asymptotic class, used only for plotting
    the measured universal-algorithm times against the paper's shape.
    """
    base = n + delta + 2
    return base ** (2 * base)
