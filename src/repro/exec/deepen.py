"""Adaptive trace deepening: the engines' shared outer loop.

Both frontends follow the same strategy — *compile shallow, solve,
deepen geometrically* — so cells that resolve early never pay for the
deepest cell's horizon.  :func:`resolve_adaptive` is that loop with
the engine-specific parts factored into one callback:

``step(pending, horizon)`` receives the indices still undecided and
the current compile horizon; it compiles whatever traces those cells
need, attempts to resolve each, and returns ``{index: outcome}`` for
the cells it decided (omitting an index keeps it pending).  Raising
propagates — error binding is the resolvers' job, not this loop's.

With ``cap`` set (the synchronous engine: budgets bound every useful
horizon) the horizon is clamped to it and exhausting it with cells
still pending is an engine invariant violation.  With ``cap=None``
(the asynchronous engine: waits inflate local clocks without bound)
the horizon grows until the callback's own fuel accounting raises.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

__all__ = ["resolve_adaptive"]

#: Geometric factor applied to the horizon between deepening rounds.
_GROWTH = 4


def resolve_adaptive(
    count: int,
    step: Callable[[Sequence[int], int], Mapping[int, Any]],
    *,
    initial_horizon: int = 1024,
    cap: int | None = None,
) -> list[Any]:
    """Resolve ``count`` cells by repeatedly deepening the horizon.

    Parameters
    ----------
    count:
        Number of cells; the result list has this length, in index
        order.
    step:
        ``(pending indices, horizon) -> {index: outcome}`` for the
        cells decided at this horizon.
    initial_horizon:
        First compile depth (clamped to at least 1, and to ``cap``);
        each later round multiplies it by ``_GROWTH`` (4).
    cap:
        Largest horizon worth compiling to, or ``None`` for unbounded
        growth (the callback must then guarantee termination, e.g. by
        fuel accounting).
    """
    results: list[Any] = [None] * count
    pending = list(range(count))
    horizon = max(initial_horizon, 1)
    if cap is not None:
        horizon = min(cap, horizon)
    while pending:
        decided = step(pending, horizon)
        pending = [i for i in pending if i not in decided]
        for i, outcome in decided.items():
            results[i] = outcome
        if pending:
            if cap is not None:
                if horizon >= cap:  # pragma: no cover - defensive
                    raise AssertionError(
                        "batch horizon exhausted with cells pending"
                    )
                horizon = min(cap, horizon * _GROWTH)
            else:
                horizon *= _GROWTH
    return results
