"""Meeting detection over compiled port traces.

Both engines ask the same question of the IR — *when do two compiled
trajectories first coincide?* — under two different clocks:

* **Synchronous** (:func:`solve_sync_meeting`, :func:`resolve_sync_cell`):
  global rounds; agent 1 starts ``delta`` rounds late; a meeting is
  the earliest global round ``t`` in ``[delta, limit]`` with
  ``a(t) == b(t - delta)``.  The density rule picks the solve: while
  the rounds to compare number at most
  :data:`DENSE_ROUNDS_PER_BREAKPOINT` times the breakpoints they
  cover, both traces are expanded to one position per round
  (``np.repeat``) and compared in one shifted array pass; otherwise
  (long ``WaitBlock`` stretches under a large budget) the two traces'
  O(#moves) breakpoints are merged, so memory never scales with the
  budget.  (Merging keeps duplicates: a repeated breakpoint yields two
  identical gather rows and ``argmax`` still reports the first — the
  dedupe pass ``np.union1d`` would add buys nothing.)
* **Asynchronous** (:func:`resolve_async_cell`): adversary events;
  positions are gathers of each trace's ``nodes`` array through the
  schedule's cumulative activation counts; *edge meetings* are events
  where both agents swap endpoints of one edge.

Each resolver returns its engine's result object, raises exactly as
the scalar reference would (error binding is part of the contract:
agent 0 before agent 1, pull-time before apply-time), or returns the
:data:`PENDING` sentinel when the compiled prefixes are too shallow to
decide — the signal :func:`repro.exec.deepen.resolve_adaptive` uses to
deepen traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NoReturn

import numpy as np

from repro.exec.trace import BadPortChoice, PortTrace, raise_for_stic
from repro.sim.scheduler import RendezvousResult, SimulationLimit

__all__ = [
    "PENDING",
    "AsyncOutcome",
    "first_error_event",
    "raise_for_async",
    "resolve_async_cell",
    "resolve_sync_cell",
    "solve_sync_meeting",
]

#: Sentinel: the compiled prefixes are too shallow to decide this cell.
PENDING = object()


@dataclass(frozen=True)
class AsyncOutcome:
    """Result of an adversarially-scheduled asynchronous run.

    ``met`` refers to a *node* meeting; ``edge_meetings`` counts events
    where the agents traversed the same edge in opposite directions
    (a meeting under the relaxed asynchronous definition).  ``events``
    is the event index of the first node meeting, or the full budget
    when none occurred.
    """

    met: bool
    meeting_node: int | None
    events: int
    edge_meetings: int


# ---------------------------------------------------------------------------
# Synchronous (global rounds, delayed start)
# ---------------------------------------------------------------------------


#: The round-indexed solve runs while the rounds it expands (both
#: traces, one position per round) number at most this many times the
#: breakpoints they cover; past it the breakpoint merge is faster.
#: Timed on never-meeting synthetic pairs (2-CPU x86 host, numpy 2.4),
#: the two solves break even at 10-13 rounds per breakpoint for
#: 3,000-30,000 breakpoints and later for fewer or more (24-32 at
#: 1,000, about 20 at 100,000, past 32 at 300); at 8 the
#: round-indexed one is 1.3-5x faster.  The solves of every
#: experiment and of the ``core`` and ``random`` campaigns, at every
#: tier, read at most 5.9 rounds per breakpoint (the ``random`` stress
#: tier; at most 4.1 elsewhere), so none of them reaches the merge;
#: traces that mostly wait (``WaitBlock`` stretches under a large
#: budget) do, and the merge keeps their memory O(#moves).
#: ``benchmarks/test_bench_batch_sweep.py`` checks that each side of
#: the constant keeps its faster solve.
DENSE_ROUNDS_PER_BREAKPOINT = 8


def solve_sync_meeting(
    trace_a: PortTrace,
    trace_b: PortTrace,
    delta: int,
    limit: int,
) -> tuple[int, int] | None:
    """Earliest ``(t, node)`` with ``a(t) == b(t - delta)``, for global
    ``t`` in ``[delta, limit]`` inclusive; ``None`` when they never
    coincide there.  Round-indexed when the traces are dense in the
    window, a breakpoint merge otherwise (the module's density rule);
    both give the same answer."""
    if delta > limit:
        return None
    cut_a = int(trace_a.times.searchsorted(limit, side="right"))
    cut_b = int(trace_b.times.searchsorted(limit - delta, side="right"))
    rounds = 2 * limit - delta + 2
    if rounds <= DENSE_ROUNDS_PER_BREAKPOINT * (cut_a + cut_b):
        return _solve_dense(trace_a, trace_b, delta, limit, cut_a, cut_b)
    return _solve_merge(trace_a, trace_b, delta, cut_a, cut_b)


def _positions(trace: PortTrace, cut: int, end: int) -> np.ndarray:
    """Node at every local clock ``0..end`` (``cut`` breakpoints are
    ``<= end``): one ``np.repeat`` of the step function."""
    times = trace.times[:cut]
    # Run lengths by hand: ``np.diff(append=)`` costs twice as much on
    # the short traces most solves see.
    runs = np.empty_like(times)
    np.subtract(times[1:], times[:-1], out=runs[:-1])
    runs[-1] = end + 1 - times[-1]
    return trace.nodes[:cut].repeat(runs)


def _solve_dense(
    trace_a: PortTrace,
    trace_b: PortTrace,
    delta: int,
    limit: int,
    cut_a: int,
    cut_b: int,
) -> tuple[int, int] | None:
    """One shifted compare of the round-indexed positions."""
    pos_a = _positions(trace_a, cut_a, limit)[delta:]
    eq = pos_a == _positions(trace_b, cut_b, limit - delta)
    k = int(eq.argmax())
    if not eq[k]:
        return None
    return delta + k, int(pos_a[k])


def _solve_merge(
    trace_a: PortTrace,
    trace_b: PortTrace,
    delta: int,
    cut_a: int,
    cut_b: int,
) -> tuple[int, int] | None:
    """Positions gathered at the merged breakpoints of both traces."""
    ta = trace_a.times
    bp = np.sort(np.concatenate((ta[:cut_a], trace_b.times[:cut_b] + delta)))
    bp = bp[bp >= delta]
    if len(bp) == 0 or bp[0] != delta:
        bp = np.concatenate(([delta], bp))
    pos_a = trace_a.nodes[np.searchsorted(ta, bp, side="right") - 1]
    pos_b = trace_b.nodes[
        np.searchsorted(trace_b.times, bp - delta, side="right") - 1
    ]
    eq = pos_a == pos_b
    if not eq.any():
        return None
    k = int(eq.argmax())
    return int(bp[k]), int(pos_a[k])


def resolve_sync_cell(
    u: int,
    v: int,
    delta: int,
    max_rounds: int,
    trace_u: PortTrace,
    trace_v: PortTrace,
    raise_on_limit: bool,
) -> Any:  # RendezvousResult, or the PENDING sentinel
    """Resolve one STIC from (possibly truncated) traces.

    Returns a :class:`RendezvousResult`, raises like the scalar
    scheduler would, or returns :data:`PENDING` when the compiled
    horizon is too short to decide.
    """
    limit = min(max_rounds, trace_u.limit, delta + trace_v.limit)
    hit = solve_sync_meeting(trace_u, trace_v, delta, int(limit))
    if hit is not None:
        t, node = hit
        return RendezvousResult(
            met=True,
            meeting_node=node,
            meeting_time=t,
            time_from_later=t - delta,
            rounds_executed=t,
            crossings=(),
            traces=None,
        )
    if limit >= max_rounds:
        if raise_on_limit:
            raise SimulationLimit(f"no rendezvous within {max_rounds} rounds")
        return RendezvousResult(
            met=False,
            meeting_node=None,
            meeting_time=None,
            time_from_later=None,
            rounds_executed=max_rounds,
            crossings=(),
            traces=None,
        )
    # No meeting within the compiled region and the budget is not
    # exhausted: either an agent error binds (scalar would raise when
    # pulling that round — agent 0 is pulled first on ties), or the
    # horizon must be deepened.
    err_u = trace_u.limit if trace_u.error is not None else math.inf
    err_v = delta + trace_v.limit if trace_v.error is not None else math.inf
    nearest = min(err_u, err_v)
    if nearest <= limit:
        if err_u <= err_v:
            raise_for_stic(trace_u.error, 0)
        raise_for_stic(trace_v.error, delta)
    return PENDING


# ---------------------------------------------------------------------------
# Asynchronous (adversary events, collapsed waits)
# ---------------------------------------------------------------------------


def raise_for_async(exc: Exception, node: int) -> NoReturn:
    """Re-raise a compiled agent error as the scalar engine would."""
    if isinstance(exc, BadPortChoice):
        raise ValueError(f"invalid port {exc.port} at node {node}")
    raise exc


def first_error_event(cum: np.ndarray, agent: int, trace: PortTrace) -> float:
    """Event at which the schedule would pull this trace's failing
    decision (the pull after its last compiled move), or ``inf``."""
    if trace.error is None:
        return math.inf
    pulls = np.flatnonzero(
        (cum[1:, agent] > cum[:-1, agent]) & (cum[:-1, agent] == trace.moves)
    )
    return int(pulls[0]) if len(pulls) else math.inf


def resolve_async_cell(
    cum: np.ndarray,
    budget: int,
    trace_u: PortTrace,
    trace_v: PortTrace,
) -> Any:  # AsyncOutcome, or the PENDING sentinel
    """Resolve one (pair, schedule) cell from (possibly truncated)
    traces.

    Returns an :class:`AsyncOutcome`, raises like the scalar engine
    would, or returns :data:`PENDING` when the compiled prefixes are
    too shallow to decide the cell.  Positions are exact for every
    event whose cumulative activation counts stay within both compiled
    prefixes (a complete trace covers any count: a terminated script
    simply stops moving), so a meeting found inside that region is the
    true earliest one.
    """
    cap_a = budget + 1 if trace_u.complete else trace_u.moves
    cap_b = budget + 1 if trace_v.complete else trace_v.moves
    # Cumulative activation counts are monotone, so "no row exceeds the
    # caps" is decided by the last row alone; the full scan (and its
    # argmax) is only needed once a cap is actually crossed.
    if int(cum[budget, 0]) <= cap_a and int(cum[budget, 1]) <= cap_b:
        e_valid = budget
    else:
        exceed = (cum[:, 0] > cap_a) | (cum[:, 1] > cap_b)
        e_valid = int(exceed.argmax()) - 1
    # Within the validity slice ``cum <= cap`` holds row by row, so the
    # clamp to ``moves`` is an identity unless the script terminated
    # (``cap = budget + 1``) — skip the two array passes otherwise.
    sl = cum[: e_valid + 1]
    ca = np.minimum(sl[:, 0], trace_u.moves) if trace_u.complete else sl[:, 0]
    cb = np.minimum(sl[:, 1], trace_v.moves) if trace_v.complete else sl[:, 1]
    # ndarray.take, not np.take: the free function adds two Python
    # frames per gather on this per-cell hot path.
    pos_a = trace_u.nodes.take(ca)
    pos_b = trace_v.nodes.take(cb)
    eq = pos_a == pos_b
    met = bool(eq.any())
    # A Python int: it lands in AsyncOutcome, which goes through
    # canonical JSON.
    k = int(eq.argmax()) if met else None

    # An agent error binds when its failing pull would execute before
    # the first node meeting (meetings are checked at the top of each
    # event, so a meeting at the error's own event wins).  Within one
    # event the scalar engine raises pull-time script exceptions (both
    # next_move calls run first) before apply-time invalid-port errors,
    # agent 0 before agent 1 within each kind.
    if trace_u.error is None and trace_v.error is None:
        nearest = None  # fast path: no compiled error to schedule
    else:
        candidates = []
        for agent, trace in ((0, trace_u), (1, trace_v)):
            event = first_error_event(cum, agent, trace)
            if not math.isinf(event):
                kind = 1 if isinstance(trace.error, BadPortChoice) else 0
                candidates.append((event, kind, agent, trace))
        nearest = min(candidates, key=lambda c: c[:3]) if candidates else None

    def crossings_before(stop: int) -> int:
        moved_a = ca[1:] > ca[:-1]
        moved_b = cb[1:] > cb[:-1]
        swap = (
            (pos_a[1:] == pos_b[:-1])
            & (pos_b[1:] == pos_a[:-1])
            & (pos_a[:-1] != pos_b[:-1])
        )
        return int((moved_a & moved_b & swap)[:stop].sum())

    if met and (nearest is None or k <= nearest[0]):
        return AsyncOutcome(True, int(pos_a[k]), k, crossings_before(k))
    if nearest is not None and nearest[0] <= e_valid:
        raise_for_async(nearest[3].error, int(nearest[3].nodes[-1]))
    if not met and e_valid >= budget:
        return AsyncOutcome(False, None, budget, crossings_before(budget))
    return PENDING
