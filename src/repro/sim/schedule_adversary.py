"""Adversary activation schedules: *who moves when*, as data (Section 5).

"In the asynchronous version of our problem, time cannot be used to
break symmetry ... in the asynchronous scenario, only space can be
used to break symmetry between anonymous agents."

In the asynchronous model an agent only chooses *which edge to
traverse next*; the adversary decides when each traversal happens.
This module makes the adversary itself a first-class value: an
:class:`ActivationSchedule` maps each event ``k = 0, 1, 2, ...`` to
the subset of the two agents that execute their next pending traversal
at that event.  The model's semantics are:

* waits are collapsed — the adversary owns the clock, so "wait k
  rounds" is an instruction the environment is free to nullify (the
  agent's private clock still advances, keeping clock-driven
  algorithms honest);
* a *node meeting* occurs when the agents occupy the same node between
  events;
* an *edge meeting* (crossing) occurs when one event sends both agents
  through the same edge in opposite directions — the relaxed meeting
  notion of the asynchronous literature ([31] etc.), recorded as a
  first-class outcome.

Built-in schedules cover the spectrum of adversaries the experiments
probe: the symmetry-preserving lockstep :class:`MirrorSchedule`, the
benign alternating :class:`EagerSchedule`, the synchronous-model
analogue :class:`FixedDelaySchedule`, periodic :class:`RateSkewSchedule`
and arbitrary cyclic :class:`WordSchedule` patterns, and the seeded
:class:`RandomSchedule`.  Any activation pattern expressible as a
boolean mask per event is admissible.

Two engines share these semantics bit-for-bit:

* :func:`run_schedule_adversary` — the scalar reference: two live
  generators driven event by event.
* :func:`run_schedule_sweep` — the batched engine: per-start port
  traces compiled once by :class:`repro.sim.batch.TraceCompiler`
  (waits contribute nothing to the async node sequence, so a trace's
  ``nodes`` array *is* the agent's traversal sequence), then each cell
  of a (start pair × schedule) grid solved with numpy gathers over the
  schedule's cumulative activation counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.exec.deepen import resolve_adaptive
from repro.exec.meeting import PENDING as _PENDING
from repro.exec.meeting import resolve_async_cell as _try_solve_cell
from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import Move, Perception, Wait, WaitBlock
from repro.sim.agent import AgentScript
from repro.sim.batch import PortTrace, TraceCompiler
from repro.util.lcg import SplitMix64, derive_seed

__all__ = [
    "ActivationSchedule",
    "MirrorSchedule",
    "EagerSchedule",
    "FixedDelaySchedule",
    "RateSkewSchedule",
    "WordSchedule",
    "RandomSchedule",
    "AsyncOutcome",
    "run_schedule_adversary",
    "run_schedule_sweep",
]


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
# Schedules
# ---------------------------------------------------------------------------


class ActivationSchedule:
    """Base class: an adversary's activation pattern as data.

    Subclasses implement :meth:`active` (scalar, one event) and may
    override :meth:`mask` with a vectorized construction; the default
    builds the mask by iterating :meth:`active`, so the two views are
    consistent by definition.  An event may activate any subset of the
    two agents, including neither (the adversary idles).
    """

    name: str = "schedule"

    def active(self, event: int) -> tuple[bool, bool]:
        """Whether (agent 0, agent 1) execute a traversal at ``event``."""
        raise NotImplementedError

    def mask(self, horizon: int) -> np.ndarray:
        """Boolean activation matrix of shape ``(horizon, 2)``."""
        out = np.empty((horizon, 2), dtype=bool)
        for k in range(horizon):
            a, b = self.active(k)
            out[k, 0] = a
            out[k, 1] = b
        return out

    def cumulative_moves(self, horizon: int) -> np.ndarray:
        """``(horizon + 1, 2)`` int64 array: traversals *requested* of
        each agent before event ``k`` (row 0 is zeros)."""
        counts = np.zeros((horizon + 1, 2), dtype=np.int64)
        np.cumsum(self.mask(horizon), axis=0, out=counts[1:])
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class MirrorSchedule(ActivationSchedule):
    """Lockstep: both agents traverse at every event.

    The symmetry-preserving adversary, and the executable form of the
    paper's Section 5 remark: "In the asynchronous version of our
    problem, time cannot be used to break symmetry, as the speed of
    the agents and the delay between them is controlled by the
    adversary.  Hence in the asynchronous scenario, only space can be
    used to break symmetry between anonymous agents."

    The adversary owns the clock, so it nullifies waits and advances
    both agents in perfect lockstep.  From symmetric starts both agents
    then receive identical perception streams forever, so no
    deterministic algorithm (including every delay-exploiting
    algorithm of this library) achieves a node meeting.  Edge
    crossings still happen; the asynchronous literature ([31] etc.)
    relaxes rendezvous to edge meetings for exactly this reason."""

    name = "mirror"

    def active(self, event: int) -> tuple[bool, bool]:
        return (True, True)

    def mask(self, horizon: int) -> np.ndarray:
        return np.ones((horizon, 2), dtype=bool)


class EagerSchedule(ActivationSchedule):
    """Strict alternation: agent ``first`` moves at even events, the
    other at odd events.  A benign scheduler under which spatial
    asymmetry still yields meetings — space works when time does not."""

    def __init__(self, first: int = 0) -> None:
        if first not in (0, 1):
            raise ValueError(f"first must be 0 or 1, got {first}")
        self.first = first
        self.name = "eager" if first == 0 else "eager[1]"

    def active(self, event: int) -> tuple[bool, bool]:
        turn = event % 2
        return (turn == self.first, turn != self.first)

    def mask(self, horizon: int) -> np.ndarray:
        out = np.empty((horizon, 2), dtype=bool)
        parity = np.arange(horizon) % 2
        out[:, self.first] = parity == 0
        out[:, 1 - self.first] = parity == 1
        return out


class FixedDelaySchedule(ActivationSchedule):
    """The synchronous model transplanted to event space: agent 0
    traverses alone for the first ``delay`` events, then both advance
    in lockstep — the async rendering of a STIC's start delay."""

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = delay
        self.name = f"delay[{delay}]"

    def active(self, event: int) -> tuple[bool, bool]:
        return (True, event >= self.delay)

    def mask(self, horizon: int) -> np.ndarray:
        out = np.ones((horizon, 2), dtype=bool)
        out[: min(self.delay, horizon), 1] = False
        return out


class RateSkewSchedule(ActivationSchedule):
    """Periodic rate skew: agent 0 traverses every ``period_a``-th
    event, agent 1 every ``period_b``-th (phase 0).  Events hitting
    neither period are adversarial idling."""

    def __init__(self, period_a: int = 1, period_b: int = 2) -> None:
        if period_a < 1 or period_b < 1:
            raise ValueError("periods must be >= 1")
        self.period_a = period_a
        self.period_b = period_b
        self.name = f"rate[{period_a}:{period_b}]"

    def active(self, event: int) -> tuple[bool, bool]:
        return (event % self.period_a == 0, event % self.period_b == 0)

    def mask(self, horizon: int) -> np.ndarray:
        ks = np.arange(horizon)
        return np.stack(
            [ks % self.period_a == 0, ks % self.period_b == 0], axis=1
        )


_WORD_SYMBOLS = {
    "a": (True, False),
    "b": (False, True),
    "ab": (True, True),
    "-": (False, False),
}


class WordSchedule(ActivationSchedule):
    """An arbitrary activation pattern, cycled: ``word`` is a sequence
    (tuple/list, *not* a bare string) of symbols from
    ``{"a", "b", "ab", "-"}`` (``-`` idles both agents).  This is
    the fully general finite-description adversary — every periodic
    schedule is a :class:`WordSchedule`."""

    def __init__(self, word: Sequence[str]) -> None:
        if isinstance(word, str):
            # "ab" would silently iterate as ("a", "b") — alternation,
            # not lockstep — so bare strings are ambiguous and refused.
            raise TypeError(
                "word must be a sequence of symbols, not a bare string: "
                'use WordSchedule(("ab",)) rather than WordSchedule("ab")'
            )
        if not word:
            raise ValueError("word must be non-empty")
        try:
            self._steps = tuple(_WORD_SYMBOLS[sym] for sym in word)
        except KeyError as exc:
            raise ValueError(
                f"unknown schedule symbol {exc.args[0]!r}; "
                f"expected one of {sorted(_WORD_SYMBOLS)}"
            ) from None
        self.word = tuple(word)
        self.name = "word[" + "|".join(word) + "]"

    def active(self, event: int) -> tuple[bool, bool]:
        return self._steps[event % len(self._steps)]

    def mask(self, horizon: int) -> np.ndarray:
        period = np.array(self._steps, dtype=bool)
        reps = -(-horizon // len(self._steps))
        return np.tile(period, (reps, 1))[:horizon]


class RandomSchedule(ActivationSchedule):
    """A seeded random adversary: each event draws one of {agent 0,
    agent 1, both} with the given integer ``weights`` from a
    :class:`~repro.util.lcg.SplitMix64` stream, so the schedule is a
    pure function of ``seed`` (reproducible run-to-run and identical
    between the scalar and batched engines)."""

    _CODES = ((True, False), (False, True), (True, True))
    _MASKS = np.array(_CODES, dtype=bool)

    def __init__(self, seed: int, weights: tuple[int, int, int] = (1, 1, 2)) -> None:
        if len(weights) != 3 or any(w < 0 for w in weights) or sum(weights) == 0:
            raise ValueError("weights must be three non-negative ints, not all zero")
        self.seed = seed
        self.weights = tuple(weights)
        self.name = f"rand[{seed}]"
        self._rng = SplitMix64(derive_seed("activation-schedule", seed))
        self._codes = np.empty(0, dtype=np.int8)

    def _extend(self, length: int) -> None:
        """Draw event codes through ``length``, in doubling blocks.

        The draws are ``randrange(sum(weights))`` of one fixed stream,
        so drawing ahead never changes a code, and the scalar engine's
        one-event-at-a-time queries cost amortized O(1) each."""
        have = len(self._codes)
        if have >= length:
            return
        count = max(length - have, have, 64)
        rolls = self._rng.randrange_many(
            np.full(count, sum(self.weights), dtype=np.int64)
        )
        wa, wb, _ = self.weights
        codes = (rolls >= wa).astype(np.int8) + (rolls >= wa + wb)
        self._codes = np.concatenate((self._codes, codes))

    def active(self, event: int) -> tuple[bool, bool]:
        self._extend(event + 1)
        return self._CODES[self._codes[event]]

    def mask(self, horizon: int) -> np.ndarray:
        self._extend(horizon)
        return self._MASKS[self._codes[:horizon]]


# ---------------------------------------------------------------------------
# Scalar reference engine
# ---------------------------------------------------------------------------


class _AsyncAgent:
    """Drives a synchronous script, exposing only its next *move*.

    Waits are consumed silently: in the asynchronous model the
    adversary owns the clock, so "wait k rounds" is an instruction the
    environment is free to collapse to nothing.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        node: int,
        algorithm: Callable[[Perception], AgentScript],
    ) -> None:
        self.graph = graph
        self.node = node
        self.entry_port: int | None = None
        self.clock = 0
        self.script: AgentScript = algorithm(self._percept())
        self.started = False
        self.done = False

    def _percept(self) -> Perception:
        return Perception(
            degree=self.graph.degree(self.node),
            entry_port=self.entry_port,
            clock=self.clock,
        )

    def next_move(self, fuel: int = 1 << 16) -> Move | None:
        """Advance the script past waits to its next move (or end)."""
        if self.done:
            return None
        for _ in range(fuel):
            try:
                if not self.started:
                    self.started = True
                    action = next(self.script)
                else:
                    action = self.script.send(self._percept())
            except StopIteration:
                self.done = True
                return None
            if isinstance(action, Move):
                return action
            if isinstance(action, (Wait, WaitBlock)):
                # The adversary collapses waiting to zero real time but
                # still advances the agent's private clock so that
                # clock-driven algorithms keep making progress.
                self.clock += action.rounds if isinstance(action, WaitBlock) else 1
                continue
            raise TypeError(f"agent yielded {action!r}")
        raise RuntimeError("agent produced no move within the fuel limit")

    def apply(self, move: Move) -> None:
        if move.port >= self.graph.degree(self.node):
            raise ValueError(f"invalid port {move.port} at node {self.node}")
        self.entry_port = self.graph.entry_port(self.node, move.port)
        self.node = self.graph.succ(self.node, move.port)
        self.clock += 1


def run_schedule_adversary(
    graph: PortLabeledGraph,
    u: int,
    v: int,
    algorithm: Callable[[Perception], AgentScript],
    schedule: ActivationSchedule,
    *,
    max_events: int,
    fuel: int = 1 << 16,
) -> AsyncOutcome:
    """Scalar reference: run one pair under an arbitrary schedule.

    At each event the scheduled agents' next traversals are executed
    simultaneously; node meetings are checked between events, edge
    crossings within them.  ``fuel`` bounds the wait actions consumed
    per pull (an agent that waits forever cannot stall the adversary).
    :func:`run_schedule_sweep` is bit-identical to this function on
    ``met`` / ``meeting_node`` / ``events`` / ``edge_meetings``
    (differentially fuzz-tested); the one divergence is the fuel guard
    itself, whose batch rendering can be more lenient mid-trace (see
    docs/batch_engine.md).
    """
    a = _AsyncAgent(graph, u, algorithm)
    b = _AsyncAgent(graph, v, algorithm)
    edge_meetings = 0
    for event in range(max_events):
        if a.node == b.node:
            return AsyncOutcome(True, a.node, event, edge_meetings)
        act_a, act_b = schedule.active(event)
        move_a = a.next_move(fuel) if act_a else None
        move_b = b.next_move(fuel) if act_b else None
        if a.done and b.done:
            break
        from_a, from_b = a.node, b.node
        if move_a is not None:
            a.apply(move_a)
        if move_b is not None:
            b.apply(move_b)
        if (
            move_a is not None
            and move_b is not None
            and a.node == from_b
            and b.node == from_a
            and from_a != from_b
        ):
            edge_meetings += 1
    met = a.node == b.node
    return AsyncOutcome(met, a.node if met else None, max_events, edge_meetings)


# ---------------------------------------------------------------------------
# Batched sweep engine
# ---------------------------------------------------------------------------


def _pull_starves(
    cum: np.ndarray, trace_u: PortTrace, trace_v: PortTrace, fuel: int
) -> bool:
    """Whether a pending cell's next unserved pull is a fuel fault.

    A cell stays pending when some agent is activated for a traversal
    past its compiled prefix.  The scalar engine pulls agent 0 before
    agent 1 within an event, so the first such pull decides: it faults
    when its trace ended in ``fuel`` consecutive waits (deepening
    cannot add a move there); otherwise the sweep deepens.
    """
    rows = []
    for agent, trace in ((0, trace_u), (1, trace_v)):
        over = cum[:, agent] > trace.moves
        rows.append(
            int(over.argmax()) if not trace.complete and over.any() else len(cum)
        )
    if rows[0] == rows[1] == len(cum):
        return False
    trace = trace_u if rows[0] <= rows[1] else trace_v
    return trace.error is None and trace.tail_waits >= fuel


def run_schedule_sweep(
    graph: PortLabeledGraph,
    cells: Iterable,
    algorithm: Callable[[Perception], AgentScript],
    *,
    max_events: int | Callable[[int, int, ActivationSchedule], int],
    compiler: TraceCompiler | None = None,
    fuel: int = 1 << 16,
    initial_horizon: int = 1024,
) -> list[AsyncOutcome]:
    """Run one deterministic ``algorithm`` over a (pair × schedule) grid.

    Parameters
    ----------
    cells:
        Iterable of ``(u, v, schedule)`` triples or objects with ``u``,
        ``v``, ``schedule`` attributes.
    max_events:
        Event budget — a single int shared by all cells, or a callable
        ``(u, v, schedule) -> int``.
    compiler:
        Reuse a :class:`TraceCompiler` across calls sharing the same
        ``(graph, algorithm)`` — including with the synchronous
        :func:`repro.sim.batch.run_rendezvous_batch`, whose traces are
        the same objects.
    fuel:
        Consecutive wait actions tolerated without a move before the
        run is declared move-starved (mirrors the scalar engine's
        per-pull fuel limit; measured in *actions*, so arbitrarily long
        ``WaitBlock`` paddings never trip it).
    initial_horizon:
        Upper bound on the first compile depth, in local clocks.  The
        first depth is the smaller of this and the most traversals any
        cell requests of one agent within its budget; each later round
        quadruples it.

    Returns one :class:`AsyncOutcome` per cell, in input order,
    bit-identical to :func:`run_schedule_adversary` (at matching
    ``fuel``) on every field; only the fuel guard itself may diverge,
    and only toward leniency mid-trace (see docs/batch_engine.md).

    The engine exploits that in the asynchronous model an agent's node
    sequence is independent of the schedule: waits are collapsed, so
    traversal ``i`` always lands on the ``i``-th entry of the agent's
    compiled port trace.  One trace per start node therefore serves
    every schedule of the grid, and each cell reduces to numpy gathers
    of the two traces through the schedule's cumulative activation
    counts.
    """
    items: list[tuple[int, int, ActivationSchedule]] = []
    for cell in cells:
        if isinstance(cell, tuple):
            u, v, schedule = cell
        else:
            u, v, schedule = cell.u, cell.v, cell.schedule
        if not isinstance(schedule, ActivationSchedule):
            raise TypeError(f"expected an ActivationSchedule, got {schedule!r}")
        items.append((int(u), int(v), schedule))
    budgets: list[int] = []
    for u, v, schedule in items:
        m = max_events(u, v, schedule) if callable(max_events) else max_events
        if m < 0:
            raise ValueError("max_events must be non-negative")
        budgets.append(int(m))
    if compiler is None:
        compiler = TraceCompiler(graph, algorithm)

    # Cumulative activation counts, one per distinct (schedule, budget).
    cums: dict[tuple[int, int], np.ndarray] = {}
    for (u, v, schedule), budget in zip(items, budgets):
        key = (id(schedule), budget)
        if key not in cums:
            cums[key] = schedule.cumulative_moves(budget)

    # Compile shallow, solve, deepen: cells that meet early never pay
    # for their full event budgets (the synchronous engine's strategy,
    # shared via repro.exec.deepen.resolve_adaptive).  The compiler's
    # horizons are local clocks, which waits inflate, so traces are
    # deepened geometrically (``cap=None``: unbounded) until each has
    # the traversals its pending cells ask about, terminated, errored,
    # or spent ``fuel`` consecutive wait actions without moving — the
    # batch rendering of the scalar engine's per-pull fuel limit.  Move
    # needs are re-derived from the *still-pending* cells every round,
    # so a straggler cell never deepens traces that only
    # already-resolved cells asked about.  The fuel fault is raised
    # after the solve, and only by a cell still pending on a starved
    # trace (:func:`_pull_starves`): a cell that meets before its
    # agent's starved pull resolves like the scalar engine's.
    traces: dict[int, PortTrace] = {}

    def step(pending: Sequence[int], horizon: int) -> Mapping[int, AsyncOutcome]:
        need_moves: dict[int, int] = {}
        for i in pending:
            u, v, schedule = items[i]
            cum = cums[(id(schedule), budgets[i])]
            need_moves[u] = max(need_moves.get(u, 0), int(cum[budgets[i], 0]))
            need_moves[v] = max(need_moves.get(v, 0), int(cum[budgets[i], 1]))
        growing = {
            s
            for s, n in need_moves.items()
            if s not in traces
            or not (
                traces[s].complete
                or traces[s].error is not None
                or traces[s].moves >= n
                or traces[s].tail_waits >= fuel
            )
        }
        if growing:
            traces.update(compiler.traces({s: horizon for s in growing}))
        decided: dict[int, AsyncOutcome] = {}
        for i in pending:
            u, v, schedule = items[i]
            cum = cums[(id(schedule), budgets[i])]
            outcome = _try_solve_cell(cum, budgets[i], traces[u], traces[v])
            if outcome is not _PENDING:
                decided[i] = outcome
            elif _pull_starves(cum, traces[u], traces[v], fuel):
                raise RuntimeError("agent produced no move within the fuel limit")
        return decided

    # A trace cut at clock ``h`` holds at most ``h`` moves, so the
    # largest move count any cell requests is the shallowest depth that
    # can serve every cell in one round.  Starting there, not deeper,
    # keeps short-budget grids from compiling clocks no cell reads.
    demand = max((int(cum[-1].max()) for cum in cums.values()), default=0)
    return resolve_adaptive(
        len(items), step, initial_horizon=min(initial_horizon, demand)
    )
