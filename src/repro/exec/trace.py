"""The trace IR: agent behavior compiled once into port-trace arrays.

A deterministic agent's choices are a pure function of its *perception
stream* — the same insight that lets :func:`repro.core.uxs.apply_uxs_ports`
precompute a UXS walk.  :class:`TraceCompiler` exploits it for whole
ensembles of start nodes: all requested starts advance in lockstep
through the graph, and starts whose perception streams have been
identical so far form one *class* sharing a single live generator.
When a class splits, one part keeps the generator and every other part
re-steps a fresh one on one of its lanes up to the split.  Position
updates are one pass over the class's lanes per move event, through
plain-list mirrors of the successor tables; wait blocks advance the
clock without touching positions.

Compiling is resumable, so adaptive deepening costs time linear in
the final horizon.  Without oracles, a class the horizon cuts stays
live (lanes and generator) and a deeper call continues it; only
starts never compiled before begin a fresh class at clock 0.  In
oracle mode an oracle may depend on the start, so each start is
compiled alone from a *segment plan*: a cursor walks the plan's
segments, expands each :class:`TiledWalk` segment in closed form with
numpy, and steps a generator only for scripted segments, resuming one
the horizon cut where it stopped.  Algorithms that carry
a plan (UniversalRV and its asymm-only variant, see
:class:`repro.core.universal.PlannedAlgorithm`) supply their phase
loop; any other oracle-mode algorithm is a plan of one scripted
segment, its whole script.  That one-segment form stays the
differential oracle for the planned ones (``tests/exec/
test_segment_trace.py``).

The compiled :class:`PortTrace` is the IR every engine consumes:

* the synchronous STIC sweep reads it as a step function
  *local clock -> node* (``times``/``nodes`` breakpoints);
* the asynchronous schedule sweep reads ``nodes`` alone — waits
  contribute nothing to the async node sequence, so the array *is*
  the agent's traversal sequence;
* ``tail_waits`` is the unified fuel gauge: consecutive wait actions
  since the last move, the quantity both engines' starvation guards
  meter.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any, Callable, NoReturn

import numpy as np

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import Action, Move, Perception, Wait, WaitBlock
from repro.sim.agent import AgentScript

__all__ = [
    "BadPortChoice",
    "PortTrace",
    "TiledWalk",
    "TraceCompiler",
    "raise_for_stic",
]


class _Stop:
    """Sentinel: the agent script terminated (waits in place forever)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<stop>"


_STOP = _Stop()


class _Raise:
    """Sentinel: the agent's decision raised ``exc``."""

    __slots__ = ("exc",)

    def __init__(self, exc: Exception) -> None:
        self.exc = exc


class BadPortChoice(ValueError):
    """Engine-detected invalid move, kept structured so the re-raise
    can quote the *global* round of whichever STIC it binds to (the
    compiled trace only knows the agent's local clock)."""

    def __init__(self, port: int, degree: int, clock: int) -> None:
        super().__init__(
            f"agent chose port {port} at a node of degree {degree} "
            f"(clock {clock})"
        )
        self.port = port
        self.degree = degree
        self.clock = clock


def raise_for_stic(exc: Exception, start_round: int) -> NoReturn:
    """Re-raise a compiled error as the scalar scheduler would for an
    agent that starts at global round ``start_round``."""
    if isinstance(exc, BadPortChoice):
        raise ValueError(
            f"agent chose port {exc.port} at a node of degree {exc.degree} "
            f"(round {exc.clock + start_round})"
        )
    raise exc


@dataclass(frozen=True)
class PortTrace:
    """Compressed trajectory of one agent from one start node.

    ``times``/``nodes`` encode the step function *local clock -> node*:
    the agent occupies ``nodes[i]`` for clocks in
    ``[times[i], times[i+1])`` (``times[0] == 0``).  Positions are
    defined for clocks up to :attr:`valid_through` inclusive — or for
    every clock when :attr:`complete` (the script terminated).  When
    :attr:`error` is set, the decision at clock ``valid_through``
    raised; positions before it are still exact.

    :attr:`tail_waits` counts the consecutive wait *actions* (``Wait``
    or ``WaitBlock`` yields, regardless of their round spans) at the
    end of the compiled prefix since the last move.  Consumers that
    collapse waits (the asynchronous schedule engine) use it as a fuel
    gauge: a trace that keeps waiting without ever moving again is
    indistinguishable from one that just has not been compiled deep
    enough, except by its action count.
    """

    start: int
    times: np.ndarray
    nodes: np.ndarray
    valid_through: int
    complete: bool
    error: Exception | None = None
    tail_waits: int = 0

    @property
    def moves(self) -> int:
        """Number of traversals in the compiled prefix."""
        return len(self.nodes) - 1

    @property
    def limit(self) -> float:
        """Largest local clock with a defined position (may be inf)."""
        return math.inf if self.complete else self.valid_through

    def position(self, clock: int) -> int:
        """Node occupied at local ``clock`` (must be within validity)."""
        if clock < 0 or clock > self.limit:
            raise ValueError(f"clock {clock} outside compiled range")
        i = int(np.searchsorted(self.times, clock, side="right")) - 1
        return int(self.nodes[i])


class _Group:
    """A set of start nodes whose perception streams agree so far.

    Per-lane state is held in plain lists, one entry per start in
    ``starts`` order: classes hold a handful of starts, where a Python
    loop beats numpy's per-call cost.  ``poslog[j]`` is lane ``j``'s
    position after each move of ``move_clocks``; a split hands each
    lane's log to its part instead of copying it.
    """

    __slots__ = (
        "starts",
        "pos",
        "entry",
        "clock",
        "script",
        "move_clocks",
        "poslog",
        "stopped",
        "error",
        "error_clock",
        "tail_waits",
    )

    def __init__(self, starts: list[int]) -> None:
        self.starts = starts
        self.pos = list(starts)
        self.entry = [-1] * len(starts)
        self.clock = 0
        self.script: AgentScript | None = None
        self.move_clocks: list[int] = []
        self.poslog: list[list[int]] = [[] for _ in starts]
        self.stopped = False
        self.error: Exception | None = None
        self.error_clock = 0
        self.tail_waits = 0

    def split(self, idx: list[int]) -> "_Group":
        """The part made of lanes ``idx``; this group is spent after
        its lanes are all split off, so their logs move, not copy."""
        sub = _Group.__new__(_Group)
        sub.starts = [self.starts[i] for i in idx]
        sub.pos = [self.pos[i] for i in idx]
        sub.entry = [self.entry[i] for i in idx]
        sub.clock = self.clock
        sub.script = None
        sub.move_clocks = list(self.move_clocks)
        sub.poslog = [self.poslog[i] for i in idx]
        sub.stopped = False
        sub.error = None
        sub.error_clock = 0
        sub.tail_waits = self.tail_waits
        return sub


@dataclass(frozen=True)
class TiledWalk:
    """Closed form of a segment that tiles one walk over an activity word.

    Run from its home node, the segment's action stream is the one
    :func:`repro.core.combinators.run_segment` makes of an AsymmRV
    script in oracle mode:

    1. for ``budget`` rounds: wait ``lead`` rounds, then run slots
       ``k = 0, 1, ...`` of ``len(slot)`` rounds each; slot ``k`` moves
       through ``slot`` (the node reached by each move, ending back at
       home) when ``word[k % len(word)]`` is 1 and waits the slot out
       otherwise.  Whatever action the budget cuts is cut short;
    2. one move per recorded move, back along the whole trail;
    3. a wait until ``2 * budget`` rounds from the start.

    Each wait above is one wait action (one ``WaitBlock``).
    """

    lead: int
    slot: np.ndarray
    word: tuple[int, ...]
    budget: int


def _tiled_actions(
    tiling: TiledWalk, home: int, start: int
) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
    """The actions of ``tiling`` begun at clock ``start``: move clocks,
    the node each move reaches, and the start and end clocks of each
    wait action, all in order."""
    budget, slot = tiling.budget, tiling.slot
    period = len(slot)
    lead = min(tiling.lead, budget)
    wait_starts: list[int] = []
    wait_ends: list[int] = []
    if lead:
        wait_starts.append(start)
        wait_ends.append(start + lead)
    full, part = divmod(budget - lead, period)
    active = np.resize(np.asarray(tiling.word, dtype=bool), full + (part > 0))
    base = start + lead
    slots = np.flatnonzero(active[:full])
    clocks = [(base + slots[:, None] * period + np.arange(period)).ravel()]
    nodes = [np.tile(slot, len(slots))]
    if part and active[full]:
        clocks.append(base + full * period + np.arange(part))
        nodes.append(slot[:part])
    for k in np.flatnonzero(~active).tolist():
        wait_starts.append(base + k * period)
        wait_ends.append(base + min((k + 1) * period, budget - lead))
    trail = np.concatenate(nodes)
    moves = len(trail)
    if moves:
        # Backtracking visits the trail's nodes in reverse, ending home.
        clocks.append(start + budget + np.arange(moves))
        nodes.append(np.concatenate(([home], trail[:-1]))[::-1])
    if budget > moves:
        wait_starts.append(start + budget + moves)
        wait_ends.append(start + 2 * budget)
    return (
        np.concatenate(clocks).astype(np.int64, copy=False),
        np.concatenate(nodes).astype(np.int64, copy=False),
        wait_starts,
        wait_ends,
    )


def _take(
    clocks: np.ndarray,
    wait_starts: list[int],
    wait_ends: list[int],
    start: int,
    horizon: int,
    tail_waits: int,
) -> tuple[int, int, int, bool]:
    """Apply the compile loop's stopping rule to a segment's actions:
    every action that begins at a clock ``<= horizon`` runs.

    Returns the number of moves run, the clock after the last action
    run, the tail-wait count there, and whether every action ran.
    """
    moves = int(np.searchsorted(clocks, horizon, side="right"))
    waits = bisect_right(wait_starts, horizon)
    last_move = int(clocks[moves - 1]) if moves else -1
    done = moves == len(clocks) and waits == len(wait_starts)
    if waits and wait_starts[waits - 1] > last_move:
        tail = waits - bisect_right(wait_starts, last_move)
        return moves, wait_ends[waits - 1], tail + (0 if moves else tail_waits), done
    if moves:
        return moves, last_move + 1, 0, done
    return 0, start, tail_waits, done


class _PlanCursor:
    """Resumable compile state of one start on the segment-plan path.

    ``segment`` is the segment to run next or being run (``None`` until
    it is drawn from ``segments``); ``times``/``nodes`` hold the
    committed trace breakpoints in chunks, the first being the start's.
    ``clock``, ``entry`` and ``tail_waits`` describe the end of the
    committed prefix.  A scripted segment the horizon cuts is committed
    as far as it ran and keeps its live ``script`` and position ``pos``
    to continue from.  A tiled segment the horizon cuts is not
    committed: it is expanded again from its start, which is cheap, and
    ``tilings`` memoizes closed forms by segment (equal segments recur
    across phases).
    """

    __slots__ = (
        "segments",
        "segment",
        "tilings",
        "script",
        "pos",
        "clock",
        "entry",
        "tail_waits",
        "times",
        "nodes",
    )

    def __init__(self, segments: Iterator[Any], start: int) -> None:
        self.segments = segments
        self.segment: Any = None
        self.tilings: dict[Any, TiledWalk | None] = {}
        self.script: AgentScript | None = None
        self.pos = start
        self.clock = 0
        self.entry = -1
        self.tail_waits = 0
        self.times = [np.zeros(1, dtype=np.int64)]
        self.nodes = [np.array([start], dtype=np.int64)]


class _WholeScript:
    """The plan of an oracle-mode algorithm that carries none: one
    scripted segment, the algorithm's own script."""

    __slots__ = ("algorithm", "oracle")

    def __init__(self, algorithm: Callable, oracle: object) -> None:
        self.algorithm = algorithm
        self.oracle = oracle

    def script(self, percept: Perception) -> AgentScript:
        return self.algorithm(percept, self.oracle)

    def tiling(self, graph: PortLabeledGraph, home: int) -> None:
        return None


class TraceCompiler:
    """Compiles and caches :class:`PortTrace` objects for one
    ``(graph, algorithm)`` pair; reusable across batch calls — and
    across *engines*: the synchronous STIC sweep and the asynchronous
    schedule sweep read the same compiled traces."""

    def __init__(
        self,
        graph: PortLabeledGraph,
        algorithm: Callable,
        *,
        oracle_factory: Callable[[int], object] | None = None,
    ) -> None:
        self._graph = graph
        self._algorithm = algorithm
        self._oracle_factory = oracle_factory
        # Oracle mode compiles every start from a plan (the algorithm's
        # own, or its whole script as one segment); otherwise starts
        # run in classes.
        self._plan: Callable[[object], Iterator[Any]] | None = None
        if oracle_factory is not None:
            self._plan = getattr(algorithm, "segment_plan", None) or (
                lambda oracle: iter((_WholeScript(algorithm, oracle),))
            )
        # Classes the horizon cut, by start: a deeper call resumes them.
        self._groups: dict[int, _Group] = {}
        self._plan_cursors: dict[int, _PlanCursor] = {}
        self._cache: dict[int, PortTrace] = {}
        # Plain-list mirrors of the successor tables: python-int indexing
        # is what both steppers spend their time on.
        self._deg_list: list[int] = graph.degrees.tolist()
        self._succ_list: list[list[int]] = graph.succ_node_array.tolist()
        self._succ_port_list: list[list[int]] = graph.succ_port_array.tolist()

    # -- public -----------------------------------------------------------
    def trace(self, start: int, horizon: int) -> PortTrace:
        """Trace of ``start`` valid through local clock ``horizon``."""
        return self.traces({start: horizon})[start]

    def traces(self, horizons: dict[int, int]) -> dict[int, PortTrace]:
        """Compile (or reuse) traces for many starts at once.

        ``horizons`` maps start node to the local clock through which
        its positions must be defined.  All compilations in one call,
        fresh or resumed, run to the largest requested horizon; a
        resumed class advances all its lanes, requested or not.
        """
        jobs = [
            s
            for s, h in horizons.items()
            if not self._is_sufficient(self._cache.get(s), h)
        ]
        if jobs:
            horizon = max(horizons[s] for s in jobs)
            starts = sorted(set(jobs))
            if self._plan is not None:
                for s in starts:
                    self._run_planned(s, horizon)
            else:
                self._run_group(starts, horizon)
        return {s: self._cache[s] for s in horizons}

    # -- internals --------------------------------------------------------
    @staticmethod
    def _is_sufficient(trace: PortTrace | None, horizon: int) -> bool:
        if trace is None:
            return False
        # An errored trace cannot be extended: the failing decision is
        # deterministic, so recompiling would stop at the same clock.
        return (
            trace.complete
            or trace.error is not None
            or trace.valid_through >= horizon
        )

    def _restep(self, group: _Group) -> AgentScript:
        """Fresh generator positioned to decide at ``group.clock``.

        All lanes of a class perceive alike, so stepping one of them
        from clock 0 replays the class's decisions; none has been made
        iff the clock is 0, as every action takes a round or more."""
        start = group.starts[0]
        script = self._algorithm(
            Perception(degree=self._deg_list[start], entry_port=None, clock=0)
        )
        if group.clock:
            cur = _PlanCursor(iter(()), start)
            cur.script = script
            self._step_script(cur, group.clock - 1, first=True)
        return script

    @staticmethod
    def _advance(
        script: AgentScript, percept: Perception, first: bool
    ) -> Action | _Stop | _Raise:
        try:
            action = next(script) if first else script.send(percept)
        except StopIteration:
            return _STOP
        except Exception as exc:  # agent-code failure: deterministic
            return _Raise(exc)
        if isinstance(action, Move):
            if action.port >= percept.degree:
                return _Raise(
                    BadPortChoice(action.port, percept.degree, percept.clock)
                )
            return action
        if isinstance(action, (Wait, WaitBlock)):
            return action
        return _Raise(
            TypeError(f"agent yielded {action!r}; expected Move/Wait/WaitBlock")
        )

    def _run_planned(self, start: int, horizon: int) -> None:
        """Compile one start through ``horizon`` from its segment plan,
        resuming its cursor where the last compile stopped.

        Every segment begins at the start node, and every segment the
        plan follows with another ends there.  A segment with a
        :class:`TiledWalk` closed form is expanded with numpy; any
        other segment's script is stepped like a generator.  A script
        that fails to instantiate raises out of the call, as the
        algorithm does on the ensemble path.
        """
        cur = self._plan_cursors.get(start)
        if cur is None:
            assert self._plan is not None and self._oracle_factory is not None
            segments = self._plan(self._oracle_factory(start))
            cur = self._plan_cursors[start] = _PlanCursor(segments, start)
        clock, tail_waits = cur.clock, cur.tail_waits
        # The breakpoints of a cut tiled segment: never committed.
        times: list[np.ndarray] = []
        nodes: list[np.ndarray] = []
        complete = False
        error: Exception | None = None
        while clock <= horizon:
            first = cur.script is None
            if first:
                try:
                    segment = cur.segment
                    if segment is None:
                        segment = cur.segment = next(cur.segments)
                    if segment not in cur.tilings:
                        cur.tilings[segment] = segment.tiling(self._graph, start)
                except StopIteration:
                    complete = True
                    break
                except Exception as exc:  # agent-code failure: deterministic
                    error = exc
                    break
                tiling = cur.tilings[segment]
                if tiling is not None:
                    move_clocks, move_nodes, waits_at, waits_end = _tiled_actions(
                        tiling, start, clock
                    )
                    count, clock, tail_waits, done = _take(
                        move_clocks, waits_at, waits_end, clock, horizon, tail_waits
                    )
                    if not done:
                        times.append(move_clocks[:count] + 1)
                        nodes.append(move_nodes[:count])
                        break
                    cur.times.append(move_clocks + 1)
                    cur.nodes.append(move_nodes)
                    cur.segment = None
                    if count:
                        # The backtrack's last move re-enters home by
                        # port 0, the port the walk left by.
                        cur.entry = 0
                    cur.clock, cur.tail_waits = clock, tail_waits
                    continue
                cur.script = segment.script(
                    Perception(
                        degree=self._deg_list[start],
                        entry_port=(None if cur.entry < 0 else cur.entry),
                        clock=clock,
                    )
                )
            move_clocks, move_nodes, status = self._step_script(cur, horizon, first)
            cur.times.append(move_clocks + 1)
            cur.nodes.append(move_nodes)
            clock, tail_waits = cur.clock, cur.tail_waits
            if status is None:
                break  # cut: the live script continues from the cursor
            cur.script = cur.segment = None
            if isinstance(status, _Raise):
                error = status.exc
                break
        if complete or error is not None:
            # Final: the trace is sufficient for every later horizon.
            del self._plan_cursors[start]
        cur.times = [np.concatenate(cur.times)]
        cur.nodes = [np.concatenate(cur.nodes)]
        self._cache[start] = PortTrace(
            start=start,
            times=np.concatenate(cur.times + times),
            nodes=np.concatenate(cur.nodes + nodes),
            valid_through=clock,
            complete=complete,
            error=error,
            tail_waits=tail_waits,
        )

    def _step_script(
        self, cur: _PlanCursor, horizon: int, first: bool
    ) -> tuple[np.ndarray, np.ndarray, object]:
        """Step the cursor's live script, ``first`` when it has not yet
        been started, until it returns, raises, or starts an action
        past ``horizon``; the cursor's position, entry port, clock and
        tail waits follow it.  Returns the move clocks and nodes, and
        ``_STOP``, a ``_Raise``, or ``None`` when the horizon cut it."""
        deg = self._deg_list
        succ = self._succ_list
        succ_port = self._succ_port_list
        script = cur.script
        assert script is not None
        pos, entry, clock, tail_waits = cur.pos, cur.entry, cur.clock, cur.tail_waits
        move_clocks: list[int] = []
        move_pos: list[int] = []
        status: object = None
        while clock <= horizon:
            percept = Perception(
                degree=deg[pos], entry_port=(None if entry < 0 else entry), clock=clock
            )
            action = self._advance(script, percept, first=first)
            first = False
            if action is _STOP or isinstance(action, _Raise):
                status = action
                break
            if isinstance(action, Move):
                move_clocks.append(clock)
                row = action.port
                entry = succ_port[pos][row]
                pos = succ[pos][row]
                move_pos.append(pos)
                clock += 1
                tail_waits = 0
            elif isinstance(action, Wait):
                clock += 1
                tail_waits += 1
            else:
                clock += action.rounds
                tail_waits += 1
        cur.pos, cur.entry, cur.clock, cur.tail_waits = pos, entry, clock, tail_waits
        return (
            np.asarray(move_clocks, dtype=np.int64),
            np.asarray(move_pos, dtype=np.int64),
            status,
        )

    def _run_group(self, starts: list[int], horizon: int) -> None:
        """Advance the classes of ``starts`` through ``horizon``: the
        live classes of starts compiled before resume where the last
        call cut them, and the other starts begin one fresh class at
        clock 0."""
        live: dict[int, _Group] = {}
        fresh: list[int] = []
        for s in starts:
            g = self._groups.get(s)
            if g is None:
                fresh.append(int(s))
            else:
                live[id(g)] = g
        worklist = list(live.values())
        if fresh:
            worklist.append(_Group(fresh))
        deg = self._deg_list
        succ = self._succ_list
        succ_port = self._succ_port_list
        while worklist:
            g = worklist.pop()
            if g.stopped or g.error is not None or g.clock > horizon:
                self._finalize(g)
                continue
            degs = [deg[x] for x in g.pos]
            entries = g.entry
            uniform = degs.count(degs[0]) == len(degs) and entries.count(
                entries[0]
            ) == len(entries)
            if uniform:
                parts: list[tuple[int, int, list[int] | None]] = [
                    (degs[0], entries[0], None)
                ]
            else:
                buckets: dict[tuple[int, int], list[int]] = {}
                for i, key in enumerate(zip(degs, entries)):
                    buckets.setdefault(key, []).append(i)
                parts = [(d, e, idx) for (d, e), idx in buckets.items()]
            script = g.script
            for d, e, idx in parts:
                sub = g if idx is None else g.split(idx)
                if script is None:
                    script = self._restep(sub)
                percept = Perception(
                    degree=d, entry_port=(None if e < 0 else e), clock=g.clock
                )
                action = self._advance(script, percept, first=g.clock == 0)
                sub.script, script = script, None  # hand off to this part
                if action is _STOP:
                    sub.stopped = True
                elif isinstance(action, _Raise):
                    sub.error = action.exc
                    sub.error_clock = g.clock
                elif isinstance(action, Move):
                    port = action.port
                    sub.entry = [succ_port[x][port] for x in sub.pos]
                    sub.pos = pos = [succ[x][port] for x in sub.pos]
                    for lane, x in zip(sub.poslog, pos):
                        lane.append(x)
                    sub.move_clocks.append(g.clock)
                    sub.clock = g.clock + 1
                    sub.tail_waits = 0
                elif isinstance(action, Wait):
                    sub.clock = g.clock + 1
                    sub.tail_waits += 1
                else:  # WaitBlock: fast-forward without position events
                    sub.clock = g.clock + action.rounds
                    sub.tail_waits += 1
                worklist.append(sub)

    def _finalize(self, g: _Group) -> None:
        """Cache the traces of ``g``'s lanes; keep ``g`` live for a
        deeper call unless it stopped or raised."""
        times = np.zeros(len(g.move_clocks) + 1, dtype=np.int64)
        if g.move_clocks:
            times[1:] = np.asarray(g.move_clocks, dtype=np.int64) + 1
        final = g.stopped or g.error is not None
        for start, lane in zip(g.starts, g.poslog):
            if final:
                self._groups.pop(start, None)
            else:
                self._groups[start] = g
            self._cache[start] = PortTrace(
                start=start,
                times=times,
                nodes=np.array([start] + lane, dtype=np.int64),
                valid_through=g.error_clock if g.error is not None else g.clock,
                complete=g.stopped,
                error=g.error,
                tail_waits=g.tail_waits,
            )
