"""Batched multi-STIC rendezvous: a thin frontend over the execution core.

The experiments are dominated by sweeping one deterministic algorithm
over many STICs ``[(u, v), delta]`` of a single graph.  Running
:func:`repro.sim.scheduler.run_rendezvous` in a loop re-executes the
agent generator once per agent per STIC, although a deterministic
agent's choices are a pure function of its *perception stream*.  The
machinery that exploits this lives in :mod:`repro.exec` (shared with
the schedule-adversary sweep — see docs/execution_core.md):

1. **Port-trace compiler** (:class:`repro.exec.trace.TraceCompiler`):
   agent behavior is compiled once into :class:`~repro.exec.trace.
   PortTrace` step-function arrays, one live generator per class of
   starts whose perceptions agree.
2. **Meeting solver** (:func:`repro.exec.meeting.resolve_sync_cell`):
   for a STIC the meeting time is the earliest global round ``t`` in
   ``[delta, max_rounds]`` with ``trace_u(t) == trace_v(t - delta)`` —
   one shifted compare of round-indexed positions while the traces
   are dense in the window, a merge of their O(#moves) breakpoints
   otherwise (the density rule of :mod:`repro.exec.meeting`).
3. **Adaptive deepening** (:func:`repro.exec.deepen.resolve_adaptive`):
   compile shallow, solve, deepen geometrically — STICs that meet
   early never pay for the deepest STIC's horizon.

Atlas-style sweeps pair this engine with the per-graph symmetry
kernel (:mod:`repro.symmetry.context`): the kernel classifies every
STIC (view colors + all-pairs Shrink, computed once per graph) and
sizes the budgets; this engine simulates them.

:func:`run_rendezvous_batch` returns per-STIC
:class:`~repro.sim.scheduler.RendezvousResult` objects whose ``met``,
``meeting_node``, ``meeting_time``, ``time_from_later`` and
``rounds_executed`` are identical to the scalar scheduler's (property
tested).  Crossings and traces are not recorded in batch mode
(``crossings == ()``, ``traces is None``).

Requirements and caveats:

* the algorithm must be *deterministic* — identical perception streams
  must yield identical action streams (the model's own assumption);
* with ``oracle_factory`` set, each start node is compiled alone from
  a segment plan (an oracle may depend on the start), so only
  cross-STIC trace reuse remains.  An algorithm that
  carries a plan (UniversalRV and the asymm-only variant under an
  oracle-mode profile) is compiled from it, its AsymmRV segments in
  closed form, without running its generator; any other algorithm is
  a plan of one segment, its whole script.  Either way deepening
  resumes each start's compile instead of restarting it;
* an exception raised by agent code is re-raised only for STICs whose
  scalar simulation would actually reach the offending round before
  meeting or running out of budget, mirroring the scheduler.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.exec.deepen import resolve_adaptive
from repro.exec.meeting import PENDING as _PENDING
from repro.exec.meeting import resolve_sync_cell
from repro.exec.trace import PortTrace, TraceCompiler
from repro.exec.trace import raise_for_stic as _raise_for_stic
from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.scheduler import RendezvousResult, SimulationLimit

__all__ = ["PortTrace", "TraceCompiler", "run_rendezvous_batch"]


def run_rendezvous_batch(
    graph: PortLabeledGraph,
    stics: Iterable,
    algorithm: Callable,
    *,
    max_rounds: int | Callable[[int, int, int], int],
    oracle_factory: Callable[[int], object] | None = None,
    raise_on_limit: bool = False,
    compiler: TraceCompiler | None = None,
    initial_horizon: int = 1024,
) -> list[RendezvousResult]:
    """Simulate one deterministic ``algorithm`` over many STICs at once.

    Parameters
    ----------
    stics:
        Iterable of ``(u, v, delta)`` tuples or objects with ``u``,
        ``v``, ``delta`` attributes (e.g. :class:`repro.core.stic.STIC`).
    max_rounds:
        Round budget — a single int shared by all STICs, or a callable
        ``(u, v, delta) -> int`` for per-STIC budgets.
    oracle_factory:
        Optional ``start node -> oracle`` constructor; the algorithm is
        then called as ``algorithm(percept, oracle)``, matching the
        scheduler's ``oracles`` convention.
    compiler:
        Reuse a :class:`TraceCompiler` across calls sharing the same
        ``(graph, algorithm, oracle_factory)``.
    initial_horizon:
        First compile depth; quadrupled until every STIC is decided
        (meetings far below the budget never pay for the full horizon).

    Returns one result per STIC, in input order, with ``met`` /
    ``meeting_node`` / ``meeting_time`` / ``time_from_later`` /
    ``rounds_executed`` identical to scalar :func:`run_rendezvous`.
    """
    items: list[tuple[int, int, int]] = []
    for s in stics:
        if isinstance(s, tuple):
            u, v, delta = s
        else:
            u, v, delta = s.u, s.v, s.delta
        if delta < 0:
            raise ValueError(f"delay must be non-negative, got {delta}")
        items.append((int(u), int(v), int(delta)))
    budgets: list[int] = []
    for u, v, delta in items:
        m = max_rounds(u, v, delta) if callable(max_rounds) else max_rounds
        if m < 0:
            raise ValueError("max_rounds must be non-negative")
        budgets.append(int(m))
    if compiler is None:
        compiler = TraceCompiler(graph, algorithm, oracle_factory=oracle_factory)

    # Local-clock horizons each trace must eventually reach.
    need: dict[int, int] = {}
    for (u, v, delta), m in zip(items, budgets):
        need[u] = max(need.get(u, 0), m)
        if m - delta >= 0:
            need[v] = max(need.get(v, 0), m - delta)

    def step(pending: Sequence[int], horizon: int) -> Mapping[int, RendezvousResult]:
        starts = set()
        for i in pending:
            u, v, delta = items[i]
            starts.update((u, v))
        traces = compiler.traces(
            {s: min(horizon, need[s]) for s in starts if s in need}
        )
        decided: dict[int, RendezvousResult] = {}
        for i in pending:
            u, v, delta = items[i]
            if delta > budgets[i]:
                # The later agent never appears within the budget, but
                # the scalar scheduler still drives agent 0 every round
                # (its script may raise before the budget expires).
                tu = traces[u]
                if tu.error is not None and tu.limit < budgets[i]:
                    _raise_for_stic(tu.error, 0)
                if not tu.complete and tu.valid_through < budgets[i]:
                    continue
                if raise_on_limit:
                    raise SimulationLimit(
                        f"no rendezvous within {budgets[i]} rounds"
                    )
                decided[i] = RendezvousResult(
                    met=False,
                    meeting_node=None,
                    meeting_time=None,
                    time_from_later=None,
                    rounds_executed=budgets[i],
                    crossings=(),
                    traces=None,
                )
                continue
            outcome = resolve_sync_cell(
                u,
                v,
                delta,
                budgets[i],
                traces[u],
                traces[v],
                raise_on_limit,
            )
            if outcome is not _PENDING:
                decided[i] = outcome
        return decided

    return resolve_adaptive(
        len(items),
        step,
        initial_horizon=initial_horizon,
        cap=max(need.values(), default=0),
    )
