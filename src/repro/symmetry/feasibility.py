"""Feasibility of space-time initial configurations (Corollary 3.1).

A STIC ``[(u, v), delta]`` is feasible iff

* ``u`` and ``v`` are non-symmetric (any delay works), or
* ``u`` and ``v`` are symmetric and ``delta >= Shrink(u, v)``.

(The degenerate ``u == v`` case is excluded by the model: agents start
at *different* nodes.)

Besides the per-STIC characterization, :func:`empirical_feasibility_atlas`
sweeps *every* STIC of a graph up to a delay cap and simulates a given
algorithm on each — in one call to the batched sweep engine
(:func:`repro.sim.batch.run_rendezvous_batch`), so symmetry data and
agent traces are computed once per graph, not once per STIC.

The asynchronous counterpart, :func:`async_feasibility_atlas`, sweeps
(start pair × adversary schedule) cells through
:func:`repro.sim.schedule_adversary.run_schedule_sweep` and classifies
each cell by the strongest meeting notion it achieves: a *node
meeting*, an *edge meeting only* (the agents crossed inside an edge —
the relaxed asynchronous rendezvous of [31]), or *never meets*.  The
Section 5 remark becomes a statement about this atlas: under the
mirror schedule, symmetric pairs never land in the node-meeting class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.batch import TraceCompiler, run_rendezvous_batch
from repro.sim.schedule_adversary import (
    ActivationSchedule,
    AsyncOutcome,
    run_schedule_sweep,
)
from repro.sim.scheduler import RendezvousResult
from repro.symmetry.context import symmetry_context

__all__ = [
    "FeasibilityVerdict",
    "classify_from_symmetry",
    "classify_stic",
    "is_feasible",
    "AtlasEntry",
    "empirical_feasibility_atlas",
    "ASYNC_NODE_MEETING",
    "ASYNC_EDGE_MEETING_ONLY",
    "ASYNC_NEVER_MEETS",
    "AsyncAtlasEntry",
    "async_feasibility_atlas",
]


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the feasibility characterization for one STIC.

    Attributes
    ----------
    feasible:
        Whether a (possibly dedicated) deterministic algorithm can
        achieve rendezvous for this STIC.
    symmetric:
        Whether the initial positions have equal views.
    shrink:
        ``Shrink(u, v)`` when the positions are symmetric, else ``None``
        (the quantity only enters the characterization in the symmetric
        case).
    reason:
        Human-readable justification quoting the relevant result.
    """

    feasible: bool
    symmetric: bool
    shrink: int | None
    reason: str


def classify_from_symmetry(
    symmetric: bool, s: int | None, delta: int
) -> FeasibilityVerdict:
    """Corollary 3.1 verdict from precomputed symmetry data.

    Sweeps that already hold view colors and ``Shrink`` values (e.g.
    :func:`repro.core.stic.enumerate_stics`) build their verdicts here
    instead of re-deriving the symmetry per STIC via
    :func:`classify_stic`.
    """
    if not symmetric:
        return FeasibilityVerdict(
            feasible=True,
            symmetric=False,
            shrink=None,
            reason="non-symmetric initial positions: feasible for every "
            "delay (Proposition 3.1 / [20])",
        )
    assert s is not None
    if delta >= s:
        return FeasibilityVerdict(
            feasible=True,
            symmetric=True,
            shrink=s,
            reason=f"symmetric positions with delta={delta} >= "
            f"Shrink={s}: feasible (Lemma 3.2)",
        )
    return FeasibilityVerdict(
        feasible=False,
        symmetric=True,
        shrink=s,
        reason=f"symmetric positions with delta={delta} < Shrink={s}: "
        "infeasible (Lemma 3.1)",
    )


def classify_stic(
    graph: PortLabeledGraph, u: int, v: int, delta: int
) -> FeasibilityVerdict:
    """Apply the characterization of Corollary 3.1 to ``[(u, v), delta]``.

    Served by the per-graph kernel: view colors and all-pairs Shrink
    are computed once per graph, so classifying every STIC of a sweep
    costs one kernel run.
    """
    return symmetry_context(graph).verdict(u, v, delta)


def is_feasible(graph: PortLabeledGraph, u: int, v: int, delta: int) -> bool:
    """Shorthand for ``classify_stic(...).feasible``."""
    return classify_stic(graph, u, v, delta).feasible


@dataclass(frozen=True)
class AtlasEntry:
    """One STIC of an empirical atlas: the Corollary 3.1 verdict next
    to what a concrete algorithm actually did on that STIC."""

    u: int
    v: int
    delta: int
    verdict: FeasibilityVerdict
    result: RendezvousResult

    @property
    def consistent(self) -> bool:
        """Simulation agrees with the characterization: feasible STICs
        met (given an adequate budget), infeasible STICs did not."""
        return self.result.met == self.verdict.feasible


def empirical_feasibility_atlas(
    graph: PortLabeledGraph,
    algorithm: Callable,
    max_delta: int,
    *,
    max_rounds: int | Callable[[int, int, int, FeasibilityVerdict], int],
    oracle_factory: Callable[[int], object] | None = None,
) -> list[AtlasEntry]:
    """Classify and *simulate* every STIC with delay up to ``max_delta``.

    The sweep is :func:`repro.core.stic.enumerate_stics` (symmetry
    colors computed once per graph, ``Shrink`` once per symmetric
    pair); all ``n(n-1)/2 * (max_delta+1)`` STICs then run through one
    batched sweep.  A callable ``max_rounds`` receives
    ``(u, v, delta, verdict)`` — the precomputed verdict spares
    callers re-deriving the symmetry data per STIC; feasible STICs
    should get their algorithm's meeting budget, infeasible ones any
    observation horizon.
    """
    # Local import: repro.core.stic imports this module at load time.
    from repro.core.stic import enumerate_stics

    stics: list[tuple[int, int, int]] = []
    verdicts: list[FeasibilityVerdict] = []
    for stic, verdict in enumerate_stics(graph, max_delta):
        stics.append((stic.u, stic.v, stic.delta))
        verdicts.append(verdict)
    budget: int | Callable[[int, int, int], int]
    if callable(max_rounds):
        budgets = {
            key: max_rounds(*key, verdict) for key, verdict in zip(stics, verdicts)
        }
        budget = lambda u, v, delta: budgets[(u, v, delta)]
    else:
        budget = max_rounds
    results = run_rendezvous_batch(
        graph,
        stics,
        algorithm,
        max_rounds=budget,
        oracle_factory=oracle_factory,
    )
    return [
        AtlasEntry(u, v, delta, verdict, result)
        for (u, v, delta), verdict, result in zip(stics, verdicts, results)
    ]


#: Classification constants for the asynchronous atlas, ordered from
#: strongest to weakest meeting notion.
ASYNC_NODE_MEETING = "node-meeting"
ASYNC_EDGE_MEETING_ONLY = "edge-meeting-only"
ASYNC_NEVER_MEETS = "never-meets"


@dataclass(frozen=True)
class AsyncAtlasEntry:
    """One cell of an asynchronous atlas: a start pair, the adversary
    schedule it ran under, and what the algorithm achieved there."""

    u: int
    v: int
    schedule: ActivationSchedule
    symmetric: bool
    outcome: AsyncOutcome

    @property
    def meeting_class(self) -> str:
        """Strongest meeting notion achieved within the event budget."""
        if self.outcome.met:
            return ASYNC_NODE_MEETING
        if self.outcome.edge_meetings > 0:
            return ASYNC_EDGE_MEETING_ONLY
        return ASYNC_NEVER_MEETS


def async_feasibility_atlas(
    graph: PortLabeledGraph,
    algorithm: Callable,
    schedules: Sequence[ActivationSchedule],
    *,
    max_events: int,
    pairs: Iterable[tuple[int, int]] | None = None,
    compiler: TraceCompiler | None = None,
) -> list[AsyncAtlasEntry]:
    """Classify every (pair, schedule) cell of the asynchronous model.

    Sweeps ``pairs`` (default: all unordered pairs of distinct nodes)
    against every adversary in ``schedules`` through one call to the
    batched schedule engine — agent traces are compiled once per start
    node and reused by every schedule, and the view-class partition is
    computed once per graph.  Each cell lands in one of the three
    meeting classes (:data:`ASYNC_NODE_MEETING`,
    :data:`ASYNC_EDGE_MEETING_ONLY`, :data:`ASYNC_NEVER_MEETS`),
    making "edge meetings" first-class outcomes alongside node
    meetings rather than a diagnostic footnote.
    """
    if pairs is None:
        pair_list = [
            (u, v) for u in range(graph.n) for v in range(u + 1, graph.n)
        ]
    else:
        pair_list = [(int(u), int(v)) for u, v in pairs]
    context = symmetry_context(graph)
    colors = context.colors
    cells = [(u, v, s) for (u, v) in pair_list for s in schedules]
    outcomes = run_schedule_sweep(
        graph, cells, algorithm, max_events=max_events, compiler=compiler
    )
    return [
        AsyncAtlasEntry(u, v, s, bool(colors[u] == colors[v]), outcome)
        for (u, v, s), outcome in zip(cells, outcomes)
    ]
