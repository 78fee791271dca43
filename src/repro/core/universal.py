"""Algorithm ``UniversalRV`` — Algorithm 3 of the paper.

The agent enumerates phases ``P = 1, 2, ...``; phase ``P`` decodes the
assumption triple ``(n, d, delta) = g^-1(P)`` and, when ``d < n``:

1. runs ``AsymmRV(n)`` for ``P(n) + delta`` rounds, backtracks, and
   waits until ``2 (P(n) + delta)`` rounds from the segment start
   (hoping the positions are non-symmetric);
2. if ``delta >= d``, runs ``SymmRV(n, d, delta)`` under a
   ``T(n, d, delta)`` round cap, backtracks, and waits until
   ``2 T(n, d, delta)`` (hoping the positions are symmetric with
   ``Shrink = d`` and delay ``delta``).

Every segment has a duration that depends only on the *phase triple*
and the shared profile, never on the graph or the agent's position, so
the two agents enter every phase with their original delay — the
invariant Theorem 3.1's proof rests on.  (Deviation from the paper's
pseudocode: we cap SymmRV at ``T`` and pad to ``2T`` instead of
running it to completion and padding to ``T``; in the decisive phase
SymmRV completes within ``T`` by Lemma 3.3, and in wrong phases only
the equal duration matters.  See :mod:`repro.core.profile`.)

By Theorem 3.1 rendezvous is achieved for every feasible STIC with no
a priori knowledge; by Lemma 3.1 infeasible STICs admit no algorithm
at all.

The phase loop is a lazily consumed *segment plan*
(:func:`universal_plan`): an :class:`AsymmSegment` per phase, then a
:class:`SymmSegment` when ``delta >= d``.  :func:`universal_rv` runs
each segment's script in turn.  In oracle mode an AsymmRV segment is
also index arithmetic (:meth:`AsymmSegment.tiling`), so the trace
compiler expands it with numpy instead of stepping the generator; the
algorithm objects of :func:`make_universal_algorithm` carry the plan
for that (:class:`PlannedAlgorithm`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.asymm_rv import AsymmParams, asymm_rv, finalize_label
from repro.core.combinators import run_segment
from repro.core.labels import encode_graph_view
from repro.core.pairing import triple, untriple
from repro.core.profile import TUNED, Profile
from repro.core.schedules import schedule_word
from repro.core.symm_rv import symm_rv
from repro.core.uxs import apply_uxs, is_uxs_for_graph
from repro.exec.trace import TiledWalk
from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import Perception
from repro.sim.agent import AgentScript
from repro.sim.scheduler import RendezvousResult, run_rendezvous
from repro.symmetry.feasibility import (
    AtlasEntry,
    FeasibilityVerdict,
    classify_stic,
)

__all__ = [
    "universal_rv",
    "universal_plan",
    "AsymmSegment",
    "SymmSegment",
    "PlannedAlgorithm",
    "UniversalOracle",
    "make_universal_algorithm",
    "phase_duration",
    "universal_round_budget",
    "universal_stic_budget",
    "CertificationError",
    "certify_graph",
    "certify_instance",
    "certify_labels",
    "certify_all_labels",
    "rendezvous",
    "universal_feasibility_atlas",
]


class CertificationError(RuntimeError):
    """A tuned-profile shortcut failed its per-run validity check."""


class UniversalOracle:
    """Harness-side label oracle for one agent (oracle view mode).

    Supplies, per assumed size ``n``, the canonical encoding of the
    view from the agent's *own* starting node at the profile's depth —
    exactly the value faithful reconstruction would compute, so using
    it changes only simulation cost, not behaviour (tests cross-check
    the two modes).
    """

    def __init__(self, graph: PortLabeledGraph, home: int, profile: Profile) -> None:
        self._graph = graph
        self._home = home
        self._profile = profile
        self._cache: dict[int, tuple[int, ...]] = {}

    def raw_label(self, n: int) -> tuple[int, ...]:
        depth = self._profile.view_depth(n)
        if depth not in self._cache:
            self._cache[depth] = encode_graph_view(self._graph, self._home, depth)
        return self._cache[depth]


@dataclass(frozen=True)
class AsymmSegment:
    """``AsymmRV(n)`` for ``budget`` rounds, backtracked, padded to
    ``2 * budget`` rounds: the first segment of a UniversalRV phase.

    ``oracle`` supplies the view label in oracle mode; ``None`` means
    the agent reconstructs its view by walking (faithful mode).
    """

    params: AsymmParams
    budget: int
    oracle: UniversalOracle | None

    def script(self, percept: Perception) -> AgentScript:
        raw = None if self.oracle is None else self.oracle.raw_label(self.params.n)
        return run_segment(percept, asymm_rv(percept, self.params, raw), self.budget)

    def tiling(self, graph: PortLabeledGraph, home: int) -> TiledWalk | None:
        """:meth:`script` run from ``home``, in closed form.

        In oracle mode the segment waits ``2 * view_budget`` rounds,
        then each active slot walks the UXS from home and back, the
        same nodes every time.  There is no closed form in faithful
        mode, nor at a node of degree 0, where the script's first move
        raises.
        """
        if self.oracle is None or graph.degree(home) == 0:
            return None
        walk = apply_uxs(graph, home, self.params.uxs)
        label = finalize_label(self.oracle.raw_label(self.params.n), self.params)
        return TiledWalk(
            lead=2 * self.params.view_budget,
            slot=np.array(walk[1:] + walk[-2::-1], dtype=np.int64),
            word=schedule_word(label),
            budget=self.budget,
        )


@dataclass(frozen=True)
class SymmSegment:
    """``SymmRV(n, d, delta)`` under the ``T(n, d, delta)`` cap
    ``budget``, backtracked, padded to ``2 * budget`` rounds.  It has
    no closed form: the trace compiler steps its script."""

    n: int
    d: int
    delta: int
    uxs: tuple[int, ...]
    budget: int

    def script(self, percept: Perception) -> AgentScript:
        inner = symm_rv(percept, self.n, self.d, self.delta, uxs=self.uxs)
        return run_segment(percept, inner, self.budget)

    def tiling(self, graph: PortLabeledGraph, home: int) -> None:
        return None


def label_oracle(
    profile: Profile, oracle: UniversalOracle | None
) -> UniversalOracle | None:
    """The oracle AsymmRV segments read labels from: ``oracle`` in
    oracle view mode (where it is required), ``None`` in faithful mode."""
    if profile.view_mode != "oracle":
        return None
    if oracle is None:
        raise ValueError("profile uses oracle view mode but no oracle was given")
    return oracle


def universal_plan(
    profile: Profile = TUNED, oracle: UniversalOracle | None = None
) -> Iterator[AsymmSegment | SymmSegment]:
    """The segments of Algorithm UniversalRV, phase by phase, forever."""
    labels = label_oracle(profile, oracle)
    phase = 1
    while True:
        # g is a bijection on positive integers; delays are non-negative,
        # so the third component encodes delta + 1.
        n, d, delta_code = untriple(phase)
        delta = delta_code - 1
        if d < n:
            yield AsymmSegment(
                profile.asymm_params(n), profile.asymm_bound(n) + delta, labels
            )
            if delta >= d:
                yield SymmSegment(
                    n, d, delta, profile.uxs(n), profile.symm_bound(n, d, delta)
                )
        phase += 1


def universal_rv(
    percept: Perception,
    profile: Profile = TUNED,
    oracle: UniversalOracle | None = None,
) -> AgentScript:
    """Agent script for Algorithm UniversalRV (runs until rendezvous):
    the scripts of :func:`universal_plan`'s segments, one after another."""
    for segment in universal_plan(profile, oracle):
        percept = yield from segment.script(percept)
    return percept


class PlannedAlgorithm:
    """The algorithm object of a segment-plan algorithm.

    Called as ``algorithm(percept, oracle=None)`` it starts the agent
    script, like any algorithm factory's output.  Under an oracle-mode
    profile, ``segment_plan(oracle)`` returns the same phase loop as a
    segment iterator, which :class:`repro.exec.trace.TraceCompiler`
    compiles without running the script; under a faithful profile
    ``segment_plan`` is ``None`` and the compiler runs the script.
    """

    def __init__(
        self,
        script: Callable[[Perception, Profile, UniversalOracle | None], AgentScript],
        plan: Callable[..., Iterator[AsymmSegment | SymmSegment]],
        profile: Profile,
    ) -> None:
        self._script = script
        self._profile = profile
        self.segment_plan = (
            partial(plan, profile) if profile.view_mode == "oracle" else None
        )

    def __call__(
        self, percept: Perception, oracle: UniversalOracle | None = None
    ) -> AgentScript:
        return self._script(percept, self._profile, oracle)


def make_universal_algorithm(profile: Profile = TUNED) -> PlannedAlgorithm:
    """Algorithm factory for :func:`repro.sim.scheduler.run_rendezvous`.

    With an oracle-mode profile the scheduler must be given per-agent
    oracles (see :func:`rendezvous`, which wires everything up).
    """
    return PlannedAlgorithm(universal_rv, universal_plan, profile)


def phase_duration(profile: Profile, phase: int) -> int:
    """Exact duration in rounds of phase ``phase`` (0 when skipped)."""
    n, d, delta_code = untriple(phase)
    delta = delta_code - 1
    if d >= n:
        return 0
    total = 2 * (profile.asymm_bound(n) + delta)
    if delta >= d:
        total += 2 * profile.symm_bound(n, d, delta)
    return total


#: Running sums of :func:`phase_duration` per profile configuration:
#: ``_PHASE_PREFIX[key][p]`` is the total duration of phases ``1 .. p``.
#: Budgets are asked for over and over with the same profile, so each
#: phase's duration is computed once, not once per call.
_PHASE_PREFIX: dict[tuple, list[int]] = {}


def universal_round_budget(profile: Profile, n: int, d: int, delta: int) -> int:
    """Rounds (from the later agent's start) by which UniversalRV must
    have met, for a STIC whose decisive triple is ``(n, d, delta)``.

    For non-symmetric positions the decisive triple is
    ``(n, 1, actual delta)`` at worst (the first phase with the right
    ``n`` and an assumed delay ``>= delta`` meets inside its AsymmRV
    segment); for symmetric positions it is ``(n, Shrink, delta)``.
    """
    last = triple(n, d, delta + 1)
    key = (
        type(profile),
        profile.label_mode,
        profile.view_mode,
        profile.uxs_scale,
        profile.view_depth_cap,
    )
    prefix = _PHASE_PREFIX.setdefault(key, [0])
    for p in range(len(prefix), last + 1):
        prefix.append(prefix[-1] + phase_duration(profile, p))
    return prefix[last]


def universal_stic_budget(
    profile: Profile,
    n: int,
    verdict: FeasibilityVerdict,
    delta: int,
    *,
    infeasible_horizon: int = 512,
) -> int:
    """Global-round budget for simulating UniversalRV on one STIC,
    sized from its feasibility verdict — the formula shared by
    :func:`rendezvous` and the batched sweeps.

    Feasible STICs get the Theorem 3.1 meeting bound for the decisive
    ``d`` (``Shrink`` when symmetric, else 1) plus one round of slack.
    Infeasible STICs get ``delta + infeasible_horizon`` rounds to
    observe the non-meeting — by Lemma 3.1 no horizon could change the
    outcome, so sweeps keep it small.  (:func:`rendezvous` instead
    grants them a full wrong-phase budget; pass that explicitly if the
    front door's generosity is wanted.)
    """
    if verdict.feasible:
        d = verdict.shrink if verdict.symmetric else 1
        return delta + universal_round_budget(profile, n, d, delta) + 1
    return delta + infeasible_horizon


def certify_graph(graph: PortLabeledGraph, profile: Profile) -> None:
    """Validate the profile's *graph-level* shortcut: its UXS for the
    actual size must cover the graph from every node (needed by both
    SymmRV and the active slots of AsymmRV in the decisive phase).

    This is the expensive half of :func:`certify_instance` and is
    independent of the starting pair — sweeps over many pairs of one
    graph should call it once plus one :func:`certify_all_labels`.
    Coverage runs through the vectorized multi-start walk of
    :func:`repro.core.uxs.is_uxs_for_graph` (early exit on coverage),
    so certification is cheap even for the reference ``Y(n)``.

    Raises :class:`CertificationError` with remediation advice.
    """
    n = graph.n
    if not is_uxs_for_graph(graph, profile.uxs(n)):
        raise CertificationError(
            f"profile {profile.name!r}: exploration sequence for n={n} does "
            "not cover this graph from every start; increase uxs_scale"
        )


def _raw_node_label(
    graph: PortLabeledGraph, node: int, profile: Profile
) -> tuple[int, ...]:
    """The canonical view encoding AsymmRV labels ``node`` with."""
    return encode_graph_view(graph, node, profile.view_depth(graph.n))


def certify_labels(
    graph: PortLabeledGraph, u: int, v: int, profile: Profile
) -> None:
    """Validate the profile's *pair-level* shortcut: with hashed
    labels, non-symmetric starting positions must hash to different
    labels (a collision would void Proposition 3.1).

    Raises :class:`CertificationError` with remediation advice.
    """
    n = graph.n
    if profile.label_mode != "padded":
        from repro.core.asymm_rv import finalize_label

        params = profile.asymm_params(n)
        label_u = _raw_node_label(graph, u, profile)
        label_v = _raw_node_label(graph, v, profile)
        if label_u != label_v and finalize_label(
            label_u, params
        ) == finalize_label(label_v, params):
            raise CertificationError(
                f"profile {profile.name!r}: hashed labels collide for "
                "non-symmetric positions; use label_mode='hash32' or 'padded'"
            )


def certify_all_labels(graph: PortLabeledGraph, profile: Profile) -> None:
    """Validate the pair-level shortcut for *every* pair of the graph.

    Encodes each node's raw view label once (``n`` encodings of the
    depth-``view_depth(n)`` view, instead of ``n (n - 1)`` when calling
    :func:`certify_labels` per pair), hashes each once, and compares
    all pairs on the cached values.

    Raises :class:`CertificationError` on the first colliding pair.
    """
    if profile.label_mode == "padded":
        return
    from repro.core.asymm_rv import finalize_label

    n = graph.n
    params = profile.asymm_params(n)
    raw = [_raw_node_label(graph, v, profile) for v in range(n)]
    finalized = [finalize_label(label, params) for label in raw]
    for u in range(n):
        for v in range(u + 1, n):
            if raw[u] != raw[v] and finalized[u] == finalized[v]:
                raise CertificationError(
                    f"profile {profile.name!r}: hashed labels collide for "
                    "non-symmetric positions; use label_mode='hash32' or "
                    "'padded'"
                )


def certify_instance(
    graph: PortLabeledGraph, u: int, v: int, profile: Profile
) -> None:
    """Validate tuned-profile shortcuts on this instance: UXS coverage
    (:func:`certify_graph`) plus hashed-label distinctness
    (:func:`certify_labels`)."""
    certify_graph(graph, profile)
    certify_labels(graph, u, v, profile)


def universal_feasibility_atlas(
    graph: PortLabeledGraph,
    max_delta: int,
    *,
    profile: Profile = TUNED,
    infeasible_horizon: int = 512,
) -> list[AtlasEntry]:
    """The canonical UniversalRV atlas: certify the profile on the
    graph (coverage once, per-node labels encoded once and compared
    across all pairs), budget each STIC from its verdict via
    :func:`universal_stic_budget`, and simulate every STIC with delay
    up to ``max_delta`` through
    :func:`repro.symmetry.empirical_feasibility_atlas` in one batched
    sweep.  Returns the list of atlas entries.
    """
    from repro.symmetry.feasibility import empirical_feasibility_atlas

    certify_graph(graph, profile)
    certify_all_labels(graph, profile)

    def budget(u: int, v: int, delta: int, verdict: FeasibilityVerdict) -> int:
        return universal_stic_budget(
            profile, graph.n, verdict, delta,
            infeasible_horizon=infeasible_horizon,
        )

    oracle_factory = None
    if profile.view_mode == "oracle":
        oracle_factory = lambda start: UniversalOracle(graph, start, profile)
    return empirical_feasibility_atlas(
        graph,
        make_universal_algorithm(profile),
        max_delta,
        max_rounds=budget,
        oracle_factory=oracle_factory,
    )


@dataclass(frozen=True)
class _Prediction:
    feasible: bool
    decisive_d: int | None


def rendezvous(
    graph: PortLabeledGraph,
    u: int,
    v: int,
    delta: int,
    *,
    profile: Profile = TUNED,
    max_rounds: int | None = None,
    record_traces: bool = False,
) -> RendezvousResult:
    """Run Algorithm UniversalRV on STIC ``[(u, v), delta]`` — the
    library's front door.

    Certifies the profile's shortcuts on the instance, sizes the round
    budget from the feasibility characterization when ``max_rounds`` is
    not given (infeasible STICs get a generous fixed horizon so the
    caller can observe the non-meeting), and simulates both agents.
    """
    certify_instance(graph, u, v, profile)
    verdict = classify_stic(graph, u, v, delta)
    if max_rounds is None:
        if verdict.feasible:
            max_rounds = universal_stic_budget(profile, graph.n, verdict, delta)
        else:
            # The front door is generous with infeasible STICs: a full
            # wrong-phase budget, so the non-meeting is unambiguous.
            max_rounds = delta + universal_round_budget(profile, graph.n, 1, delta)

    algorithm = make_universal_algorithm(profile)
    oracles = None
    if profile.view_mode == "oracle":
        oracles = (
            UniversalOracle(graph, u, profile),
            UniversalOracle(graph, v, profile),
        )
    return run_rendezvous(
        graph,
        u,
        v,
        delta,
        algorithm,
        max_rounds=max_rounds,
        record_traces=record_traces,
        oracles=oracles,
    )
