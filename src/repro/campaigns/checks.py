"""The campaign check library: pluggable per-cell correctness oracles.

Each check is a pure function of ``(graph_spec, seed, knobs)`` — the
graph is rebuilt from its declarative JSON spec, every random choice
derives from the cell seed, and the ``knobs`` dict bounds the sampling
— so a failing cell replays bit-for-bit from its replay artifact.
Three kinds of oracle cover the guarantees the paper states for *all*
port-labeled graphs:

**differential** — a batched engine against its retained scalar
reference, on the same seeded instance:

* ``differential/stic-sweep`` — :func:`repro.sim.batch.run_rendezvous_batch`
  vs scalar :func:`repro.sim.scheduler.run_rendezvous` over random
  STICs of a seeded agent program;
* ``differential/schedule-sweep`` — :func:`run_schedule_sweep` vs
  scalar :func:`run_schedule_adversary` over (pair x adversary) grids;
* ``differential/symmetry-kernel`` — the array symmetry kernel
  (:func:`view_classes`, :func:`shrink_witness`) vs the retained
  scalar refinement/BFS references, plus witness validity;
* ``differential/uxs-cover`` — the vectorized multi-start UXS
  certifier vs the scalar per-start walks, on growing prefixes;
* ``differential/hardness-word`` — :func:`repro.hardness.batch.
  simulate_word_batch` vs the scalar :func:`simulate_word` reference,
  over seeded oblivious words (STAY included) and all later starts;
* ``differential/baselines`` — the baseline family against its scalar
  references: the asymm-only variant batch-vs-scalar at a shared
  budget, ``wait_for_mommy`` vs a rescan of the vectorized all-starts
  walk matrix, leader-election coherence on traced runs, and the
  random-walk sweep aggregate vs per-trial recomputation.

**metamorphic** — invariance properties no reference implementation
is needed for:

* ``metamorphic/node-relabel`` — a seeded node permutation is a
  port-preserving isomorphism: view partition, Shrink matrix, and
  feasibility verdicts must map through it unchanged;
* ``metamorphic/port-relabel`` — permuting port labels preserves the
  underlying graph: distances and degrees are invariant, ``Shrink <=
  dist`` still holds, and verdicts stay coherent with Corollary 3.1;
* ``metamorphic/uxs-relabel`` — UXS coverage counts are equivariant
  under node permutation for arbitrary streams, and a sequence
  certified universal for the whole class of tiny-``n`` graphs keeps
  its verdict on every port-relabeled image.

**statistical** — ``statistical/meeting-time`` sweeps seeded agents
over random STICs and validates meeting-time summaries against hard
kinematic bounds (two unit-speed agents cannot close distance ``D``
with delay ``delta`` before round ``(D + delta) / 2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines import (
    elect_leader,
    make_asymm_only_algorithm,
    mean_meeting_time,
    random_walk_rendezvous,
    wait_for_mommy,
)
from repro.core.profile import TUNED
from repro.core.universal import UniversalOracle
from repro.core.uxs import (
    apply_uxs,
    is_uxs_for_graph_scalar,
    minimal_verified_uxs,
)
from repro.exec.uxs import (
    apply_uxs_all,
    covered_counts,
    generate_offset_stream,
    is_uxs_for_graph_vectorized,
)
from repro.experiments.scenarios import build_graph
from repro.graphs.builders import relabel_ports
from repro.graphs.port_graph import PortLabeledGraph
from repro.graphs.random_graphs import random_port_permutation
from repro.hardness.batch import simulate_word_batch
from repro.hardness.lower_bound import STAY, simulate_word
from repro.sim.actions import Move, Wait, WaitBlock
from repro.sim.batch import run_rendezvous_batch
from repro.sim.schedule_adversary import (
    EagerSchedule,
    FixedDelaySchedule,
    MirrorSchedule,
    RandomSchedule,
    RateSkewSchedule,
    WordSchedule,
    run_schedule_adversary,
    run_schedule_sweep,
)
from repro.sim.scheduler import run_rendezvous
from repro.symmetry.context import SymmetryContext
from repro.symmetry.shrink import shrink_witness_reference
from repro.symmetry.views import view_classes_reference
from repro.util.lcg import SplitMix64, derive_seed

__all__ = [
    "CHECKS",
    "CHECK_KINDS",
    "CampaignCheck",
    "CheckResult",
    "run_check",
    "seeded_agent",
    "default_knobs",
]

#: Default sampling bounds; campaigns override per tier via their
#: ``knobs`` param (and replay artifacts persist the override).
_DEFAULT_KNOBS = {"max_pairs": 6, "max_events": 48, "max_deltas": 2}


def default_knobs() -> dict:
    return dict(_DEFAULT_KNOBS)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check on one graph instance.

    ``ok`` is the verdict; ``comparisons`` counts the individual
    oracle comparisons that backed it (so a vacuous pass is visible);
    ``detail`` pinpoints the first divergence; ``summary`` carries the
    check's plain-JSON measurement payload (meeting-time statistics,
    coverage counts, ...).
    """

    ok: bool
    comparisons: int
    detail: str | None = None
    summary: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "comparisons": self.comparisons,
            "detail": self.detail,
            "summary": self.summary or {},
        }


@dataclass(frozen=True)
class CampaignCheck:
    """A registered check: id, kind, and the oracle function."""

    check_id: str
    kind: str
    doc: str
    run: Callable[[dict, int, dict], CheckResult]


def seeded_agent(seed: int):
    """A pseudo-random deterministic agent program.

    Mixes moves, waits, wait blocks, and clock-dependent port choices
    — the idiom of the engine differential suites — so one seed axis
    sweeps a broad slice of agent behaviors through both engines.
    """

    def algorithm(percept):
        rng = SplitMix64(derive_seed("campaign-agent", seed))
        while True:
            roll = rng.randrange(10)
            if roll < 5:
                percept = yield Move(rng.randrange(percept.degree))
            elif roll < 7:
                percept = yield Wait()
            elif roll < 9:
                percept = yield WaitBlock(rng.randrange(5) + 1)
            else:
                percept = yield Move(percept.clock % percept.degree)

    return algorithm


def _sample_pairs(
    n: int, rng: SplitMix64, count: int, *, distinct: bool = False
) -> list[tuple[int, int]]:
    """Deterministically sample ``count`` (u, v) start pairs."""
    pairs = []
    for _ in range(count):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if distinct and n > 1:
            while v == u:
                v = rng.randrange(n)
        pairs.append((u, v))
    return pairs


def _fresh_context(graph: PortLabeledGraph) -> SymmetryContext:
    """A private kernel context (bypasses the per-graph LRU memo).

    Metamorphic checks build several same-``n`` graphs per cell; going
    through :func:`symmetry_context` would be correct but would also
    churn the global memo for no benefit.
    """
    return SymmetryContext(graph)


def _verdict_fields(ctx: SymmetryContext, u: int, v: int, delta: int) -> tuple:
    verdict = ctx.verdict(u, v, delta)
    return (verdict.feasible, verdict.symmetric, verdict.shrink)


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------


def _check_stic_sweep(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "stic-sweep", seed))
    budget = 8 * n + 24
    stics = [
        (u, v, rng.randrange(n + 3))
        for u, v in _sample_pairs(n, rng, int(knobs["max_pairs"]))
    ]
    algorithm = seeded_agent(seed)
    batch = run_rendezvous_batch(graph, stics, algorithm, max_rounds=budget)
    met = 0
    times = []
    for (u, v, delta), got in zip(stics, batch):
        want = run_rendezvous(graph, u, v, delta, algorithm, max_rounds=budget)
        for field in (
            "met",
            "meeting_node",
            "meeting_time",
            "time_from_later",
            "rounds_executed",
        ):
            if getattr(got, field) != getattr(want, field):
                return CheckResult(
                    ok=False,
                    comparisons=len(stics),
                    detail=(
                        f"STIC [({u},{v}),{delta}]: batch {field}="
                        f"{getattr(got, field)!r} != scalar "
                        f"{getattr(want, field)!r}"
                    ),
                )
        if got.met:
            met += 1
            times.append(got.meeting_time)
    return CheckResult(
        ok=True,
        comparisons=len(stics),
        summary={
            "stics": len(stics),
            "met": met,
            "max_meeting_time": max(times) if times else None,
        },
    )


def _schedule_pool(rng: SplitMix64, max_events: int) -> list:
    word = tuple(
        ("a", "b", "ab", "-")[rng.randrange(4)]
        for _ in range(rng.randrange(5) + 2)
    )
    if all(sym == "-" for sym in word):
        word = word + ("ab",)
    return [
        MirrorSchedule(),
        EagerSchedule(first=rng.randrange(2)),
        FixedDelaySchedule(rng.randrange(max_events // 2 + 1)),
        RateSkewSchedule(rng.randrange(3) + 1, rng.randrange(3) + 1),
        WordSchedule(word),
        RandomSchedule(rng.randrange(1 << 16)),
    ]


def _check_schedule_sweep(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "schedule-sweep", seed))
    max_events = int(knobs["max_events"])
    schedules = _schedule_pool(rng, max_events)
    cells = [
        (u, v, schedules[rng.randrange(len(schedules))])
        for u, v in _sample_pairs(n, rng, int(knobs["max_pairs"]))
    ]
    algorithm = seeded_agent(seed)
    batch = run_schedule_sweep(graph, cells, algorithm, max_events=max_events)
    node_meetings = edge_meetings = 0
    for (u, v, schedule), got in zip(cells, batch):
        want = run_schedule_adversary(
            graph, u, v, algorithm, schedule, max_events=max_events
        )
        for field in ("met", "meeting_node", "events", "edge_meetings"):
            if getattr(got, field) != getattr(want, field):
                return CheckResult(
                    ok=False,
                    comparisons=len(cells),
                    detail=(
                        f"cell ({u},{v},{schedule.name}): sweep {field}="
                        f"{getattr(got, field)!r} != scalar "
                        f"{getattr(want, field)!r}"
                    ),
                )
        node_meetings += got.met
        edge_meetings += got.edge_meetings
    return CheckResult(
        ok=True,
        comparisons=len(cells),
        summary={
            "cells": len(cells),
            "node_meetings": node_meetings,
            "edge_meetings": edge_meetings,
        },
    )


def _check_symmetry_kernel(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "symmetry-kernel", seed))
    ctx = _fresh_context(graph)
    comparisons = 1
    if ctx.color_list() != view_classes_reference(graph):
        return CheckResult(
            ok=False,
            comparisons=comparisons,
            detail="kernel view partition != scalar refinement partition",
        )
    dist = ctx.distances
    for u, v in _sample_pairs(n, rng, int(knobs["max_pairs"])):
        comparisons += 1
        value, alpha, (x, y) = ctx.shrink_witness(u, v)
        ref_value, _ref_alpha, _ref_pair = shrink_witness_reference(graph, u, v)
        if value != ref_value:
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"Shrink({u},{v}): kernel {value} != reference {ref_value}"
                ),
            )
        # Witness validity: alpha must actually drive (u, v) to (x, y)
        # and the final pair must realize the claimed distance.
        a, b = u, v
        for port in alpha:
            if port >= graph.degree(a) or port >= graph.degree(b):
                return CheckResult(
                    ok=False,
                    comparisons=comparisons,
                    detail=f"Shrink({u},{v}): witness port {port} invalid",
                )
            a, b = graph.succ(a, port), graph.succ(b, port)
        if (a, b) != (x, y) or int(dist[x, y]) != value:
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"Shrink({u},{v}): witness lands on ({a},{b}) at "
                    f"distance {int(dist[a, b])}, claimed ({x},{y}) "
                    f"at {value}"
                ),
            )
    return CheckResult(
        ok=True,
        comparisons=comparisons,
        summary={"classes": len(set(ctx.color_list())), "n": n},
    )


def _check_sparse_symmetry(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    """The sparse/blocked symmetry paths vs the retained scalar references.

    Exercises exactly the engines the dense kernel no longer goes
    through for huge graphs: the frontier-compressed multi-source BFS
    (:meth:`SymmetryContext.distances_block`), the batched per-pair
    product BFS (:meth:`SymmetryContext.shrink_pairs`), the blocked
    worklist value iteration (:meth:`SymmetryContext.shrink_all_into`),
    and the color-bucketed symmetric-pair arrays — each against the
    scalar BFS / product-BFS / refinement references, on fresh contexts
    so nothing is served from a dense cache.
    """
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "sparse-symmetry", seed))
    ctx = _fresh_context(graph)
    comparisons = 0

    rows = [rng.randrange(n) for _ in range(min(n, int(knobs["max_pairs"])))]
    block = ctx.distances_block(rows)
    for slot, source in enumerate(rows):
        comparisons += 1
        if not np.array_equal(block[slot], graph.distances_from_reference(source)):
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"distances_block row {source}: blocked BFS != "
                    f"scalar reference BFS"
                ),
            )

    pairs = _sample_pairs(n, rng, int(knobs["max_pairs"]))
    us = np.asarray([u for u, _ in pairs], dtype=np.int64)
    vs = np.asarray([v for _, v in pairs], dtype=np.int64)
    values = ctx.shrink_pairs(us, vs, pair_chunk=3)
    for (u, v), value in zip(pairs, values.tolist()):
        comparisons += 1
        ref_value, _ref_alpha, _ref_pair = shrink_witness_reference(graph, u, v)
        if value != ref_value:
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"shrink_pairs({u},{v}): batched product BFS {value}"
                    f" != scalar reference {ref_value}"
                ),
            )

    blocked = _fresh_context(graph).shrink_all_into(block_size=max(1, n // 3))
    comparisons += 1
    if not np.array_equal(blocked, blocked.T) or (np.diagonal(blocked) != 0).any():
        return CheckResult(
            ok=False,
            comparisons=comparisons,
            detail="blocked shrink_all_into: not symmetric with zero diagonal",
        )
    for (u, v), value in zip(pairs, values.tolist()):
        comparisons += 1
        if int(blocked[u, v]) != value:
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"blocked shrink_all_into[{u},{v}]="
                    f"{int(blocked[u, v])} != per-pair BFS {value}"
                ),
            )

    colors = view_classes_reference(graph)
    expected = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if colors[u] == colors[v]
    ]
    comparisons += 1
    if ctx.symmetric_pairs() != expected:
        return CheckResult(
            ok=False,
            comparisons=comparisons,
            detail=(
                "color-bucketed symmetric_pairs() != pairs of the scalar "
                "view partition"
            ),
        )
    return CheckResult(
        ok=True,
        comparisons=comparisons,
        summary={
            "n": n,
            "sampled_pairs": len(pairs),
            "max_shrink_sampled": max(values.tolist()) if pairs else None,
        },
    )


def _check_uxs_cover(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    stream = generate_offset_stream(
        derive_seed("campaign-check", "uxs-cover", seed),
        max(2 * n, 2),
        max(64 * n, 8),
    )
    seq = tuple(int(a) for a in stream)
    comparisons = 0
    verdicts = []
    for length in (n, 4 * n, 16 * n, 64 * n):
        prefix = seq[:length]
        fast = is_uxs_for_graph_vectorized(graph, prefix)
        slow = is_uxs_for_graph_scalar(graph, prefix)
        comparisons += 1
        if fast != slow:
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"prefix length {length}: vectorized certifier says "
                    f"{fast}, scalar says {slow}"
                ),
            )
        verdicts.append(fast)
    # Strongest form on the full stream: per-start coverage counts.
    counts = covered_counts(graph, seq)
    for start in range(n):
        comparisons += 1
        scalar = len(set(apply_uxs(graph, start, seq)))
        if int(counts[start]) != scalar:
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"start {start}: vectorized coverage {int(counts[start])}"
                    f" != scalar {scalar}"
                ),
            )
    return CheckResult(
        ok=True,
        comparisons=comparisons,
        summary={"prefix_verdicts": verdicts, "full_cover": all(
            int(c) == n for c in counts
        )},
    )


def _check_hardness_word(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "hardness-word", seed))
    # Letters valid at every node: ports below the minimum degree, plus
    # the explicit STAY symbol of the oblivious-word model.
    letters = list(range(int(graph.degrees.min()))) + [STAY]
    word = tuple(
        letters[rng.randrange(len(letters))] for _ in range(rng.randrange(6) + 3)
    )
    u = rng.randrange(n)
    starts = list(range(n))
    comparisons = 0
    met = 0
    for delta in range(int(knobs["max_deltas"]) + 1):
        budget = 4 * n + 2 * len(word) + delta
        batch = simulate_word_batch(graph, word, u, starts, delta, budget)
        for v, got in zip(starts, batch):
            want = simulate_word(graph, word, u, v, delta, budget).meeting_time
            comparisons += 1
            if got != want:
                return CheckResult(
                    ok=False,
                    comparisons=comparisons,
                    detail=(
                        f"word {word} from ({u},{v}) delta={delta}: batch "
                        f"meeting {got!r} != scalar {want!r}"
                    ),
                )
            met += got is not None
    return CheckResult(
        ok=True,
        comparisons=comparisons,
        summary={"word_len": len(word), "starts": len(starts), "met": met},
    )


def _mommy_from_walk(walk, waiter: int, delta: int) -> tuple:
    """Recompute a :func:`wait_for_mommy` outcome from a leader walk
    (the scan of the scalar baseline, fed a vectorized walk row)."""
    for step, node in enumerate(walk):
        t = step  # leader is earlier: its start round is 0
        if int(node) == waiter and t >= delta:
            return (True, t, t - delta, step)
    if int(walk[-1]) == waiter:
        t = max(len(walk) - 1, delta)
        return (True, t, t - delta, len(walk) - 1)
    return (False, None, None, None)


def _check_baselines(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "baselines", seed))
    comparisons = 0
    budget = 8 * n + 32
    pairs = _sample_pairs(n, rng, int(knobs["max_pairs"]), distinct=True)

    # 1. Asymm-only variant: batched engine vs scalar scheduler at a
    # shared truncating budget (oracle view mode on both paths).
    algorithm = make_asymm_only_algorithm(TUNED)
    oracle_factory = lambda start: UniversalOracle(graph, start, TUNED)  # noqa: E731
    stics = [(u, v, rng.randrange(3)) for u, v in pairs]
    batch = run_rendezvous_batch(
        graph,
        stics,
        algorithm,
        max_rounds=budget,
        oracle_factory=oracle_factory,
    )
    for (u, v, delta), got in zip(stics, batch):
        want = run_rendezvous(
            graph,
            u,
            v,
            delta,
            algorithm,
            max_rounds=budget,
            oracles=(oracle_factory(u), oracle_factory(v)),
        )
        comparisons += 1
        for field in ("met", "meeting_node", "meeting_time", "time_from_later"):
            if getattr(got, field) != getattr(want, field):
                return CheckResult(
                    ok=False,
                    comparisons=comparisons,
                    detail=(
                        f"asymm-only STIC [({u},{v}),{delta}]: batch "
                        f"{field}={getattr(got, field)!r} != scalar "
                        f"{getattr(want, field)!r}"
                    ),
                )

    # 2. Wait-for-Mommy: the scalar baseline vs a rescan of the
    # vectorized all-starts walk matrix row.
    stream = [
        int(a)
        for a in generate_offset_stream(
            derive_seed("campaign-baseline-walk", seed), max(2 * n, 2), 48 * n
        )
    ]
    walks = apply_uxs_all(graph, stream)
    for leader, waiter in pairs:
        delta = rng.randrange(3)
        got = wait_for_mommy(graph, leader, waiter, delta, stream)
        want = _mommy_from_walk(walks[leader], waiter, delta)
        comparisons += 1
        if (got.met, got.meeting_time, got.time_from_later, got.leader_steps) != want:
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"wait-for-mommy ({leader}->{waiter}, delta={delta}): "
                    f"scalar {got!r} != vectorized-walk rescan {want!r}"
                ),
            )

    # 3. Leader election: the reduction must be deterministic and
    # decide strictly before the meeting it is derived from.
    elections = 0
    for u, v in pairs:
        result = run_rendezvous(
            graph,
            u,
            v,
            rng.randrange(3),
            seeded_agent(seed),
            max_rounds=budget,
            record_traces=True,
        )
        if not result.met:
            continue
        comparisons += 1
        election = elect_leader(result)
        elections += 1
        if not (
            election.leader in (0, 1)
            and 0 <= election.decided_at < result.meeting_time
            and election == elect_leader(result)
        ):
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=f"leader election incoherent for ({u},{v}): {election!r}",
            )

    # 4. Random-walk baseline: the sweep aggregate vs a per-trial
    # recomputation from the same derived seeds.
    u, v = pairs[0]
    delta = rng.randrange(3)
    trials = 5
    horizon = 16 * n + delta
    mean, failures = mean_meeting_time(
        graph, u, v, delta, trials=trials, seed=seed, max_rounds=horizon
    )
    times = []
    for trial in range(trials):
        outcome = random_walk_rendezvous(
            graph, u, v, delta, seed=derive_seed(seed, trial), max_rounds=horizon
        )
        if outcome.met:
            times.append(outcome.time_from_later)
    want_mean = sum(times) / len(times) if times else float("inf")
    want_failures = trials - len(times)
    comparisons += 1
    if (mean, failures) != (want_mean, want_failures):
        return CheckResult(
            ok=False,
            comparisons=comparisons,
            detail=(
                f"random-walk mean ({u},{v},{delta}): sweep "
                f"({mean}, {failures}) != recomputed "
                f"({want_mean}, {want_failures})"
            ),
        )
    return CheckResult(
        ok=True,
        comparisons=comparisons,
        summary={
            "asymm_stics": len(stics),
            "elections": elections,
            "rw_mean": mean if math.isfinite(mean) else None,
        },
    )


# ---------------------------------------------------------------------------
# Metamorphic checks
# ---------------------------------------------------------------------------


def _permuted_graph(
    graph: PortLabeledGraph, perm: list[int]
) -> PortLabeledGraph:
    return PortLabeledGraph(
        graph.n,
        [(perm[a], pa, perm[b], pb) for a, pa, b, pb in graph.edges],
    )


def _check_node_relabel(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "node-relabel", seed))
    perm = random_port_permutation(n, rng)
    image = _permuted_graph(graph, perm)
    ctx, ctx2 = _fresh_context(graph), _fresh_context(image)
    p = np.asarray(perm)
    comparisons = 2
    same = ctx.colors[:, None] == ctx.colors[None, :]
    same2 = ctx2.colors[:, None] == ctx2.colors[None, :]
    if not np.array_equal(same, same2[np.ix_(p, p)]):
        return CheckResult(
            ok=False,
            comparisons=comparisons,
            detail="view partition is not invariant under node relabeling",
        )
    if not np.array_equal(ctx.shrink_all, ctx2.shrink_all[np.ix_(p, p)]):
        return CheckResult(
            ok=False,
            comparisons=comparisons,
            detail="Shrink matrix is not invariant under node relabeling",
        )
    for u, v in _sample_pairs(n, rng, int(knobs["max_pairs"]), distinct=True):
        for delta in range(int(knobs["max_deltas"]) + 1):
            comparisons += 1
            if _verdict_fields(ctx, u, v, delta) != _verdict_fields(
                ctx2, perm[u], perm[v], delta
            ):
                return CheckResult(
                    ok=False,
                    comparisons=comparisons,
                    detail=(
                        f"verdict of [({u},{v}),{delta}] changed under "
                        "node relabeling"
                    ),
                )
    return CheckResult(ok=True, comparisons=comparisons, summary={"n": n})


def _check_port_relabel(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "port-relabel", seed))
    permutations = {
        v: dict(enumerate(random_port_permutation(graph.degree(v), rng)))
        for v in range(n)
    }
    image = relabel_ports(graph, permutations)
    ctx, ctx2 = _fresh_context(graph), _fresh_context(image)
    comparisons = 2
    if not np.array_equal(graph.degrees, image.degrees):
        return CheckResult(
            ok=False,
            comparisons=comparisons,
            detail="degree sequence changed under port relabeling",
        )
    if not np.array_equal(ctx.distances, ctx2.distances):
        return CheckResult(
            ok=False,
            comparisons=comparisons,
            detail="distance matrix changed under port relabeling",
        )
    dist = ctx.distances
    for u, v in _sample_pairs(n, rng, int(knobs["max_pairs"]), distinct=True):
        comparisons += 1
        s = int(ctx2.shrink_all[u, v])
        if s > int(dist[u, v]):
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"Shrink({u},{v})={s} exceeds distance "
                    f"{int(dist[u, v])} after port relabeling"
                ),
            )
        for delta in range(int(knobs["max_deltas"]) + 1):
            comparisons += 1
            feasible, symmetric, shrink = _verdict_fields(ctx2, u, v, delta)
            coherent = feasible == ((not symmetric) or delta >= shrink)
            if not coherent:
                return CheckResult(
                    ok=False,
                    comparisons=comparisons,
                    detail=(
                        f"verdict of [({u},{v}),{delta}] is incoherent "
                        "with Corollary 3.1 after port relabeling"
                    ),
                )
    return CheckResult(ok=True, comparisons=comparisons, summary={"n": n})


def _check_uxs_relabel(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "uxs-relabel", seed))
    stream = tuple(
        int(a)
        for a in generate_offset_stream(
            derive_seed("campaign-uxs-relabel", seed), max(2 * n, 2), 48 * n
        )
    )
    comparisons = 0

    # Node relabeling is a port-preserving isomorphism: any offset
    # stream's coverage counts must map through the permutation
    # unchanged, start by start (equivariance, not mere invariance).
    perm = random_port_permutation(n, rng)
    image = _permuted_graph(graph, perm)
    counts = covered_counts(graph, stream)
    counts2 = covered_counts(image, stream)
    for u in range(n):
        comparisons += 1
        if int(counts[u]) != int(counts2[perm[u]]):
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"coverage from start {u} changed under node "
                    f"relabeling: {int(counts[u])} != "
                    f"{int(counts2[perm[u]])} from {perm[u]}"
                ),
            )
    comparisons += 1
    if is_uxs_for_graph_vectorized(graph, stream) != is_uxs_for_graph_vectorized(
        image, stream
    ):
        return CheckResult(
            ok=False,
            comparisons=comparisons,
            detail="UXS verdict changed under node relabeling",
        )

    # Port relabeling changes the walks, so per-stream coverage may
    # legitimately change — but a sequence certified universal for the
    # *class* of n-node graphs (exhaustively, so only for tiny n) must
    # keep its verdict on every relabeled image.
    certified_n = None
    max_uxs_n = min(int(knobs.get("max_uxs_n", 4)), 4)
    if 1 < n <= max_uxs_n:
        certified = minimal_verified_uxs(n)
        permutations = {
            v: dict(enumerate(random_port_permutation(graph.degree(v), rng)))
            for v in range(n)
        }
        for target in (graph, image, relabel_ports(graph, permutations)):
            comparisons += 1
            if not is_uxs_for_graph_vectorized(target, certified):
                return CheckResult(
                    ok=False,
                    comparisons=comparisons,
                    detail=(
                        f"certified UXS for n={n} lost universality "
                        "under relabeling"
                    ),
                )
        certified_n = n
    return CheckResult(
        ok=True,
        comparisons=comparisons,
        summary={
            "n": n,
            "stream_len": len(stream),
            "certified_n": certified_n,
        },
    )


# ---------------------------------------------------------------------------
# Statistical check
# ---------------------------------------------------------------------------


def _check_meeting_time(graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    graph = build_graph(graph_spec)
    n = graph.n
    rng = SplitMix64(derive_seed("campaign-check", "meeting-time", seed))
    budget = 8 * n + 24
    stics = [
        (u, v, rng.randrange(n + 3))
        for u, v in _sample_pairs(n, rng, int(knobs["max_pairs"]))
    ]
    ctx = _fresh_context(graph)
    dist = ctx.distances
    results = run_rendezvous_batch(
        graph, stics, seeded_agent(seed), max_rounds=budget
    )
    times = []
    comparisons = 0
    for (u, v, delta), r in zip(stics, results):
        comparisons += 1
        if not r.met:
            if r.rounds_executed != budget:
                return CheckResult(
                    ok=False,
                    comparisons=comparisons,
                    detail=(
                        f"STIC [({u},{v}),{delta}]: unmet run executed "
                        f"{r.rounds_executed} rounds, budget {budget}"
                    ),
                )
            continue
        floor = max(delta, math.ceil((int(dist[u, v]) + delta) / 2))
        if not floor <= r.meeting_time <= budget:
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"STIC [({u},{v}),{delta}]: meeting time "
                    f"{r.meeting_time} outside kinematic range "
                    f"[{floor}, {budget}]"
                ),
            )
        if r.rounds_executed != r.meeting_time:
            return CheckResult(
                ok=False,
                comparisons=comparisons,
                detail=(
                    f"STIC [({u},{v}),{delta}]: rounds_executed "
                    f"{r.rounds_executed} != meeting time {r.meeting_time}"
                ),
            )
        times.append(int(r.meeting_time))
    summary = {
        "stics": len(stics),
        "met": len(times),
        "met_rate": round(len(times) / max(len(stics), 1), 4),
        "mean_meeting_time": (
            round(sum(times) / len(times), 3) if times else None
        ),
        "max_meeting_time": max(times) if times else None,
    }
    return CheckResult(ok=True, comparisons=comparisons, summary=summary)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_CHECKS = [
    CampaignCheck(
        "differential/stic-sweep",
        "differential",
        "batched STIC rendezvous engine vs scalar scheduler",
        _check_stic_sweep,
    ),
    CampaignCheck(
        "differential/schedule-sweep",
        "differential",
        "batched adversary-schedule engine vs scalar reference",
        _check_schedule_sweep,
    ),
    CampaignCheck(
        "differential/symmetry-kernel",
        "differential",
        "array symmetry kernel vs scalar refinement/BFS references",
        _check_symmetry_kernel,
    ),
    CampaignCheck(
        "differential/sparse-symmetry",
        "differential",
        "blocked BFS / batched Shrink / worklist iteration vs scalar "
        "references",
        _check_sparse_symmetry,
    ),
    CampaignCheck(
        "differential/uxs-cover",
        "differential",
        "vectorized UXS certifier vs scalar per-start walks",
        _check_uxs_cover,
    ),
    CampaignCheck(
        "differential/hardness-word",
        "differential",
        "batched oblivious-word simulator vs scalar lower-bound reference",
        _check_hardness_word,
    ),
    CampaignCheck(
        "differential/baselines",
        "differential",
        "baseline family (asymm-only, mommy, election, random walk) vs "
        "scalar references",
        _check_baselines,
    ),
    CampaignCheck(
        "metamorphic/node-relabel",
        "metamorphic",
        "verdicts/Shrink invariant under port-preserving node permutation",
        _check_node_relabel,
    ),
    CampaignCheck(
        "metamorphic/port-relabel",
        "metamorphic",
        "distances/coherence invariant under per-node port permutation",
        _check_port_relabel,
    ),
    CampaignCheck(
        "metamorphic/uxs-relabel",
        "metamorphic",
        "UXS coverage equivariant under node permutation; certified "
        "universality survives port relabeling",
        _check_uxs_relabel,
    ),
    CampaignCheck(
        "statistical/meeting-time",
        "statistical",
        "meeting-time summaries within hard kinematic bounds",
        _check_meeting_time,
    ),
]

#: Check id -> :class:`CampaignCheck`; the campaign vocabulary.
CHECKS: dict[str, CampaignCheck] = {c.check_id: c for c in _CHECKS}

#: The distinct check kinds, in registry order.
CHECK_KINDS: tuple[str, ...] = tuple(
    dict.fromkeys(c.kind for c in _CHECKS)
)


def run_check(check_id: str, graph_spec: dict, seed: int, knobs: dict) -> CheckResult:
    """Execute one registered check on one seeded graph instance.

    An unknown ``check_id`` raises (a campaign-config error, validated
    before any shard runs).  An exception *inside* the check body —
    an engine crashing instead of returning a wrong answer, a builder
    rejecting its parameters — is itself a failing verdict: it is
    converted to a ``CheckResult`` so the cell still shrinks to a
    replay artifact and the rest of the grid keeps running, and since
    the check is deterministic the replay re-raises identically.
    """
    if check_id not in CHECKS:
        raise KeyError(
            f"unknown check {check_id!r}; known: {sorted(CHECKS)}"
        )
    merged = {**_DEFAULT_KNOBS, **(knobs or {})}
    try:
        return CHECKS[check_id].run(graph_spec, seed, merged)
    except Exception as exc:
        return CheckResult(
            ok=False,
            comparisons=0,
            detail=f"check raised {type(exc).__name__}: {exc}",
            summary={"raised": True},
        )
