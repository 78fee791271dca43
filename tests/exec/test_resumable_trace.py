"""Resumable compiles in :class:`repro.exec.trace.TraceCompiler`.

In oracle mode each start keeps a plan cursor (committed breakpoints,
live segment script, position, entry port, clock, tail waits); without
oracles a class the horizon cut stays live (lanes and live generator).
Either way each deepening round continues where the last one stopped.  These tests pin what that must not change and
what it must save:

* **oracle mode against the scalar front door**: UniversalRV on every
  fast-tier EXP-L31 case, batched at a horizon that takes several
  deepening rounds, agrees with :func:`repro.core.universal.rendezvous`
  on every ``delta < Shrink`` and on two feasible delays;
* **the asymm-only variant against the scalar scheduler**: batched in
  oracle mode (compiled from its segment plan), it agrees with
  :func:`repro.sim.scheduler.run_rendezvous` on the same EXP-L31 STICs
  and on non-symmetric pairs, where it meets;
* **deepening is a one-shot compile**: a trace deepened round by round
  has the ``times``/``nodes`` arrays of a single compile at the final
  horizon;
* **one generator per start**: the algorithm is instantiated exactly
  once per start over all deepening rounds (oracle mode, where an
  algorithm without a plan is one scripted segment), and once for a
  start first requested after another start's compile.
"""

from collections import Counter

import numpy as np

from harness import assert_engines_identical, graph_pool, seeded_agent
from repro.baselines.asymm_only import make_asymm_only_algorithm
from repro.core.profile import TUNED
from repro.core.universal import (
    UniversalOracle,
    make_universal_algorithm,
    rendezvous,
)
from repro.exec.trace import TraceCompiler
from repro.experiments.e_infeasible import SCENARIO
from repro.experiments.scenarios import build_graph
from repro.graphs import oriented_ring
from repro.sim.batch import run_rendezvous_batch
from repro.sim.scheduler import run_rendezvous
from repro.symmetry.shrink import shrink

HORIZON = 20_000
#: Deepening ladder of ``resolve_adaptive`` from its default 1024 up
#: to ``HORIZON``: three deepening rounds after the first compile.
LADDER = (1024, 4096, 16_384, HORIZON)
CASES = SCENARIO.tiers["fast"]["cases"]
FIELDS = (
    "met",
    "meeting_node",
    "meeting_time",
    "time_from_later",
    "rounds_executed",
)


def _oracle_factory(graph):
    return lambda start: UniversalOracle(graph, start, TUNED)


def oracle_case(case_idx: int) -> str | None:
    """Batch (oracle mode, resumed compile) vs scalar on one case."""
    _, spec, u, v = CASES[case_idx]
    graph = build_graph(spec)
    s = shrink(graph, u, v)
    deltas = list(range(s)) + [s, s + 1]
    batch = run_rendezvous_batch(
        graph,
        [(u, v, delta) for delta in deltas],
        make_universal_algorithm(TUNED),
        max_rounds=HORIZON,
        oracle_factory=_oracle_factory(graph),
    )
    for delta, got in zip(deltas, batch):
        ref = rendezvous(graph, u, v, delta, profile=TUNED, max_rounds=HORIZON)
        for field in FIELDS:
            if getattr(got, field) != getattr(ref, field):
                return (
                    f"delta {delta}: {field} batch={getattr(got, field)} "
                    f"scalar={getattr(ref, field)}"
                )
    return None


def test_oracle_mode_batch_matches_scalar_rendezvous():
    assert_engines_identical(
        oracle_case, [(i,) for i in range(len(CASES))], min_cases=4
    )


#: Non-symmetric STICs of the graph pool (path, star, two random
#: graphs); the asymm-only variant meets on each within ``HORIZON``.
NONSYMMETRIC = {
    0: [(0, 3, 0), (0, 2, 3)],
    4: [(0, 1, 3), (0, 3, 0)],
    5: [(0, 2, 0), (0, 3, 3)],
    6: [(0, 1, 0), (0, 3, 0)],
}


def asymm_only_case(kind: str, idx: int) -> str | None:
    """Batch (oracle mode, segment plan) vs the scalar scheduler for
    the asymm-only variant on one EXP-L31 case or pool graph."""
    if kind == "l31":
        _, spec, u, v = CASES[idx]
        graph = build_graph(spec)
        s = shrink(graph, u, v)
        stics = [(u, v, delta) for delta in range(s + 2)]
    else:
        graph = graph_pool()[idx]
        stics = NONSYMMETRIC[idx]
    algorithm = make_asymm_only_algorithm(TUNED)
    oracles = _oracle_factory(graph)
    batch = run_rendezvous_batch(
        graph, stics, algorithm, max_rounds=HORIZON, oracle_factory=oracles
    )
    for (u, v, delta), got in zip(stics, batch):
        ref = run_rendezvous(
            graph,
            u,
            v,
            delta,
            algorithm,
            max_rounds=HORIZON,
            oracles=(oracles(u), oracles(v)),
        )
        if kind == "pool" and not ref.met:
            return f"STIC {(u, v, delta)}: the scalar reference did not meet"
        for field in FIELDS:
            if getattr(got, field) != getattr(ref, field):
                return (
                    f"STIC {(u, v, delta)}: {field} batch={getattr(got, field)} "
                    f"scalar={getattr(ref, field)}"
                )
    return None


def test_asymm_only_batch_matches_scalar_scheduler():
    cases = [("l31", i) for i in range(len(CASES))]
    cases += [("pool", i) for i in sorted(NONSYMMETRIC)]
    assert_engines_identical(asymm_only_case, cases, min_cases=8)


def test_deepened_trace_equals_one_shot_compile():
    _, spec, u, v = CASES[2]  # torus 3x3
    graph = build_graph(spec)
    algorithm = make_universal_algorithm(TUNED)
    stepped = TraceCompiler(graph, algorithm, oracle_factory=_oracle_factory(graph))
    for horizon in LADDER:
        deepened = stepped.traces({u: horizon, v: horizon})
    direct = TraceCompiler(
        graph, algorithm, oracle_factory=_oracle_factory(graph)
    ).traces({u: HORIZON, v: HORIZON})
    for start in (u, v):
        assert deepened[start].valid_through >= HORIZON
        assert np.array_equal(deepened[start].times, direct[start].times)
        assert np.array_equal(deepened[start].nodes, direct[start].nodes)


def test_oracle_mode_instantiates_once_per_start():
    _, spec, u, v = CASES[3]  # hypercube d=3
    graph = build_graph(spec)
    base = make_universal_algorithm(TUNED)
    calls: Counter = Counter()

    def counting(percept, tagged):
        start, oracle = tagged
        calls[start] += 1
        return base(percept, oracle)

    compiler = TraceCompiler(
        graph,
        counting,
        oracle_factory=lambda start: (start, UniversalOracle(graph, start, TUNED)),
    )
    for horizon in LADDER:
        compiler.traces({u: horizon, v: horizon})
    assert calls == Counter({u: 1, v: 1})


def test_start_requested_later_compiles_its_own_class():
    """Without oracles, a start first requested in a later call begins
    a class of its own at clock 0, with one generator that deepening
    keeps live, and its trace equals a direct compile."""
    calls: Counter = Counter()
    base = seeded_agent(7)

    def counting(percept):
        calls["total"] += 1
        return base(percept)

    ring = oriented_ring(6)
    compiler = TraceCompiler(ring, counting)
    compiler.trace(0, 600)
    assert calls["total"] == 1
    for horizon in (50, 200, 600):
        later = compiler.trace(3, horizon)
    assert calls["total"] == 2
    direct = TraceCompiler(ring, base).trace(3, 600)
    assert np.array_equal(later.times, direct.times)
    assert np.array_equal(later.nodes, direct.nodes)

    # On a path, start 3 perceives like start 0 for a few decisions,
    # then diverges; it still builds exactly one generator.
    graph = graph_pool()[0]
    calls.clear()
    compiler = TraceCompiler(graph, counting)
    compiler.trace(0, 400)
    assert calls["total"] == 1
    for horizon in (1, 8, 100, 400):
        resumed = compiler.trace(3, horizon)
    assert calls["total"] == 2
    direct = TraceCompiler(graph, base).trace(3, 400)
    assert np.array_equal(resumed.times, direct.times)
    assert np.array_equal(resumed.nodes, direct.nodes)
