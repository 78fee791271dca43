"""Engine-vs-scalar fixture library for the execution core.

The contract: every engine built over :mod:`repro.exec` must be
bit-identical to its retained scalar reference —
:func:`repro.sim.scheduler.run_rendezvous` for the STIC sweep,
:func:`repro.sim.schedule_adversary.run_schedule_adversary` for the
schedule sweep, and :func:`repro.core.uxs.apply_uxs` /
:func:`repro.core.uxs.is_uxs_for_graph_scalar` for the UXS kernel.
This module supplies the two ingredients the differential suites share:

* **a deterministic fuzz corpus** — seeded graph, agent, STIC,
  schedule, and UXS-stream generators (pure functions of their seeds,
  so every run and every worker sees the same instances);
* **the comparison driver** — :func:`assert_engines_identical` runs a
  corpus of cases through a module-level case function and asserts
  every one reports identity.  Cases are independent, so with
  ``REPRO_TEST_JOBS > 1`` (the CI setting) they fan out over a
  process pool; the default runs them inline.

Case functions return ``None`` on success or a short failure detail
string; they must be module-level (picklable) and take only picklable
arguments.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from repro.graphs import oriented_ring, oriented_torus, path_graph, star_graph
from repro.graphs.random_graphs import random_connected_graph
from repro.sim import Move, Wait, WaitBlock
from repro.util.lcg import SplitMix64, derive_seed


# ---------------------------------------------------------------------------
# Deterministic fuzz corpus
# ---------------------------------------------------------------------------


def graph_pool():
    """The differential suites' graph families (mirrors tests/sim)."""
    return [
        path_graph(4),
        oriented_ring(5),
        oriented_ring(6),
        oriented_torus(3, 3),
        star_graph(4),
        random_connected_graph(6, 3, seed=4),
        random_connected_graph(7, 3, seed=9),
    ]


def seeded_agent(seed: int):
    """A pseudo-random deterministic agent program (moves, waits, and
    wait blocks, including clock-dependent port choices)."""

    def algorithm(percept):
        rng = SplitMix64(seed)
        while True:
            roll = rng.randrange(10)
            if roll < 5:
                percept = yield Move(rng.randrange(percept.degree))
            elif roll < 7:
                percept = yield Wait()
            elif roll < 9:
                percept = yield WaitBlock(rng.randrange(7) + 1)
            else:
                percept = yield Move(percept.clock % percept.degree)

    return algorithm


def terminating_agent(seed: int, lifetime: int):
    """An agent whose script ends after ``lifetime`` actions."""

    def algorithm(percept):
        rng = SplitMix64(seed)
        for _ in range(lifetime):
            if rng.randrange(4):
                percept = yield Move(rng.randrange(percept.degree))
            else:
                percept = yield Wait()

    return algorithm


def exploding_agent(lifetime: int):
    """Moves ``lifetime`` plus its start node's degree times, then
    raises an error naming the degrees it saw: the failing round and
    the message both tell starts (and so agents) apart."""

    def algorithm(percept):
        degrees = []
        for _ in range(lifetime + percept.degree):
            degrees.append(percept.degree)
            percept = yield Move(percept.clock % percept.degree)
        raise RuntimeError(f"boom after degrees {degrees}")

    return algorithm


def stic_corpus(graph_idx: int, agent_seed: int, count: int = 12):
    """Seeded ``(u, v, delta)`` STICs with per-STIC budgets for one
    (graph, agent) cell of the corpus."""
    graph = graph_pool()[graph_idx]
    rng = SplitMix64(derive_seed("exec-diff-stic", graph_idx, agent_seed))
    stics = []
    for _ in range(count):
        u = rng.randrange(graph.n)
        v = rng.randrange(graph.n)  # u == v allowed: round-delta meeting
        delta = rng.randrange(12)
        stics.append((u, v, delta))
    return graph, stics


def stic_budget(u: int, v: int, delta: int) -> int:
    """Per-STIC round budget, a pure function of the STIC."""
    return derive_seed("exec-diff-budget", u, v, delta) % 801


def schedule_corpus(graph_idx: int, agent_seed: int, count: int = 12):
    """Seeded (pair, schedule) cells for one corpus cell."""
    from repro.sim.schedule_adversary import (
        EagerSchedule,
        FixedDelaySchedule,
        MirrorSchedule,
        RandomSchedule,
        RateSkewSchedule,
        WordSchedule,
    )

    graph = graph_pool()[graph_idx]
    rng = SplitMix64(derive_seed("exec-diff-sched", graph_idx, agent_seed))
    pool = [
        MirrorSchedule(),
        EagerSchedule(),
        EagerSchedule(1),
        FixedDelaySchedule(rng.randrange(9)),
        RateSkewSchedule(1 + rng.randrange(3), 1 + rng.randrange(4)),
        WordSchedule(
            tuple(
                ("a", "b", "ab", "-")[rng.randrange(4)]
                for _ in range(1 + rng.randrange(5))
            )
        ),
        RandomSchedule(rng.randrange(10**6)),
        RandomSchedule(rng.randrange(10**6), weights=(2, 1, 1)),
    ]
    cells = []
    for _ in range(count):
        u = rng.randrange(graph.n)
        v = rng.randrange(graph.n)
        cells.append((u, v, pool[rng.randrange(len(pool))]))
    return graph, cells


def event_budget(u: int, v: int, schedule) -> int:
    """Per-cell event budget, a pure function of the cell."""
    return derive_seed("exec-diff-events", u, v, schedule.name) % 501


def uxs_corpus(case_seed: int):
    """One seeded UXS instance: (graph, offset stream as a list)."""
    from repro.exec.uxs import generate_offset_stream

    rng = SplitMix64(derive_seed("exec-diff-uxs", case_seed))
    n = 3 + rng.randrange(6)
    graph = random_connected_graph(n, 2 + rng.randrange(3), seed=rng.randrange(10**6))
    length = 50 + rng.randrange(400)
    stream = generate_offset_stream(rng.randrange(10**6), max(2 * n, 2), length)
    return graph, [int(x) for x in stream]


# ---------------------------------------------------------------------------
# Comparison driver
# ---------------------------------------------------------------------------


def jobs_from_env() -> int:
    """Worker count for the differential suites (``REPRO_TEST_JOBS``)."""
    try:
        return max(1, int(os.environ.get("REPRO_TEST_JOBS", "1")))
    except ValueError:
        return 1


def assert_engines_identical(
    case_fn: Callable[..., str | None],
    cases: Sequence[tuple],
    *,
    jobs: int | None = None,
    min_cases: int | None = None,
) -> None:
    """Run every case through ``case_fn`` and fail on any mismatch.

    ``case_fn(*case)`` returns ``None`` when the engine agrees
    bit-for-bit with its scalar reference on that case, or a short
    detail string describing the first divergence.  With ``jobs > 1``
    cases run in a process pool (``case_fn`` and the case tuples must
    be picklable); the corpus is deterministic either way, so failures
    reproduce inline.
    """
    if min_cases is not None:
        assert len(cases) >= min_cases, (
            f"fuzz corpus too small: {len(cases)} < {min_cases}"
        )
    jobs = jobs_from_env() if jobs is None else jobs
    if jobs > 1 and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            details = list(pool.map(_star_apply, [(case_fn, c) for c in cases]))
    else:
        details = [case_fn(*case) for case in cases]
    failures = [
        f"case {case!r}: {detail}"
        for case, detail in zip(cases, details)
        if detail is not None
    ]
    assert not failures, (
        f"{len(failures)}/{len(cases)} cases diverged:\n" + "\n".join(failures[:10])
    )


def outcome(fn: Callable[[], object]) -> object:
    """What ``fn()`` gives: its return value, or the ``(exception type
    name, message)`` it raises — the unit of error-parity checks."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - parity check
        return type(exc).__name__, str(exc)


def _star_apply(packed):
    case_fn, case = packed
    return case_fn(*case)
