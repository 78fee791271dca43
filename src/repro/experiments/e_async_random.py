"""EXP-ASYNC / EXP-RAND — the two Section 5 remarks, quantified.

1. *Asynchrony*: "time cannot be used to break symmetry" — swept as an
   asynchronous atlas per graph family: every symmetric pair runs
   against the mirror adversary plus a battery of seeded random and
   benign schedules through the batched schedule engine
   (:func:`repro.symmetry.async_feasibility_atlas`).  The mirror
   schedule never yields a node meeting (edge crossings only), while
   the *same* algorithm on the *same* pairs reaches node meetings as
   soon as the adversary's schedule itself breaks the symmetry — time
   is powerless, asymmetry (spatial or scheduled) is everything.
2. *Randomization*: "two random walks meet with high probability in
   time polynomial in the size of the graph" — empirical mean meeting
   times on rings, with a log-log growth fit confirming a low-degree
   polynomial.

The whole experiment is a pure function of its ``seed``: adversary
schedules and random-walk coin streams all derive from it via
:func:`repro.util.lcg.derive_seed` (determinism is regression-tested),
so shards recompute bit-identically on any worker process.

Sharded per probe unit: one shard per graph family (async atlas), one
for the benign non-symmetric probes, one per random-walk size rung;
the growth fit runs at merge time.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.baselines.random_walk import mean_meeting_time
from repro.core import make_universal_algorithm
from repro.core.profile import tuned_profile
from repro.experiments.records import ExperimentRecord
from repro.experiments.scenarios import RunConfig, ScenarioSpec, build_graph
from repro.sim.schedule_adversary import (
    EagerSchedule,
    MirrorSchedule,
    RandomSchedule,
    run_schedule_sweep,
)
from repro.symmetry.feasibility import (
    ASYNC_EDGE_MEETING_ONLY,
    ASYNC_NEVER_MEETS,
    ASYNC_NODE_MEETING,
    async_feasibility_atlas,
)
from repro.symmetry.views import symmetric_pairs
from repro.util.lcg import derive_seed

__all__ = ["run", "SCENARIO", "make_shards", "run_shard", "merge"]

#: Default experiment seed; the spec threads it to every shard, and
#: ``run(seed=...)`` / the orchestrator's ``seed`` option reroot every
#: derived stream (adversary schedules, random-walk coins) in one place.
DEFAULT_SEED = 1905

_FAMILIES = {
    "ring6": ["ring n=6", {"family": "oriented_ring", "n": 6}],
    "ring8": ["ring n=8", {"family": "oriented_ring", "n": 8}],
    "torus3": ["torus 3x3", {"family": "oriented_torus", "rows": 3, "cols": 3}],
    "ring12": ["ring n=12", {"family": "oriented_ring", "n": 12}],
    "torus4": ["torus 4x4", {"family": "oriented_torus", "rows": 4, "cols": 4}],
}

_FAST_FAMILIES = [_FAMILIES["ring6"], _FAMILIES["ring8"], _FAMILIES["torus3"]]

_NONSYM_CASES = [
    ["path P3 ends", {"family": "path", "n": 3}, 0, 2],
    ["path P4 (0,2)", {"family": "path", "n": 4}, 0, 2],
    ["star leaves", {"family": "star", "leaves": 3}, 1, 3],
]

SCENARIO = ScenarioSpec(
    exp_id="EXP-ASYNC/RAND",
    code_version=2,
    title="Section 5 remarks: asynchrony kills time; randomness is cheap",
    module="repro.experiments.e_async_random",
    shard_axis="probe unit (family atlas / benign probes / walk rung)",
    seed=DEFAULT_SEED,
    tiers={
        "smoke": {
            "families": [_FAMILIES["ring6"]],
            "events": 800,
            "adversary_seeds": 4,
            "nonsym_cases": _NONSYM_CASES,
            "walk_sizes": [6, 10],
            "walk_trials": 8,
        },
        "fast": {
            "families": _FAST_FAMILIES,
            "events": 2000,
            "adversary_seeds": 6,
            "nonsym_cases": _NONSYM_CASES,
            "walk_sizes": [6, 10, 14],
            "walk_trials": 15,
        },
        "full": {
            "families": _FAST_FAMILIES
            + [_FAMILIES["ring12"], _FAMILIES["torus4"]],
            "events": 20000,
            "adversary_seeds": 16,
            "nonsym_cases": _NONSYM_CASES,
            "walk_sizes": [6, 10, 14, 20, 26],
            "walk_trials": 60,
        },
        "stress": {
            "families": _FAST_FAMILIES
            + [
                _FAMILIES["ring12"],
                _FAMILIES["torus4"],
                ["ring n=16", {"family": "oriented_ring", "n": 16}],
                [
                    "torus 5x5",
                    {"family": "oriented_torus", "rows": 5, "cols": 5},
                ],
            ],
            "events": 50000,
            "adversary_seeds": 32,
            "nonsym_cases": _NONSYM_CASES,
            "walk_sizes": [6, 10, 14, 20, 26, 34, 44],
            "walk_trials": 100,
        },
    },
)


def _fit_order(sizes: list[int], times: list[float]) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def _probe_algorithm():
    return make_universal_algorithm(
        tuned_profile(view_mode="faithful", name="async-probe")
    )


def _schedules(seed: int, adversary_seeds: int):
    """The adversary battery — a pure function of the experiment seed."""
    return [MirrorSchedule(), EagerSchedule()] + [
        RandomSchedule(derive_seed("async-adversary", seed, i))
        for i in range(adversary_seeds)
    ]


def make_shards(config: RunConfig) -> list[dict]:
    params = config.params
    shards: list[dict] = [
        {"kind": "family", "name": name, "graph": graph_spec}
        for name, graph_spec in params["families"]
    ]
    shards.append({"kind": "nonsym", "cases": params["nonsym_cases"]})
    shards += [{"kind": "randwalk", "n": n} for n in params["walk_sizes"]]
    return shards


def run_shard(config: RunConfig, shard: dict) -> dict:
    kind = shard["kind"]

    if kind == "family":
        # Asynchronous atlas over one family's symmetric pairs, against
        # the mirror adversary and the seeded battery, in one batched
        # sweep.
        g = build_graph(shard["graph"])
        name = shard["name"]
        events = config.params["events"]
        schedules = _schedules(config.seed, config.params["adversary_seeds"])
        pairs = symmetric_pairs(g)
        atlas = async_feasibility_atlas(
            g, _probe_algorithm(), schedules, max_events=events, pairs=pairs
        )
        mirror_cells = [e for e in atlas if e.schedule.name == "mirror"]
        other_cells = [e for e in atlas if e.schedule.name != "mirror"]
        mirror_nodes = sum(
            e.meeting_class == ASYNC_NODE_MEETING for e in mirror_cells
        )
        mirror_kinds = Counter(e.meeting_class for e in mirror_cells)
        rescued = sum(
            e.meeting_class == ASYNC_NODE_MEETING for e in other_cells
        )
        # The complementary half of the claim must actually hold: some
        # asymmetric schedule rescues a node meeting on every family.
        return {
            "ok": mirror_nodes == 0 and rescued > 0,
            "rows": [
                {
                    "probe": "async/mirror (symmetric pairs)",
                    "instance": f"{name}: {len(mirror_cells)} pairs",
                    "outcome": (
                        f"0 node meetings in {events} events "
                        f"({mirror_kinds[ASYNC_EDGE_MEETING_ONLY]} edge-meeting-only, "
                        f"{mirror_kinds[ASYNC_NEVER_MEETS]} never-meet)"
                    ),
                },
                {
                    "probe": "async/asymmetric schedules",
                    "instance": (
                        f"{name}: {len(pairs)} pairs x "
                        f"{len(schedules) - 1} schedules"
                    ),
                    "outcome": (
                        f"{rescued}/{len(other_cells)} cells reach a node "
                        "meeting once the schedule itself is asymmetric"
                    ),
                },
            ],
        }

    if kind == "nonsym":
        # Benign scheduler on non-symmetric positions.
        algorithm = _probe_algorithm()
        eager = EagerSchedule()
        ok = True
        rows = []
        for name, graph_spec, u, v in shard["cases"]:
            g = build_graph(graph_spec)
            out = run_schedule_sweep(
                g, [(u, v, eager)], algorithm, max_events=500_000
            )[0]
            ok = ok and out.met
            rows.append(
                {
                    "probe": "async/eager (non-symmetric)",
                    "instance": name,
                    "outcome": (
                        f"met at node {out.meeting_node} "
                        f"after {out.events} events"
                    ),
                }
            )
        return {"ok": ok, "rows": rows}

    if kind == "randwalk":
        n = shard["n"]
        g = build_graph({"family": "oriented_ring", "n": n})
        mean, failures = mean_meeting_time(
            g,
            0,
            n // 2,
            0,
            trials=config.params["walk_trials"],
            seed=derive_seed("async-randwalk", config.seed, n),
        )
        return {
            "ok": failures == 0,
            "n": n,
            "mean": mean,
            "rows": [
                {
                    "probe": "randomized walks",
                    "instance": f"ring n={n}, antipodal",
                    "outcome": f"mean meeting time {mean:.0f} rounds",
                }
            ],
        }

    raise KeyError(f"unknown shard kind {kind!r}")


def merge(config: RunConfig, shard_results: list[dict]) -> ExperimentRecord:
    record = ExperimentRecord(
        exp_id=SCENARIO.exp_id,
        title=SCENARIO.title,
        paper_claim=(
            "Asynchronously, only space can break symmetry (the adversary "
            "owns the clock); with randomization, two walks meet w.h.p. in "
            "time polynomial in n."
        ),
        columns=["probe", "instance", "outcome"],
    )
    ok = True
    sizes = []
    means = []
    for result in shard_results:
        ok = ok and result["ok"]
        for row in result["rows"]:
            record.add_row(**row)
        if "mean" in result:
            sizes.append(result["n"])
            means.append(result["mean"])

    order = _fit_order(sizes, means)
    ok = ok and order < 4.0
    record.add_row(
        probe="randomized walks",
        instance="log-log fit over sizes",
        outcome=f"~ n^{order:.1f} (polynomial, as [39] predicts)",
    )

    record.passed = ok
    record.measured_summary = (
        "mirror adversary blocks every node meeting across all symmetric "
        "pairs of every family (edge crossings only) while asymmetric "
        "schedules and non-symmetric starts still meet; randomized walks "
        f"meet in ~n^{order:.1f} expected rounds (seed={config.seed})"
    )
    return record
