"""EXP-L31 — Lemma 3.1: STICs with ``delta < Shrink`` are infeasible.

A negative result cannot be *demonstrated* by one failing run, so this
experiment layers two kinds of evidence over every STIC with
``delta < Shrink``:

1. run Algorithm UniversalRV for a horizon far past its feasible-case
   meeting budget — no meeting;
2. run an adversarial battery of other deterministic algorithms
   (random oblivious port words, one per seed; both agents execute the
   same word, as the model demands) — no meeting.

(The unit tests additionally verify the proof's mechanism on traces:
with symmetric starts the two agents' perception streams are
identical up to the time shift, so their port decisions coincide.)

Sharded per STIC case: the long-horizon negative runs are the suite's
dominant cost, and one batched sweep (:func:`repro.sim.batch.
run_rendezvous_batch`) compiles each agent's trace once for every
``delta < Shrink`` of the case.  The trace is compiled from
UniversalRV's segment plan: AsymmRV segments in closed form, SymmRV
segments stepped (:mod:`repro.exec.trace`).  The rows are identical
to the scalar front door :func:`repro.core.universal.rendezvous` run
per delta.  The battery draws and walks each seed's word once per
case, from each start.
"""

from __future__ import annotations

import numpy as np

from repro.core.profile import TUNED
from repro.core.universal import (
    UniversalOracle,
    certify_instance,
    make_universal_algorithm,
)
from repro.exec.uxs import generate_offset_stream
from repro.experiments.records import ExperimentRecord
from repro.experiments.scenarios import RunConfig, ScenarioSpec, build_graph
from repro.sim.batch import run_rendezvous_batch
from repro.symmetry.shrink import shrink
from repro.util.lcg import derive_seed

__all__ = ["SCENARIO", "make_shards", "run_shard", "merge"]

_CASES = {
    "two-node": ["two-node", {"family": "two_node"}, 0, 1],
    "ring6": ["ring n=6", {"family": "oriented_ring", "n": 6}, 0, 3],
    "torus3": ["torus 3x3", {"family": "oriented_torus", "rows": 3, "cols": 3}, 0, 4],
    "cube3": ["hypercube d=3", {"family": "hypercube", "dim": 3}, 0, 7],
    "torus4": ["torus 4x4", {"family": "oriented_torus", "rows": 4, "cols": 4}, 0, 10],
    "tree": ["tree mirror", {"family": "symmetric_tree", "arity": 2, "depth": 2}, 1, 8],
}

SCENARIO = ScenarioSpec(
    exp_id="EXP-L31",
    title="Infeasibility below Shrink (Lemma 3.1)",
    module="repro.experiments.e_infeasible",
    shard_axis="STIC case (every delta < Shrink)",
    code_version=2,
    tiers={
        "smoke": {
            "cases": [_CASES["two-node"], _CASES["ring6"]],
            "horizon": 20_000,
            "battery_rounds": 500,
            "battery_seeds": 8,
        },
        "fast": {
            "cases": [
                _CASES["two-node"],
                _CASES["ring6"],
                _CASES["torus3"],
                _CASES["cube3"],
            ],
            "horizon": 150_000,
            "battery_rounds": 2000,
            "battery_seeds": 8,
        },
        "full": {
            "cases": [
                _CASES["two-node"],
                _CASES["ring6"],
                _CASES["torus3"],
                _CASES["cube3"],
                _CASES["torus4"],
                _CASES["tree"],
            ],
            "horizon": 1_000_000,
            "battery_rounds": 20_000,
            "battery_seeds": 8,
        },
        "stress": {
            "cases": [
                _CASES["two-node"],
                _CASES["ring6"],
                _CASES["torus3"],
                _CASES["cube3"],
                _CASES["torus4"],
                _CASES["tree"],
                ["ring n=10", {"family": "oriented_ring", "n": 10}, 0, 5],
                [
                    "torus 5x5",
                    {"family": "oriented_torus", "rows": 5, "cols": 5},
                    0,
                    12,
                ],
            ],
            "horizon": 2_000_000,
            "battery_rounds": 50_000,
            "battery_seeds": 16,
        },
    },
)


def _oblivious_battery(graph, u, v, deltas, rounds, seeds) -> list[bool]:
    """Run random deterministic port-words from the STIC; for each
    delay of ``deltas``, True if any word met.

    Each word is one fixed deterministic algorithm (both agents play
    it identically); Lemma 3.1 says none can meet.  A word depends on
    its seed only, so it is drawn and walked once from ``u`` and once
    from ``v``; each delay is then one shifted compare of the walks.
    """
    succ = graph.succ_node_array.tolist()
    degrees = graph.degrees.tolist()
    walks = []
    for seed in seeds:
        word = generate_offset_stream(
            derive_seed("infeasible-battery", seed), 64, rounds
        ).tolist()
        walks.append((_walk(succ, degrees, u, word), _walk(succ, degrees, v, word)))
    return [any(_meets(a, b, delta) for a, b in walks) for delta in deltas]


def _walk(succ, degrees, start, word) -> np.ndarray:
    """Positions of an agent playing ``word`` from ``start``, after each
    of its ``0..len(word)`` letters."""
    pos = start
    path = [pos]
    for port in word:
        pos = succ[pos][port % degrees[pos]]
        path.append(pos)
    return np.asarray(path)


def _meets(walk_a, walk_b, delta) -> bool:
    """Both agents play one word, the second from ``delta`` rounds on:
    they meet at some time ``t`` in ``[delta, len(word)]`` with
    ``walk_a[t] == walk_b[t - delta]``."""
    span = len(walk_a) - delta
    return span > 0 and bool((walk_a[delta:] == walk_b[:span]).any())


def make_shards(config: RunConfig) -> list[dict]:
    """One shard per STIC case with ``Shrink(u, v) > 0``."""
    shards = []
    for name, graph_spec, u, v in config.params["cases"]:
        s = shrink(build_graph(graph_spec), u, v)
        if s:
            shards.append(
                {"name": name, "graph": graph_spec, "u": u, "v": v, "shrink": s}
            )
    return shards


def run_shard(config: RunConfig, shard: dict) -> dict:
    graph = build_graph(shard["graph"])
    u, v, s = shard["u"], shard["v"], shard["shrink"]
    # Horizon policy: a negative result over an infinite horizon cannot
    # be simulated; we run 1-2 orders of magnitude past the meeting
    # times observed for *feasible* STICs on the same graphs (tens to
    # thousands of rounds), which is where Lemma 3.1's lockstep
    # argument predicts no meeting can ever occur.
    certify_instance(graph, u, v, TUNED)
    results = run_rendezvous_batch(
        graph,
        [(u, v, delta) for delta in range(s)],
        make_universal_algorithm(TUNED),
        max_rounds=config.params["horizon"],
        oracle_factory=lambda start: UniversalOracle(graph, start, TUNED),
    )
    batteries = _oblivious_battery(
        graph,
        u,
        v,
        range(s),
        rounds=config.params["battery_rounds"],
        seeds=range(config.params["battery_seeds"]),
    )
    rows = []
    ok = True
    for delta, (result, battery) in enumerate(zip(results, batteries)):
        ok = ok and not result.met and not battery
        rows.append(
            {
                "graph": shard["name"],
                "pair": f"({u},{v})",
                "Shrink": s,
                "delta": delta,
                "UniversalRV rounds": result.rounds_executed,
                "met": result.met,
                "battery met": battery,
            }
        )
    return {"ok": ok, "rows": rows}


def merge(config: RunConfig, shard_results: list[dict]) -> ExperimentRecord:
    record = ExperimentRecord(
        exp_id=SCENARIO.exp_id,
        title=SCENARIO.title,
        paper_claim=(
            "For symmetric u, v and delta < Shrink(u, v), no deterministic "
            "algorithm achieves rendezvous for the STIC [(u, v), delta]."
        ),
        columns=[
            "graph",
            "pair",
            "Shrink",
            "delta",
            "UniversalRV rounds",
            "met",
            "battery met",
        ],
    )
    for result in shard_results:
        for row in result["rows"]:
            record.add_row(**row)
    record.passed = all(result["ok"] for result in shard_results)
    record.measured_summary = (
        "no algorithm in the battery (UniversalRV + random deterministic "
        "port words) ever met on any STIC with delta < Shrink, over "
        "horizons far beyond every feasible-case meeting time observed"
    )
    record.notes = "negative results checked empirically over finite horizons"
    return record
