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

Sharded per (STIC, delta) cell — the long-horizon negative runs are
the suite's dominant cost, and every cell is independent.
"""

from __future__ import annotations

from repro.core.profile import TUNED
from repro.core.universal import rendezvous
from repro.experiments.records import ExperimentRecord
from repro.experiments.scenarios import RunConfig, ScenarioSpec, build_graph
from repro.symmetry.shrink import shrink
from repro.util.lcg import SplitMix64, derive_seed

__all__ = ["run", "SCENARIO", "make_shards", "run_shard", "merge"]

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
    shard_axis="(STIC, delta) cell",
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


def _oblivious_battery(graph, u, v, delta, rounds, seeds) -> bool:
    """Run random deterministic port-words from the STIC; True if any met.

    Each word is one fixed deterministic algorithm (both agents play
    it identically); Lemma 3.1 says none can meet.
    """
    succ = graph.succ_node_array
    degrees = graph.degrees
    for seed in seeds:
        rng = SplitMix64(derive_seed("infeasible-battery", seed))
        word = [rng.randrange(64) for _ in range(rounds)]
        pos_a, pos_b = u, v
        for t in range(rounds):
            if t >= delta and pos_a == pos_b:
                return True
            pos_a = int(succ[pos_a, word[t] % int(degrees[pos_a])])
            if t >= delta:
                pos_b = int(succ[pos_b, word[t - delta] % int(degrees[pos_b])])
    return False


def make_shards(config: RunConfig) -> list[dict]:
    """One shard per ``(case, delta)`` cell, ``delta < Shrink(u, v)``."""
    shards = []
    for name, graph_spec, u, v in config.params["cases"]:
        s = shrink(build_graph(graph_spec), u, v)
        for delta in range(s):
            shards.append(
                {
                    "name": name,
                    "graph": graph_spec,
                    "u": u,
                    "v": v,
                    "shrink": s,
                    "delta": delta,
                }
            )
    return shards


def run_shard(config: RunConfig, shard: dict) -> dict:
    graph = build_graph(shard["graph"])
    u, v, delta = shard["u"], shard["v"], shard["delta"]
    # Horizon policy: a negative result over an infinite horizon cannot
    # be simulated; we run 1-2 orders of magnitude past the meeting
    # times observed for *feasible* STICs on the same graphs (tens to
    # thousands of rounds), which is where Lemma 3.1's lockstep
    # argument predicts no meeting can ever occur.
    result = rendezvous(
        graph, u, v, delta, profile=TUNED, max_rounds=config.params["horizon"]
    )
    battery = _oblivious_battery(
        graph,
        u,
        v,
        delta,
        rounds=config.params["battery_rounds"],
        seeds=range(config.params["battery_seeds"]),
    )
    return {
        "ok": not result.met and not battery,
        "row": {
            "graph": shard["name"],
            "pair": f"({u},{v})",
            "Shrink": shard["shrink"],
            "delta": delta,
            "UniversalRV rounds": result.rounds_executed,
            "met": result.met,
            "battery met": battery,
        },
    }


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
        record.add_row(**result["row"])
    record.passed = all(result["ok"] for result in shard_results)
    record.measured_summary = (
        "no algorithm in the battery (UniversalRV + random deterministic "
        "port words) ever met on any STIC with delta < Shrink, over "
        "horizons far beyond every feasible-case meeting time observed"
    )
    record.notes = "negative results checked empirically over finite horizons"
    return record
