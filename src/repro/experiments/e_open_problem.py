"""EXP-OPEN — the paper's open problem, probed numerically.

Section 4 ends with: *"Does there exist a universal deterministic
algorithm which guarantees rendezvous for all feasible STICs in time
polynomial in the size of the graph and in the delay?"* — noting that
(a) the SymmRV-free variant *is* polynomial but abandons symmetric
STICs, and (b) the exponential lower bound of Theorem 4.1 only forces
exponentiality in ``Shrink``, not in ``n + delta``.

This experiment makes the gap quantitative under our implementation:
it tabulates the guaranteed meeting budgets of the full UniversalRV
versus the asymmetric-only variant as ``n`` grows, fits the growth
order of each, and verifies the paper's dichotomy — polynomial without
SymmRV, super-polynomial with it (the ``(n-1)^d`` terms of wrong
phases dominate).

Sharded per size rung ``n``; the log-log growth fits run at merge
time over the assembled ladder.
"""

from __future__ import annotations

import math

from repro.baselines.asymm_only import asymm_only_round_budget
from repro.core.profile import TUNED
from repro.core.universal import universal_round_budget
from repro.experiments.records import ExperimentRecord
from repro.experiments.scenarios import RunConfig, ScenarioSpec

__all__ = ["run", "SCENARIO", "make_shards", "run_shard", "merge"]

SCENARIO = ScenarioSpec(
    exp_id="EXP-OPEN",
    title="The open problem: polynomial universal rendezvous?",
    module="repro.experiments.e_open_problem",
    shard_axis="size rung n",
    tiers={
        "smoke": {"n_values": [2, 3, 4], "delta": 1},
        "fast": {"n_values": [2, 3, 4, 5], "delta": 1},
        "full": {"n_values": [2, 3, 4, 5, 6, 7], "delta": 1},
        "stress": {"n_values": [2, 3, 4, 5, 6, 7, 8, 9, 10], "delta": 1},
    },
)


def _growth_order(ns: list[int], budgets: list[int]) -> float:
    """Least-squares slope of log(budget) vs log(n): the exponent of a
    polynomial fit (super-polynomial growth shows as a rising slope)."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(b) for b in budgets]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def make_shards(config: RunConfig) -> list[dict]:
    return [
        {"n": n, "delta": config.params["delta"]}
        for n in config.params["n_values"]
    ]


def run_shard(config: RunConfig, shard: dict) -> dict:
    n, delta = shard["n"], shard["delta"]
    a = asymm_only_round_budget(TUNED, n, delta)
    # Worst decisive triple for a symmetric STIC: d can be as large
    # as n - 1 (Shrink is a distance, hence < n).
    u = universal_round_budget(TUNED, n, n - 1, delta)
    return {
        "n": n,
        "asymm_budget": a,
        "universal_budget": u,
        "row": {
            "n": n,
            "delta": delta,
            "asymm-only budget": a,
            "universal budget": u,
            "ratio": u / a,
        },
    }


def merge(config: RunConfig, shard_results: list[dict]) -> ExperimentRecord:
    record = ExperimentRecord(
        exp_id=SCENARIO.exp_id,
        title=SCENARIO.title,
        paper_claim=(
            "Deleting SymmRV yields a variant polynomial in n and delta "
            "(for non-symmetric STICs only); the full universal algorithm "
            "runs in (n+delta)^O(n+delta) and it is open whether "
            "poly(n, delta) is achievable for all feasible STICs."
        ),
        columns=[
            "n",
            "delta",
            "asymm-only budget",
            "universal budget",
            "ratio",
        ],
    )
    ns = []
    asymm_budgets = []
    universal_budgets = []
    for result in shard_results:
        ns.append(result["n"])
        asymm_budgets.append(result["asymm_budget"])
        universal_budgets.append(result["universal_budget"])
        record.add_row(**result["row"])

    asymm_order = _growth_order(ns, asymm_budgets)
    universal_order = _growth_order(ns, universal_budgets)
    # The dichotomy: the asymm-only fit is a low-degree polynomial; the
    # full algorithm's effective exponent is much larger and the ratio
    # diverges with n.
    ratios = [u / a for a, u in zip(asymm_budgets, universal_budgets)]
    record.passed = (
        asymm_order < 8
        and universal_order > asymm_order + 1
        and ratios[-1] > ratios[0]
    )
    record.measured_summary = (
        f"log-log growth order: asymm-only ~ n^{asymm_order:.1f} "
        f"(polynomial), full universal ~ n^{universal_order:.1f} and "
        "diverging — the exponential cost is attributable to the SymmRV "
        "segments exactly as Section 4 argues"
    )
    record.notes = "budgets are the guaranteed worst-case meeting bounds under the tuned profile"
    return record
