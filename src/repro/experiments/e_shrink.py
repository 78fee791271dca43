"""TAB-SHRINK — the worked Shrink examples of Section 3.

The paper gives two contrasting families right after Definition 3.1:

* oriented torus: every pair symmetric and ``Shrink(u, v) = dist(u, v)``
  (a common port sequence translates both agents rigidly);
* symmetric tree (central edge + port-isomorphic halves): every mirror
  pair has ``Shrink = 1`` however far apart ("Shrink can really shrink
  the initial distance");

plus the introduction's two-node graph where the delay-3 agents meet.
We regenerate all three as a table, adding oriented rings, hypercubes
and circulant complete graphs as further vertex-transitive checks.

Sharded per graph family instance: each shard builds one graph, runs
its checks through one shared :func:`symmetry_context` kernel, and
returns its slice of the table.
"""

from __future__ import annotations

from repro.experiments.records import ExperimentRecord
from repro.experiments.scenarios import RunConfig, ScenarioSpec
from repro.graphs.families import (
    complete_graph,
    hypercube,
    mirror_node,
    oriented_ring,
    oriented_torus,
    symmetric_tree,
    torus_node,
    two_node_graph,
)
from repro.symmetry.context import symmetry_context

__all__ = ["run", "SCENARIO", "make_shards", "run_shard", "merge"]

SCENARIO = ScenarioSpec(
    exp_id="TAB-SHRINK",
    title="Shrink(u, v) on the paper's example families (Section 3)",
    module="repro.experiments.e_shrink",
    shard_axis="graph family instance",
    # v2: torus check rows dedup in insertion order (was set order);
    # stress-tier 7x7 row order changes, so stale caches must miss.
    code_version=2,
    tiers={
        "smoke": {
            "torus_sizes": [[3, 3]],
            "tree_depths": [1],
            "ring_n": 8,
            "cube_dim": 3,
            "complete_n": 5,
        },
        "fast": {
            "torus_sizes": [[3, 3], [4, 4]],
            "tree_depths": [1, 2],
            "ring_n": 8,
            "cube_dim": 3,
            "complete_n": 5,
        },
        "full": {
            "torus_sizes": [[3, 3], [4, 4], [5, 5], [4, 6]],
            "tree_depths": [1, 2, 3],
            "ring_n": 8,
            "cube_dim": 3,
            "complete_n": 5,
        },
        "stress": {
            "torus_sizes": [[3, 3], [4, 4], [5, 5], [4, 6], [6, 6], [7, 7]],
            "tree_depths": [1, 2, 3, 4, 5],
            "ring_n": 16,
            "cube_dim": 4,
            "complete_n": 7,
        },
    },
)


def make_shards(config: RunConfig) -> list[dict]:
    params = config.params
    shards: list[dict] = [{"kind": "two_node"}]
    shards += [
        {"kind": "torus", "rows": rows, "cols": cols}
        for rows, cols in params["torus_sizes"]
    ]
    shards += [{"kind": "tree", "depth": d} for d in params["tree_depths"]]
    shards += [
        {"kind": "ring", "n": params["ring_n"]},
        {"kind": "cube", "dim": params["cube_dim"]},
        {"kind": "complete", "n": params["complete_n"]},
    ]
    return shards


def _checks_for(shard: dict) -> list[tuple[str, object, int, int, int]]:
    """(family label, graph, u, v, expected Shrink) rows of one shard."""
    kind = shard["kind"]
    if kind == "two_node":
        return [("two-node", two_node_graph(), 0, 1, 1)]
    if kind == "torus":
        rows, cols = shard["rows"], shard["cols"]
        torus = oriented_torus(rows, cols)
        checks = []
        # dict.fromkeys, not a set: dedup must preserve insertion order
        # so the table's row order is identical on every interpreter
        # (REPRO105; set order follows the hash layout).
        coords = dict.fromkeys(
            [(0, 1), (1, 1), (rows - 1, cols - 1), (rows // 2, cols // 2)]
        )
        for r, c in coords:
            v = torus_node(r, c, cols)
            if v == 0:
                continue
            checks.append(
                (f"torus {rows}x{cols}", torus, 0, v, torus.distance(0, v))
            )
        return checks
    if kind == "tree":
        depth = shard["depth"]
        tree = symmetric_tree(arity=2, depth=depth)
        return [
            (
                f"mirror tree depth {depth}",
                tree,
                u,
                mirror_node(u, 2, depth),
                1,
            )
            for u in (0, tree.n // 2 - 1)  # root and the deepest left leaf
        ]
    if kind == "ring":
        n = shard["n"]
        ring = oriented_ring(n)
        return [
            (f"oriented ring n={n}", ring, 0, v, ring.distance(0, v))
            for v in (1, n // 2 - 1, n // 2)
        ]
    if kind == "cube":
        dim = shard["dim"]
        cube = hypercube(dim)
        return [
            (f"hypercube d={dim}", cube, 0, v, cube.distance(0, v))
            for v in (1, 3, 2**dim - 1)
        ]
    if kind == "complete":
        n = shard["n"]
        return [(f"complete K{n}", complete_graph(n), 0, v, 1) for v in (1, 2)]
    raise KeyError(f"unknown shard kind {kind!r}")


def run_shard(config: RunConfig, shard: dict) -> dict:
    ok = True
    rows = []
    for family, graph, u, v, expected in _checks_for(shard):
        # One kernel per graph answers every pair of the family's table
        # (colors + all-pairs Shrink computed once, not per check).
        context = symmetry_context(graph)
        symmetric = context.are_symmetric(u, v)
        dist = int(context.distances[u, v])
        value = context.shrink_value(u, v)
        ok = ok and symmetric and value == expected
        rows.append(
            {
                "family": family,
                "pair": f"({u},{v})",
                "symmetric": symmetric,
                "dist": dist,
                "Shrink": value,
                "expected": expected,
            }
        )
    return {"ok": ok, "rows": rows}


def merge(config: RunConfig, shard_results: list[dict]) -> ExperimentRecord:
    record = ExperimentRecord(
        exp_id=SCENARIO.exp_id,
        title=SCENARIO.title,
        paper_claim=(
            "On an oriented torus Shrink(u, v) = dist(u, v) for every "
            "(symmetric) pair; on a symmetric tree Shrink of any mirror "
            "pair is 1 at arbitrary distance."
        ),
        columns=["family", "pair", "symmetric", "dist", "Shrink", "expected"],
    )
    for result in shard_results:
        for row in result["rows"]:
            record.add_row(**row)
    record.passed = all(result["ok"] for result in shard_results)
    record.measured_summary = (
        "Shrink computed by product-graph BFS matches the paper's closed "
        "forms on every family: distance-preserving on tori/rings/"
        "hypercubes, collapsing to 1 on mirror trees and cliques"
    )
    return record
