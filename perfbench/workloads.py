"""The three benchmark workloads, each a closed loop with one client.

A workload object is built from the workload seed (its constructor is
the input generation counted in ``setup_s``), then runs one timed cold
pass (``wall_s``) and any number of warm passes (``warm_s``).  Every
pass has an output check; each check unit that passes counts towards
``success_rate``.

* ``fast_tier`` — the paper reproduction, ``python -m repro --tier fast
  --no-cache``: ``run_suite(None, tier="fast", jobs=1, store=None)``.
  Its warm pass re-runs the tier against a store filled from the cold
  pass's shard results, as a second CLI call with the cache does.
* ``campaign_core`` — the ``core`` self-fuzzing campaign at the fast
  tier, cold into an empty store, then warm re-runs against it.
* ``symmetry_scale`` — the symmetry kernel on a symmetric oriented
  torus (Shrink > 0, product-graph value iteration) and on a random
  3-regular graph with 1e5 nodes (refinement and blocked BFS).  Its
  warm pass repeats the queries through the context cache.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.campaigns.registry import get_campaign
from repro.experiments.orchestrator import ExperimentRun, run_suite
from repro.experiments.scenarios import build_graph
from repro.experiments.store import ResultStore
from repro.symmetry.context import symmetry_context
from repro.util.encoding import canonical_json


def _records_digest(runs: list[ExperimentRun]) -> str:
    text = canonical_json([run.record.to_json_dict() for run in runs])
    return hashlib.sha256(text.encode()).hexdigest()


class FastTier:
    name = "fast_tier"
    #: The nine registered experiments of the paper reproduction.
    EXPERIMENTS = 9

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.store_dir = tmp / "fast_tier-store"

    def run(self) -> list[ExperimentRun]:
        return run_suite(None, tier="fast", seed=self.seed, jobs=1, store=None)

    def check(self, runs: list[ExperimentRun]) -> list[bool]:
        return [len(runs) == self.EXPERIMENTS] + [run.record.passed for run in runs]

    def prepare_warm(self, runs: list[ExperimentRun]) -> None:
        self.store = ResultStore(self.store_dir)
        for run in runs:
            for outcome in run.shards:
                self.store.put(outcome.key, outcome.result, meta={})

    def warm(self) -> list[ExperimentRun]:
        return run_suite(None, tier="fast", seed=self.seed, jobs=1, store=self.store)

    def check_warm(self, cold: list[ExperimentRun], warm: list[ExperimentRun]) -> bool:
        recomputed = sum(run.shards_computed for run in warm)
        return recomputed == 0 and _records_digest(warm) == _records_digest(cold)

    def digest(self, runs: list[ExperimentRun]) -> str:
        return _records_digest(runs)


class CampaignCore:
    name = "campaign_core"
    #: (family, rung, check) cells of the core campaign's fast tier.
    CELLS = 198

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.spec = get_campaign("core")
        self.store = ResultStore(tmp / "campaign_core-store")

    def run(self) -> list[ExperimentRun]:
        return run_suite(
            [self.spec], tier="fast", seed=self.seed, jobs=1, store=self.store
        )

    warm = run

    def check(self, runs: list[ExperimentRun]) -> list[bool]:
        (run,) = runs
        cells = [
            outcome.result is not None and outcome.result["ok"]
            for outcome in run.shards
        ]
        return cells + [
            len(run.shards) == self.CELLS,
            run.shards_quarantined == 0,
            run.record.passed,
        ]

    def prepare_warm(self, runs: list[ExperimentRun]) -> None:
        pass

    def check_warm(self, cold: list[ExperimentRun], warm: list[ExperimentRun]) -> bool:
        (run,) = warm
        return run.shards_computed == 0 and _records_digest(warm) == _records_digest(cold)

    def digest(self, runs: list[ExperimentRun]) -> str:
        return _records_digest(runs)


class SymmetryScale:
    name = "symmetry_scale"
    TORUS_SIDE = 40
    #: Fixed (row, column) offsets of the torus pairs.  The oriented
    #: torus is vertex-transitive, so the Shrink work of a pair depends
    #: on its offset only; the seed picks the base nodes.
    TORUS_OFFSETS = ((1, 2), (3, 0), (2, 5), (6, 1), (4, 7), (9, 3))
    SPARSE_N = 100_000
    SPARSE_DEGREE = 3
    #: The pairing-model builder redraws until the graph is simple and
    #: connected, so its cost depends on the graph seed.  One fixed
    #: graph keeps ``setup_s`` comparable across workload seeds; the
    #: workload seed drives the pair and row samplers.
    SPARSE_GRAPH_SEED = 1
    BFS_ROWS = 12
    SPARSE_PAIRS = 64

    def __init__(self, seed: int, tmp: Path) -> None:
        side = self.TORUS_SIDE
        self.torus = build_graph({"family": "oriented_torus", "rows": side, "cols": side})
        self.sparse = build_graph(
            {
                "family": "random_regular",
                "n": self.SPARSE_N,
                "degree": self.SPARSE_DEGREE,
                "seed": self.SPARSE_GRAPH_SEED,
            }
        )
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, side, len(self.TORUS_OFFSETS))
        cols = rng.integers(0, side, len(self.TORUS_OFFSETS))
        offsets = np.array(self.TORUS_OFFSETS, dtype=np.int64)
        self.torus_us = rows * side + cols
        self.torus_vs = ((rows + offsets[:, 0]) % side) * side + (cols + offsets[:, 1]) % side
        self.delta = int(rng.integers(1, side // 2))
        n = self.SPARSE_N
        self.bfs_rows = rng.choice(n, self.BFS_ROWS, replace=False)
        us = rng.integers(0, n, self.SPARSE_PAIRS)
        self.sparse_us = us
        self.sparse_vs = (us + rng.integers(1, n, self.SPARSE_PAIRS)) % n

    def run(self) -> dict:
        torus = symmetry_context(self.torus)
        sparse = symmetry_context(self.sparse)
        return {
            "torus_colors": torus.colors,
            "torus": torus.verdicts_for_pairs(self.torus_us, self.torus_vs, self.delta),
            "distances": sparse.distances_block(self.bfs_rows),
            "sparse": sparse.verdicts_for_pairs(self.sparse_us, self.sparse_vs, 0),
        }

    def check(self, result: dict) -> list[bool]:
        torus = symmetry_context(self.torus)
        dist = torus.distances_block(self.torus_us)
        units = [int(result["torus_colors"].max()) == 0]
        for i, verdict in enumerate(result["torus"]):
            shrink = verdict.shrink
            units.append(
                verdict.symmetric
                and shrink is not None
                and 0 < shrink <= dist[i, self.torus_vs[i]]
                and verdict.feasible == (self.delta >= shrink)
            )
        distances = result["distances"]
        units.append(
            bool((distances >= 0).all())
            and bool((distances[np.arange(self.BFS_ROWS), self.bfs_rows] == 0).all())
        )
        units += [verdict.feasible for verdict in result["sparse"]]
        return units

    def prepare_warm(self, result: dict) -> None:
        pass

    def check_warm(self, cold: dict, warm: dict) -> bool:
        return self.digest(warm) == self.digest(cold)

    def digest(self, result: dict) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(result["torus_colors"]).tobytes())
        h.update(np.ascontiguousarray(result["distances"]).tobytes())
        for verdict in result["torus"] + result["sparse"]:
            h.update(repr(verdict).encode())
        return h.hexdigest()

    warm = run


WORKLOADS = {cls.name: cls for cls in (FastTier, CampaignCore, SymmetryScale)}
