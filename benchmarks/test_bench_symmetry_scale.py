"""Sparse/blocked symmetry kernel at scale: 1e4-1e5-node pipelines.

The PR-9 acceptance benchmarks.  A random regular graph is driven
through the full blocked pipeline — views (array partition
refinement), blocked multi-source BFS distance rows, batched per-pair
Shrink, Corollary 3.1 verdicts — inside a *fresh subprocess* whose
peak RSS is asserted against a fixed budget far below what any dense
``n x n`` int64 allocation would need (0.8 GB at n=1e4, 80 GB at
n=1e5).  The smoke leg (n=1e4) always runs; set ``REPRO_FULL=1`` for
the 1e5-node leg.

A torus leg runs ``shrink_pairs`` on the 100x100 oriented torus in its
own fresh subprocess: every pair there is symmetric, so each pair's
deferred minimum really runs.  It must reach 3 pairs/s within 256 MiB.

A mid-scale leg proves the blocked all-pairs engine end to end: the
worklist value iteration writes a ``np.lib.format.open_memmap`` atlas
for the fully symmetric 32x32 oriented torus and must match the dense
kernel bit for bit.

With ``--benchmark-json PATH``, every leg appends its timings,
throughput, and peak RSS to ``BENCH_symmetry.json`` next to PATH so
the scale trajectory stays machine-readable across PRs; CI uploads the
file next to the pytest-benchmark timings.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import export_bench

import repro
from repro.graphs.families import oriented_torus
from repro.symmetry.context import SymmetryContext

#: Peak-RSS budgets per pipeline leg.  Chosen with 3-4x headroom over
#: measured peaks (93-99 MiB at n=1e4, 590 MiB at n=1e5, on a 2-CPU
#: x86-64 Linux host) while staying far below the dense n x n matrix
#: each graph would otherwise need.
_SMOKE_BUDGET_BYTES = 400 * 1024 * 1024
_FULL_BUDGET_BYTES = 2 * 1024 * 1024 * 1024


# The pipeline runs in its own interpreter so ru_maxrss measures *this
# workload's* peak, not whatever earlier tests of the pytest process
# happened to allocate.
_PIPELINE = r"""
import json
import resource
import sys
import time

import numpy as np

from repro.graphs.random_graphs import random_regular_graph
from repro.symmetry.context import SymmetryContext
from repro.util.lcg import SplitMix64, derive_seed

n, degree, samples = (int(a) for a in sys.argv[1:4])

t0 = time.perf_counter()
graph = random_regular_graph(n, degree, seed=7)
build_s = time.perf_counter() - t0

t0 = time.perf_counter()
context = SymmetryContext(graph)
views_s = time.perf_counter() - t0

rows = np.linspace(0, n - 1, num=samples).astype(np.int64)
t0 = time.perf_counter()
dist = context.distances_block(rows)
distances_s = time.perf_counter() - t0

rng = SplitMix64(derive_seed("bench-scale", n, degree))
us = np.array([rng.randrange(n) for _ in range(samples)], dtype=np.int64)
vs = np.array([(u + 1 + rng.randrange(n - 1)) % n for u in us], dtype=np.int64)
t0 = time.perf_counter()
shrinks = context.shrink_pairs(us, vs, pair_chunk=8)
shrink_s = time.perf_counter() - t0

t0 = time.perf_counter()
verdicts = context.verdicts_for_pairs(us, vs, delta=2)
verdicts_s = time.perf_counter() - t0

print(json.dumps({
    "n": n,
    "degree": degree,
    "samples": samples,
    "build_s": round(build_s, 3),
    "views_s": round(views_s, 3),
    "distances_s": round(distances_s, 3),
    "shrink_s": round(shrink_s, 3),
    "verdicts_s": round(verdicts_s, 3),
    "color_classes": int(context.colors.max()) + 1,
    "sampled_eccentricity": int(dist.max()),
    "unreached": int((dist < 0).sum()),
    "max_shrink_sampled": int(shrinks.max()),
    "feasible_verdicts": sum(v.feasible for v in verdicts),
    "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
}, sort_keys=True))
"""


# Shrink on the oriented torus, in a fresh interpreter for the same
# reason.  The pairs are given as (row, col) offsets from seeded bases.
_TORUS_SHRINK = r"""
import json
import resource
import sys
import time

import numpy as np

from repro.graphs.families import oriented_torus
from repro.symmetry.context import SymmetryContext

side = int(sys.argv[1])
offsets = np.array(json.loads(sys.argv[2]), dtype=np.int64).reshape(-1, 2)

context = SymmetryContext(oriented_torus(side, side))
rng = np.random.default_rng(7)
rows = rng.integers(0, side, len(offsets))
cols = rng.integers(0, side, len(offsets))
us = rows * side + cols
vs = ((rows + offsets[:, 0]) % side) * side + (cols + offsets[:, 1]) % side

t0 = time.perf_counter()
shrinks = context.shrink_pairs(us, vs)
shrink_s = time.perf_counter() - t0

dist = context.distances_block(us)[np.arange(len(us)), vs]
print(json.dumps({
    "n": side * side,
    "pairs": len(us),
    "shrink_s": round(shrink_s, 3),
    "shrinks": shrinks.tolist(),
    "distances": dist.tolist(),
    "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
}, sort_keys=True))
"""


def _run_script(script: str, *args: object) -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *(str(a) for a in args)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_pipeline_sane(stats: dict, budget_bytes: int) -> None:
    assert stats["peak_rss_bytes"] < budget_bytes, stats
    # The graph is connected: every sampled BFS row reaches every node.
    assert stats["unreached"] == 0, stats
    assert stats["sampled_eccentricity"] > 0, stats
    # Random port labels break all symmetry at these sizes, so every
    # sampled pair is non-symmetric hence feasible at any delay.
    assert stats["feasible_verdicts"] == stats["samples"], stats


def _record_pipeline(workload: str, stats: dict, budget_bytes: int) -> None:
    export_bench(
        "BENCH_symmetry.json",
        workload,
        {
            **stats,
            "budget_bytes": budget_bytes,
            "dense_matrix_bytes": stats["n"] * stats["n"] * 8,
            "distance_rows_per_s": round(
                stats["samples"] / stats["distances_s"], 1
            )
            if stats["distances_s"] > 0
            else float("inf"),
            "shrink_pairs_per_s": round(stats["samples"] / stats["shrink_s"], 1)
            if stats["shrink_s"] > 0
            else float("inf"),
        },
    )


def test_scale_pipeline_smoke_n10k():
    """1e4-node random 3-regular graph through the full blocked
    pipeline in under 400 MiB — half the 0.8 GB a single dense int64
    matrix would cost, let alone the kernel's two."""
    stats = _run_script(_PIPELINE, 10_000, 3, 32)
    _assert_pipeline_sane(stats, _SMOKE_BUDGET_BYTES)
    _record_pipeline("scale_pipeline_n10000", stats, _SMOKE_BUDGET_BYTES)


def test_scale_pipeline_full_n100k():
    """1e5-node random 3-regular graph, full pipeline under 2 GiB —
    the dense kernel would need 80 GB per matrix.  REPRO_FULL=1 only
    (~1 min)."""
    if os.environ.get("REPRO_FULL", "") != "1":
        import pytest

        pytest.skip("set REPRO_FULL=1 for the 1e5-node pipeline")
    stats = _run_script(_PIPELINE, 100_000, 3, 64)
    _assert_pipeline_sane(stats, _FULL_BUDGET_BYTES)
    _record_pipeline("scale_pipeline_n100000", stats, _FULL_BUDGET_BYTES)


#: (row, col) offsets of the torus leg's pairs: the ``symmetry_scale``
#: workload's offsets, distances 3 to 12.
_TORUS_OFFSETS = [(1, 2), (3, 0), (2, 5), (6, 1), (4, 7), (9, 3)]
_TORUS_BUDGET_BYTES = 256 * 1024 * 1024


def test_torus_shrink_pairs_100x100():
    """100x100 oriented torus (n=1e4, all pairs symmetric): at least
    3 Shrink pairs/s within 256 MiB, in a fresh interpreter.

    The reach of a pair on the oriented torus is one translation orbit
    ``{(x, x + offset)}``, whose states all sit at distance
    ``dist(u, v)``, so Shrink equals ``dist(u, v)``.  The deferred
    minimum fetches one BFS row per reach state truncated at
    ``dist(u, v) - 1``, so the cost grows with the ball of that radius:
    these near pairs are the regime the truncation serves.  A pair near
    the diameter still costs about ``n`` full rows.
    """
    stats = _run_script(_TORUS_SHRINK, 100, json.dumps(_TORUS_OFFSETS))
    assert stats["shrinks"] == stats["distances"], stats
    assert min(stats["shrinks"]) > 0, stats
    pairs_per_s = (
        stats["pairs"] / stats["shrink_s"] if stats["shrink_s"] > 0 else float("inf")
    )
    assert pairs_per_s >= 3.0, stats
    assert stats["peak_rss_bytes"] <= _TORUS_BUDGET_BYTES, stats
    export_bench(
        "BENCH_symmetry.json",
        "torus_shrink_pairs_100x100",
        {
            **stats,
            "budget_bytes": _TORUS_BUDGET_BYTES,
            "shrink_pairs_per_s": round(pairs_per_s, 1),
        },
    )


def test_blocked_memmap_all_pairs_matches_dense(tmp_path):
    """32x32 oriented torus (n=1024, fully symmetric): the blocked
    worklist value iteration, writing straight into a memory-mapped
    atlas, must reproduce the dense kernel bit for bit."""
    graph = oriented_torus(32, 32)
    n = graph.n

    t0 = time.perf_counter()
    dense = SymmetryContext(graph).shrink_all
    dense_s = time.perf_counter() - t0

    out = np.lib.format.open_memmap(
        tmp_path / "shrink.npy", mode="w+", dtype=np.int64, shape=(n, n)
    )
    fresh = SymmetryContext(graph)
    t0 = time.perf_counter()
    fresh.shrink_all_into(out, block_size=256)
    blocked_s = time.perf_counter() - t0
    out.flush()

    assert np.array_equal(np.load(tmp_path / "shrink.npy"), dense)
    assert int(dense.max()) > 0  # the torus has real symmetric pairs
    export_bench(
        "BENCH_symmetry.json",
        "blocked_memmap_all_pairs_torus32x32",
        {
            "n": n,
            "dense_s": round(dense_s, 3),
            "blocked_memmap_s": round(blocked_s, 3),
            "identical": True,
        },
    )
