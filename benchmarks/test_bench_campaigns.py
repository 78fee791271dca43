"""Campaign-layer benchmarks: cell throughput and warm-cache hit rate.

The campaign acceptance numbers:

* a cold smoke-tier ``core`` campaign must sustain a measurable
  cells/sec rate (recorded, not gated — machines differ);
* the warm re-run must be a **pure cache hit** (zero recomputed
  cells, hit rate 1.0) and complete >= 5x faster than the cold run;
* serial and ``--jobs 2`` runs must merge to identical records.

With ``--benchmark-json PATH``, consolidated numbers land in
``BENCH_campaigns.json`` next to PATH — ``{workload: {cold_s, warm_s,
cells, cells_per_s, warm_hit_rate, ...}}`` — uploaded by the CI
benchmarks job next to the pytest-benchmark timings.
"""

import time

from conftest import export_bench

from repro.campaigns.registry import CAMPAIGNS
from repro.experiments.orchestrator import run_experiment
from repro.experiments.store import ResultStore


def test_campaign_throughput_and_warm_cache(tmp_path):
    store = ResultStore(tmp_path / "cache")
    spec = CAMPAIGNS["core"]

    t0 = time.perf_counter()
    cold = run_experiment(spec, tier="smoke", jobs=1, store=store)
    cold_s = time.perf_counter() - t0
    cells = len(cold.shards)
    assert cold.record.passed, cold.record.measured_summary
    assert cold.shards_cached == 0

    t0 = time.perf_counter()
    warm = run_experiment(spec, tier="smoke", jobs=1, store=store)
    warm_s = time.perf_counter() - t0
    assert warm.shards_computed == 0  # pure cache hit
    assert warm.record == cold.record
    warm_hit_rate = warm.shards_cached / cells
    assert warm_hit_rate == 1.0
    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert warm_speedup >= 5.0, (cold_s, warm_s)

    parallel = run_experiment(spec, tier="smoke", jobs=2, store=None)
    assert parallel.record == cold.record  # bit-identical merge

    comparisons = sum(
        outcome.result["comparisons"] for outcome in cold.shards
    )
    export_bench(
        "BENCH_campaigns.json",
        "core_smoke",
        {
            "cells": cells,
            "comparisons": comparisons,
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 3),
            "cells_per_s": round(cells / cold_s, 2),
            "warm_hit_rate": warm_hit_rate,
            "warm_speedup": round(warm_speedup, 2),
        },
    )
    print(
        f"\ncampaign core/smoke: {cells} cells, {comparisons} comparisons, "
        f"cold {cold_s:.2f}s ({cells / cold_s:.1f} cells/s), warm "
        f"{warm_s:.3f}s (hit rate {warm_hit_rate:.0%}, {warm_speedup:.0f}x)"
    )
