"""Orchestration-layer benchmarks: parallel sharding and warm-cache.

The PR-4 acceptance benchmarks:

* a warm-cache re-run of the **fast tier** must recompute zero shards
  and complete >= 5x faster than the cold run that populated the
  store;
* a ``--jobs N`` run must merge byte-identically to the serial run;
  its wall-clock speedup over ``--jobs 1`` (both uncached, timed in
  interleaved pairs) is recorded, and asserted (>= 1.2x) only when
  the machine actually has multiple CPUs.

With ``--benchmark-json PATH``, consolidated ratios are appended to
``BENCH_runner.json`` next to PATH — ``{workload: {cold_s/serial_s,
warm_s/parallel_s, speedup, ...}}`` — uploaded by the CI benchmarks
job next to the pytest-benchmark timings.
"""

import os
import time

from conftest import emit, export_bench, paired_ratio

from repro.experiments.orchestrator import run_suite
from repro.experiments.records import ExperimentRecord
from repro.experiments.runner import to_markdown
from repro.experiments.store import ResultStore


#: Interleaved (serial, parallel) timing pairs; the speedup is the
#: median of the per-pair ratios, so host drift hits both sides alike.
_PAIRS = 7


def _md(runs) -> str:
    return to_markdown([(r.record, r.seconds) for r in runs], tier="fast")


def test_warm_cache_and_parallel_fast_tier(tmp_path):
    """Cold vs warm vs parallel full fast-tier suite."""
    store = ResultStore(tmp_path / "cache")

    t0 = time.perf_counter()
    cold = run_suite(None, tier="fast", jobs=1, store=store)
    cold_s = time.perf_counter() - t0
    shards = sum(len(r.shards) for r in cold)
    assert sum(r.shards_cached for r in cold) == 0

    t0 = time.perf_counter()
    warm = run_suite(None, tier="fast", jobs=1, store=store)
    warm_s = time.perf_counter() - t0
    recomputed = sum(r.shards_computed for r in warm)
    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert _md(warm) == _md(cold)

    jobs = min(4, os.cpu_count() or 1)
    parallel_speedup, serial_s, parallel_s, serial, parallel = paired_ratio(
        lambda: run_suite(None, tier="fast", jobs=1, store=None),
        lambda: run_suite(None, tier="fast", jobs=jobs, store=None),
        _PAIRS,
    )
    assert _md(serial) == _md(cold)
    assert _md(parallel) == _md(cold)  # bit-identical merge, any --jobs

    export_bench(
        "BENCH_runner.json",
        "fast_tier_warm_cache",
        {
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 3),
            "speedup": round(warm_speedup, 2),
            "shards": shards,
            "recomputed": recomputed,
        },
    )
    export_bench(
        "BENCH_runner.json",
        "fast_tier_parallel",
        {
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(parallel_speedup, 2),
            "jobs": jobs,
            "cpus": os.cpu_count(),
        },
    )

    record = ExperimentRecord(
        exp_id="BENCH-RUNNER",
        title="Sharded runner: warm-cache and parallel fast-tier suite",
        paper_claim=(
            "experiment orchestration is embarrassingly parallel across "
            "shards, and content-addressed shard results make unchanged "
            "re-runs pure cache reads"
        ),
        columns=["mode", "seconds", "shards", "recomputed", "speedup"],
    )
    record.add_row(
        mode="cold serial", seconds=round(cold_s, 2), shards=shards,
        recomputed=shards, speedup=1.0,
    )
    record.add_row(
        mode="warm cache", seconds=round(warm_s, 2), shards=shards,
        recomputed=recomputed, speedup=round(warm_speedup, 1),
    )
    record.add_row(
        mode=f"parallel x{jobs}", seconds=round(parallel_s, 2), shards=shards,
        recomputed=shards, speedup=round(parallel_speedup, 1),
    )
    record.passed = recomputed == 0 and warm_speedup >= 5.0
    record.measured_summary = (
        f"{shards} fast-tier shards: warm re-run recomputed {recomputed} "
        f"shards at {warm_speedup:.0f}x; --jobs {jobs} merge byte-identical "
        f"at {parallel_speedup:.1f}x on {os.cpu_count()} CPU(s)"
    )
    emit(record)

    # Acceptance: warm re-run recomputes nothing and is >= 5x faster.
    assert recomputed == 0, "warm run recomputed shards"
    assert warm_speedup >= 5.0, (cold_s, warm_s)
    # Parallel wall-clock gains need real cores; merge identity is
    # asserted above unconditionally.
    if (os.cpu_count() or 1) >= 2:
        assert parallel_speedup >= 1.2, (serial_s, parallel_s, jobs)
