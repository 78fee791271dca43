"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (see
docs/orchestration.md for the experiment index) and prints the
regenerated table after timing, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the full
evaluation in one command.

Consolidated ``BENCH_*.json`` exports are written by
:func:`export_bench` only when pytest-benchmark's
``--benchmark-json PATH`` is given, into PATH's directory; a plain
test run leaves the working tree untouched.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

#: Directory of the ``--benchmark-json`` report, or None (no exports).
_EXPORT_DIR: Path | None = None


def pytest_configure(config) -> None:
    global _EXPORT_DIR
    report = config.getoption("benchmark_json", None)
    _EXPORT_DIR = Path(report.name).resolve().parent if report else None


def export_bench(filename: str, workload: str, payload: dict) -> None:
    """Merge one workload's numbers into the consolidated JSON export
    ``filename`` (a no-op without ``--benchmark-json``)."""
    if _EXPORT_DIR is None:
        return
    path = _EXPORT_DIR / filename
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[workload] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def paired_ratio(baseline_fn, candidate_fn, pairs: int):
    """Median per-pair ``baseline / candidate`` time ratio.

    The two sides run back to back in ``pairs`` interleaved pairs,
    alternating which goes first, so host drift hits both alike and a
    scheduler hiccup spoils one pair, not the verdict.  Returns
    ``(ratio, baseline_s, candidate_s, baseline_result,
    candidate_result)``; the two times are the per-side medians, for
    reporting only.
    """
    times = {baseline_fn: [], candidate_fn: []}
    results = {}
    for index in range(pairs):
        order = (baseline_fn, candidate_fn)
        if index % 2:
            order = order[::-1]
        for fn in order:
            t0 = time.perf_counter()
            results[fn] = fn()
            times[fn].append(time.perf_counter() - t0)
    ratios = [old / new for old, new in zip(times[baseline_fn], times[candidate_fn])]
    return (
        statistics.median(ratios),
        statistics.median(times[baseline_fn]),
        statistics.median(times[candidate_fn]),
        results[baseline_fn],
        results[candidate_fn],
    )


def emit(record) -> None:
    """Print an experiment record beneath the benchmark output."""
    print()
    print(record.to_text())


@pytest.fixture(scope="session")
def tier() -> str:
    """Benchmarks default to the fast tier; set REPRO_FULL=1 for the
    full (slow) parameter ranges."""
    import os

    return "full" if os.environ.get("REPRO_FULL", "") == "1" else "fast"
