"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (see
DESIGN.md §3) and prints the regenerated table after timing, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the full
evaluation in one command.

Consolidated ``BENCH_*.json`` exports are written by
:func:`export_bench` only when pytest-benchmark's
``--benchmark-json PATH`` is given, into PATH's directory; a plain
test run leaves the working tree untouched.
"""

import json
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


def emit(record) -> None:
    """Print an experiment record beneath the benchmark output."""
    print()
    print(record.to_text())


@pytest.fixture(scope="session")
def fast_mode() -> bool:
    """Benchmarks default to the fast sweeps; set REPRO_FULL=1 for the
    full (slow) parameter ranges."""
    import os

    return os.environ.get("REPRO_FULL", "") != "1"
