"""The unified vectorized execution core (see docs/execution_core.md).

Three engines used to reimplement the same machinery — the batched
STIC sweep (:mod:`repro.sim.batch`), the schedule-adversary sweep
(:mod:`repro.sim.schedule_adversary`), and the UXS coverage engine.
This package is the single shared implementation; the two sweeps are
now thin frontends over it:

* :mod:`repro.exec.trace` — the trace IR: agent behavior is compiled
  once into :class:`PortTrace` arrays by :class:`TraceCompiler`, with
  unified fuel (``tail_waits``) accounting.
* :mod:`repro.exec.meeting` — meeting detection over compiled traces:
  synchronous node meetings (:func:`solve_sync_meeting`,
  :func:`resolve_sync_cell`) and asynchronous node/edge meetings
  (:func:`resolve_async_cell`), both returning :data:`PENDING` when
  the compiled prefixes are too shallow to decide.
* :mod:`repro.exec.deepen` — :func:`resolve_adaptive`, the shared
  compile-shallow / solve / deepen-geometrically driver.
* :mod:`repro.exec.uxs` — the dart-automaton replay: UXS streams and
  multi-start coverage walks as array gathers.

Equivalence with the retained scalar references is enforced by the
``tests/exec`` differential harness (``assert_engines_identical``),
golden fast-tier experiment fixtures, and the campaign check library.
"""

from repro.exec.deepen import resolve_adaptive
from repro.exec.meeting import (
    PENDING,
    resolve_async_cell,
    resolve_sync_cell,
    solve_sync_meeting,
)
from repro.exec.trace import BadPortChoice, PortTrace, TraceCompiler
from repro.exec.uxs import (
    DartWalkTable,
    apply_uxs_all,
    covered_counts,
    generate_offset_stream,
    is_uxs_for_graph_vectorized,
)

__all__ = [
    "resolve_adaptive",
    "PENDING",
    "resolve_async_cell",
    "resolve_sync_cell",
    "solve_sync_meeting",
    "BadPortChoice",
    "PortTrace",
    "TraceCompiler",
    "DartWalkTable",
    "apply_uxs_all",
    "covered_counts",
    "generate_offset_stream",
    "is_uxs_for_graph_vectorized",
]
