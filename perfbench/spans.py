"""In-memory span recorder and the wrappers that attach it to ``repro``.

The program itself carries no instrumentation.  :func:`instrument`
wraps the public functions and methods listed in :data:`TARGETS` from
the outside: a function is replaced in its defining module *and* at
every import site (``from repro.core.universal import rendezvous``
binds a second name that a module-attribute patch alone would miss),
and a method is replaced on its class.

Each call of a wrapped function records one :class:`Span` (name,
start, end, parent span, workload-run id) plus per-call counts.
Spans stay in memory until the run ends; :func:`layer_metrics` folds
them into the ``<module>.<function>.<stat>`` metrics named in
:data:`METRICS`, where ``self_s`` is a span's duration minus the
duration of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "tag", "stats")

    def __init__(self, sid: int, name: str, start: float, parent: int, run: str):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.tag: str | None = None
        self.stats: dict[str, float] = {}

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "tag": self.tag,
            "stats": self.stats,
        }


class Recorder:
    """Spans of one process; records only while a phase is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phases: list[tuple[str, float, float]] = []
        self._stack: list[Span] = []
        self._run: str | None = None
        # Per TraceCompiler: start -> (last compiled trace, its horizon).
        self.compilers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.compiled_rounds = 0
        self.final_rounds = 0

    def phase(self, run: str) -> "_Phase":
        """Context manager scoping the spans of one workload phase."""
        return _Phase(self, run)

    def open(self, name: str) -> Span | None:
        if self._run is None:
            return None
        parent = self._stack[-1].sid if self._stack else -1
        span = Span(len(self.spans), name, time.perf_counter(), parent, self._run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")


class _Phase:
    def __init__(self, recorder: Recorder, run: str) -> None:
        self.recorder = recorder
        self.run = run

    def __enter__(self) -> None:
        self.start = time.perf_counter()
        self.recorder._run = self.run

    def __exit__(self, *exc: object) -> None:
        self.recorder._run = None
        self.recorder.phases.append((self.run, self.start, time.perf_counter()))


# -- per-call statistics ---------------------------------------------------
# A ``post`` hook runs after a successful call as
# ``post(recorder, span, args, result, pre)``, where ``pre`` is what the
# target's ``pre(args)`` hook returned before the call (or None).

def _count(stat: str, of: Callable[[Any], float]) -> Callable[..., None]:
    def post(_rec: Recorder, span: Span, _args: tuple, result: Any, _pre: Any) -> None:
        span.stats[stat] = of(result)

    return post


def _traces_post(recorder: Recorder, span: Span, args: tuple, result: Any, _pre: Any) -> None:
    # TraceCompiler.traces compiles only the starts whose cached trace
    # is too short, all to the largest requested horizon; a compiled
    # start comes back as a new PortTrace object.
    compiler, horizons = args[0], args[1]
    seen = recorder.compilers.setdefault(compiler, {})
    compiled = [s for s, trace in result.items() if seen.get(s, (None,))[0] is not trace]
    if not compiled:
        return
    horizon = max(horizons[s] for s in compiled)
    for s in compiled:
        previous = seen.get(s, (None, 0))[1]
        seen[s] = (result[s], horizon)
        recorder.final_rounds += horizon - previous
    recorder.compiled_rounds += horizon * len(compiled)
    span.stats["starts"] = len(compiled)
    span.stats["rounds"] = horizon * len(compiled)


def _context_cache_pre(args: tuple) -> bool:
    from repro.symmetry import context

    return args[0] in context._CONTEXT_CACHE


def _context_cache_post(_rec: Recorder, span: Span, _args: tuple, _result: Any, hit: bool) -> None:
    span.stats["hits"] = int(hit)


def _store_get_post(_rec: Recorder, span: Span, _args: tuple, result: Any, _pre: Any) -> None:
    span.stats["hits"] = int(result is not None)


def _store_put_post(_rec: Recorder, span: Span, args: tuple, _result: Any, _pre: Any) -> None:
    store, key = args[0], args[1]
    span.stats["bytes"] = store.path_for(key).stat().st_size


def _refine_post(_rec: Recorder, span: Span, args: tuple, _result: Any, _pre: Any) -> None:
    colors = args[0].colors
    span.stats["classes"] = int(colors.max()) + 1 if colors.size else 0


def _check_post(_rec: Recorder, span: Span, args: tuple, _result: Any, _pre: Any) -> None:
    span.tag = args[0]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.attr`` or ``module.cls.attr``."""

    span: str
    module: str
    attr: str
    cls: str | None = None
    pre: Callable[[tuple], Any] | None = None
    post: Callable[[Recorder, Span, tuple, Any, Any], None] | None = None


TARGETS: tuple[Target, ...] = (
    Target(
        "sim.run_rendezvous", "repro.sim.scheduler", "run_rendezvous",
        post=_count("rounds", lambda result: result.rounds_executed),
    ),
    Target(
        "sim.run_rendezvous_batch", "repro.sim.batch", "run_rendezvous_batch",
        post=_count("cells", len),
    ),
    Target(
        "sim.run_schedule_sweep", "repro.sim.schedule_adversary", "run_schedule_sweep",
        post=_count("cells", len),
    ),
    Target("exec.traces", "repro.exec.trace", "traces", cls="TraceCompiler", post=_traces_post),
    Target("exec.resolve_adaptive", "repro.exec.deepen", "resolve_adaptive"),
    Target("exec.solve_sync_meeting", "repro.exec.meeting", "solve_sync_meeting"),
    Target("exec.resolve_async_cell", "repro.exec.meeting", "resolve_async_cell"),
    Target("exec.covered_counts", "repro.exec.uxs", "covered_counts"),
    Target("core.uxs.minimal_verified_uxs", "repro.core.uxs", "minimal_verified_uxs"),
    Target("core.uxs.is_uxs_for_graph", "repro.core.uxs", "is_uxs_for_graph"),
    Target("core.rendezvous", "repro.core.universal", "rendezvous"),
    Target(
        "symmetry.refine", "repro.symmetry.context", "__init__",
        cls="SymmetryContext", post=_refine_post,
    ),
    Target(
        "symmetry.distances_block", "repro.symmetry.context", "distances_block",
        cls="SymmetryContext", post=_count("rows", len),
    ),
    Target(
        "symmetry.shrink_pairs", "repro.symmetry.context", "shrink_pairs",
        cls="SymmetryContext", post=_count("pairs", len),
    ),
    Target(
        "symmetry.verdicts_for_pairs", "repro.symmetry.context", "verdicts_for_pairs",
        cls="SymmetryContext",
    ),
    Target(
        "symmetry.context_cache", "repro.symmetry.context", "symmetry_context",
        pre=_context_cache_pre, post=_context_cache_post,
    ),
    Target("hardness.simulate_word_batch", "repro.hardness.batch", "simulate_word_batch"),
    Target("campaigns.run_check", "repro.campaigns.checks", "run_check", post=_check_post),
    # One entry per scenario driver is added by instrument().
    Target("experiments.run_shard", "repro.campaigns.driver", "run_shard"),
    Target("experiments.plan_shards", "repro.experiments.orchestrator", "plan_shards"),
    Target("queue.execute_shard_task", "repro.experiments.queue", "execute_shard_task"),
    Target("queue.lease", "repro.experiments.queue", "lease", cls="WorkQueue"),
    Target("queue.fail", "repro.experiments.queue", "fail", cls="WorkQueue"),
    Target("journal.append", "repro.experiments.journal", "append", cls="RunJournal"),
    Target(
        "store.get", "repro.experiments.store", "get",
        cls="ResultStore", post=_store_get_post,
    ),
    Target(
        "store.put", "repro.experiments.store", "put",
        cls="ResultStore", post=_store_put_post,
    ),
    Target("store.shard_key", "repro.experiments.store", "shard_key"),
    Target("graphs.build", "repro.experiments.scenarios", "build_graph"),
)


def _wrap(recorder: Recorder, target: Target, fn: Callable) -> Callable:
    name, pre, post = target.span, target.pre, target.post

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(name)
        if span is None:
            return fn(*args, **kwargs)
        state = pre(args) if pre is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if post is not None:
            post(recorder, span, args, result, state)
        return result

    return wrapper


def instrument(recorder: Recorder) -> None:
    """Wrap every :data:`TARGETS` entry and every scenario driver's
    ``run_shard``.

    Imports every ``repro`` module first so that each import site of a
    wrapped function exists when the sites are scanned.
    """
    import repro
    from repro.experiments.scenarios import SCENARIO_MODULES

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    drivers = [
        Target("experiments.run_shard", module, "run_shard")
        for module in SCENARIO_MODULES.values()
    ]
    for target in TARGETS + tuple(drivers):
        home = importlib.import_module(target.module)
        if target.cls is not None:
            cls = getattr(home, target.cls)
            setattr(cls, target.attr, _wrap(recorder, target, cls.__dict__[target.attr]))
            continue
        original = getattr(home, target.attr)
        wrapper = _wrap(recorder, target, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# -- metrics ---------------------------------------------------------------

#: Ids of ``repro.campaigns.checks.CHECKS``; the self-test keeps the
#: two lists equal.
CHECK_IDS = (
    "differential/stic-sweep",
    "differential/schedule-sweep",
    "differential/symmetry-kernel",
    "differential/sparse-symmetry",
    "differential/uxs-cover",
    "differential/hardness-word",
    "differential/baselines",
    "metamorphic/node-relabel",
    "metamorphic/port-relabel",
    "metamorphic/uxs-relabel",
    "statistical/meeting-time",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: Workload on which the metric must be non-zero (None: may be 0).
    workload: str | None


def _span_metrics() -> list[Metric]:
    fast, camp, sym = "fast_tier", "campaign_core", "symmetry_scale"
    rows = [
        ("sim.run_rendezvous", ("calls", "self_s", "rounds"), fast),
        ("sim.run_rendezvous_batch", ("calls", "self_s", "cells"), camp),
        ("sim.run_schedule_sweep", ("calls", "self_s", "cells"), camp),
        ("exec.traces", ("calls", "self_s", "starts", "rounds"), camp),
        ("exec.resolve_adaptive", ("calls", "self_s"), camp),
        ("exec.deepen", ("recompile_ratio",), camp),
        ("exec.solve_sync_meeting", ("calls", "self_s"), camp),
        ("exec.resolve_async_cell", ("calls", "self_s"), camp),
        ("exec.covered_counts", ("calls", "self_s"), camp),
        ("core.uxs.minimal_verified_uxs", ("self_s",), camp),
        ("core.uxs.is_uxs_for_graph", ("calls", "self_s"), camp),
        ("core.rendezvous", ("self_s",), fast),
        ("symmetry.refine", ("self_s", "classes"), sym),
        ("symmetry.distances_block", ("calls", "self_s", "rows"), sym),
        ("symmetry.shrink_pairs", ("calls", "self_s", "pairs"), sym),
        ("symmetry.verdicts_for_pairs", ("self_s",), sym),
        # The campaign's checks build fresh contexts on purpose.
        ("symmetry.context_cache", ("calls", "hit_ratio"), fast),
        ("hardness.simulate_word_batch", ("calls", "self_s"), camp),
        ("campaigns.run_check", ("calls", "self_s"), camp),
        ("experiments.run_shard", ("calls", "self_s"), camp),
        ("experiments.plan_shards", ("self_s",), camp),
        ("queue.execute_shard_task", ("self_s",), camp),
        ("queue.lease", ("calls",), camp),
        # Counts retries: zero on a correct run.
        ("queue.fail", ("calls",), None),
        ("journal.append", ("calls", "self_s"), camp),
        ("store.get", ("calls", "self_s", "hit_ratio"), camp),
        ("store.put", ("calls", "self_s", "bytes"), camp),
        ("store.shard_key", ("calls", "self_s"), camp),
        ("graphs.build", ("self_s",), sym),
    ]
    units = {"self_s": "s", "hit_ratio": "ratio", "recompile_ratio": "ratio", "bytes": "bytes"}
    metrics = [
        Metric(f"{span}.{stat}", units.get(stat, "count"), workload)
        for span, stats, workload in rows
        for stat in stats
    ]
    metrics += [
        Metric(f"campaigns.check.{check.replace('/', '.')}.self_s", "s", camp)
        for check in CHECK_IDS
    ]
    metrics += [
        Metric("bench.unattributed_s", "s", None),
        Metric("bench.trace_overhead_s", "s", None),
    ]
    return metrics


METRICS: list[Metric] = _span_metrics()


@dataclass
class _Agg:
    calls: int = 0
    self_s: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Fold the recorded spans into every :data:`METRICS` value except
    ``bench.trace_overhead_s``, which needs untraced passes."""
    spans = recorder.spans
    own = self_times(spans)
    aggs: dict[str, _Agg] = {}
    checks: dict[str, float] = {}
    warm_gets = warm_hits = 0
    for span, self_s in zip(spans, own):
        agg = aggs.setdefault(span.name, _Agg())
        agg.calls += 1
        agg.self_s += self_s
        for stat, value in span.stats.items():
            agg.stats[stat] = agg.stats.get(stat, 0) + value
        if span.tag is not None:
            checks[span.tag] = checks.get(span.tag, 0.0) + self_s
        if span.name == "store.get" and span.run.endswith("/warm"):
            warm_gets += 1
            warm_hits += span.stats["hits"]
    values: dict[str, float] = {}
    for metric in METRICS:
        span_name, _, stat = metric.name.rpartition(".")
        agg = aggs.get(span_name, _Agg())
        if stat == "calls":
            values[metric.name] = agg.calls
        elif stat == "self_s":
            values[metric.name] = agg.self_s
        elif stat == "hit_ratio":
            values[metric.name] = agg.stats.get("hits", 0) / agg.calls if agg.calls else 0.0
        else:
            values[metric.name] = agg.stats.get(stat, 0)
    # Warm passes read a populated store: their hit ratio is the one
    # the warm_s metric depends on (cold passes miss by construction).
    if warm_gets:
        values["store.get.hit_ratio"] = warm_hits / warm_gets
    for check in CHECK_IDS:
        key = f"campaigns.check.{check.replace('/', '.')}.self_s"
        values[key] = checks.get(check, 0.0)
    values["exec.deepen.recompile_ratio"] = (
        recorder.compiled_rounds / recorder.final_rounds if recorder.final_rounds else 0.0
    )
    top = sum(span.end - span.start for span in spans if span.parent < 0)
    traced = sum(end - start for _run, start, end in recorder.phases)
    values["bench.unattributed_s"] = traced - top
    return values


def metric_units() -> dict[str, str]:
    return {metric.name: metric.unit for metric in METRICS}

