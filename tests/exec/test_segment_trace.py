"""Segment-plan compiles against the generator they replace.

In oracle mode :class:`repro.exec.trace.TraceCompiler` compiles
UniversalRV and its asymm-only variant from their segment plans: AsymmRV
segments are expanded in closed form, SymmRV segments are stepped.  The
generator path stays the reference.  It is reached by wrapping the
algorithm in a plain function, which carries no plan.  Every
:class:`~repro.exec.trace.PortTrace` field must agree: ``times`` and
``nodes`` (values and dtypes), ``valid_through``, ``complete``,
``error`` and ``tail_waits``.

The horizons straddle UniversalRV's first segment boundaries: its
first AsymmRV segment (assumed size 2) has a budget of 14116 rounds,
so the backtrack begins at clock 14116 and the segment ends at 28232.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.baselines.asymm_only as asymm_only_module
import repro.core.universal as universal_module
from harness import assert_engines_identical, graph_pool
from repro.baselines.asymm_only import make_asymm_only_algorithm
from repro.core.profile import TUNED, tuned_profile
from repro.core.universal import (
    AsymmSegment,
    SymmSegment,
    UniversalOracle,
    make_universal_algorithm,
)
from repro.exec.trace import TraceCompiler
from repro.experiments.e_infeasible import _CASES
from repro.experiments.scenarios import build_graph
from repro.graphs.port_graph import PortLabeledGraph
from repro.util.lcg import SplitMix64, derive_seed

HORIZONS = (0, 1, 7, 1024, 14116, 14117, 28231, 28232, 28233, 28500, 60000, 150000)
FACTORIES = {
    "universal": make_universal_algorithm,
    "asymm-only": make_asymm_only_algorithm,
}


def trace_mismatch(got, want) -> str | None:
    """The first PortTrace field on which ``got`` and ``want`` differ."""
    for field in ("times", "nodes"):
        a, b = getattr(got, field), getattr(want, field)
        if a.dtype != b.dtype or not np.array_equal(a, b):
            return f"{field}: {a.dtype}[{len(a)}] != {b.dtype}[{len(b)}]"
    for field in ("start", "valid_through", "complete", "tail_waits"):
        if getattr(got, field) != getattr(want, field):
            return f"{field}: {getattr(got, field)} != {getattr(want, field)}"
    errors = [
        None if t.error is None else (type(t.error), str(t.error))
        for t in (got, want)
    ]
    if errors[0] != errors[1]:
        return f"error: {errors[0]} != {errors[1]}"
    return None


def _compilers(graph, factory_name: str, profile=TUNED):
    """(plan path, generator path) compilers for one graph."""
    algorithm = FACTORIES[factory_name](profile)

    def generator(percept, oracle):
        return algorithm(percept, oracle)

    def oracles(start):
        return UniversalOracle(graph, start, profile)

    return (
        TraceCompiler(graph, algorithm, oracle_factory=oracles),
        TraceCompiler(graph, generator, oracle_factory=oracles),
    )


def compare_at(graph, factory_name: str, starts, horizon: int) -> str | None:
    """Fresh compiles of ``starts`` through ``horizon`` on both paths."""
    plan, reference = _compilers(graph, factory_name)
    got = plan.traces({s: horizon for s in starts})
    want = reference.traces({s: horizon for s in starts})
    for s in starts:
        detail = trace_mismatch(got[s], want[s])
        if detail is not None:
            return f"start {s} @ {horizon}: {detail}"
    return None


def l31_case(factory_name: str, case: str, horizon: int) -> str | None:
    _, spec, u, v = _CASES[case]
    return compare_at(build_graph(spec), factory_name, (u, v), horizon)


def pool_case(factory_name: str, graph_idx: int, horizon: int) -> str | None:
    graph = graph_pool()[graph_idx]
    return compare_at(graph, factory_name, range(graph.n), horizon)


def test_plan_matches_generator_on_every_l31_case():
    cases = [
        (name, case, horizon)
        for name in FACTORIES
        for case in _CASES
        for horizon in HORIZONS
    ]
    assert_engines_identical(l31_case, cases, min_cases=2 * 6 * len(HORIZONS))


def test_plan_matches_generator_on_the_graph_pool():
    rng = SplitMix64(derive_seed("segment-trace-horizons"))
    cases = [
        (name, idx, rng.randrange(40_000))
        for name in FACTORIES
        for idx in range(len(graph_pool()))
        for _ in range(2)
    ]
    assert_engines_identical(pool_case, cases, min_cases=4 * len(graph_pool()))


@pytest.mark.parametrize("factory_name", sorted(FACTORIES))
def test_deepened_plan_equals_one_shot_compile(factory_name):
    _, spec, u, v = _CASES["torus3"]
    graph = build_graph(spec)
    stepped, _ = _compilers(graph, factory_name)
    for horizon in (1024, 4096, 16_384, 65_536, 100_000):
        deepened = stepped.traces({u: horizon, v: horizon})
    direct, _ = _compilers(graph, factory_name)
    one_shot = direct.traces({u: 100_000, v: 100_000})
    for start in (u, v):
        assert trace_mismatch(deepened[start], one_shot[start]) is None


def test_cut_scripted_segment_resumes(monkeypatch):
    """A ladder whose horizons fall inside UniversalRV's first SymmRV
    segment (clocks 56466 to 56862) resumes its script where the last
    compile stopped: every segment script is instantiated once per
    start, and the traces equal a one-shot compile."""
    ladder = (1024, 56_500, 56_700, 100_000)
    started: list[tuple[str, int, int]] = []
    for cls in (AsymmSegment, SymmSegment):
        script = cls.script

        def counting(segment, percept, script=script):
            started.append((type(segment).__name__, percept.clock, segment.budget))
            return script(segment, percept)

        monkeypatch.setattr(cls, "script", counting)
    _, spec, u, v = _CASES["torus3"]
    graph = build_graph(spec)
    stepped, _ = _compilers(graph, "universal")
    for horizon in ladder:
        deepened = stepped.traces({u: horizon, v: horizon})
    symm = [(clock, budget) for name, clock, budget in started if name == "SymmSegment"]
    assert any(
        clock <= h and h + 1 < clock + 2 * budget
        for clock, budget in symm
        for h in ladder[:-1]
    )
    assert Counter(started) == {key: 2 for key in started}
    monkeypatch.undo()
    direct, _ = _compilers(graph, "universal")
    one_shot = direct.traces({u: ladder[-1], v: ladder[-1]})
    for start in (u, v):
        assert trace_mismatch(deepened[start], one_shot[start]) is None


def test_plan_path_never_runs_the_algorithm_generator(monkeypatch):
    calls = []
    for module, name in (
        (universal_module, "universal_rv"),
        (asymm_only_module, "asymm_only_rv"),
    ):
        script = getattr(module, name)

        def counting(*args, script=script, name=name):
            calls.append(name)
            return script(*args)

        monkeypatch.setattr(module, name, counting)
    _, spec, u, v = _CASES["cube3"]
    graph = build_graph(spec)
    for factory_name in sorted(FACTORIES):
        plan, reference = _compilers(graph, factory_name)
        for horizon in (1024, 30_000):
            plan.traces({u: horizon, v: horizon})
        assert calls == []
        reference.traces({u: 1024, v: 1024})
        assert len(calls) == 2
        calls.clear()


def test_faithful_profile_compiles_with_the_generator(monkeypatch):
    calls = []
    script = universal_module.universal_rv

    def counting(*args):
        calls.append(args)
        return script(*args)

    monkeypatch.setattr(universal_module, "universal_rv", counting)
    faithful = tuned_profile(view_mode="faithful", name="faithful-trace")
    algorithm = make_universal_algorithm(faithful)
    assert algorithm.segment_plan is None
    graph = build_graph(_CASES["two-node"][1])
    compiler = TraceCompiler(
        graph,
        algorithm,
        oracle_factory=lambda start: UniversalOracle(graph, start, faithful),
    )
    traces = compiler.traces({0: 3000, 1: 3000})
    assert len(calls) == 2
    assert all(trace.moves > 0 for trace in traces.values())


@pytest.mark.parametrize("factory_name", sorted(FACTORIES))
def test_invalid_first_move_reproduces_the_generator_error(factory_name):
    """A node of degree 0 cannot take the walk's first move, ``Move(0)``,
    at the end of the first label wait: both paths stop there."""
    graph = PortLabeledGraph(1, [])
    for horizon in (0, 3, 4, 5, 1000):
        assert compare_at(graph, factory_name, (0,), horizon) is None
    plan, _ = _compilers(graph, factory_name)
    trace = plan.trace(0, 1000)
    assert trace.error is not None and trace.moves == 0
    assert trace.valid_through == 4
