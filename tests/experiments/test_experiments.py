"""Smoke tests for the experiment drivers and the records layer.

Each driver must run in fast mode, pass its own verdict, and produce a
well-formed record.  (The heavy sweeps run from the benchmark harness;
these tests keep the reproduction pipeline itself green.)
"""

import importlib

import pytest

from repro.experiments.orchestrator import run_experiment, run_suite
from repro.experiments.records import ExperimentRecord, render_table
from repro.experiments.runner import to_markdown
from repro.experiments.scenarios import SCENARIO_MODULES


class TestRecords:
    def test_render_table(self):
        text = render_table(["a", "b"], [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.1}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "2.50" in text

    def test_markdown_shape(self):
        rec = ExperimentRecord(
            exp_id="X",
            title="t",
            paper_claim="c",
            columns=["x"],
            measured_summary="m",
            passed=True,
        )
        rec.add_row(x=1)
        md = rec.to_markdown()
        assert md.startswith("### X: t")
        assert "| x |" in md and "| 1 |" in md

    def test_text_shape(self):
        rec = ExperimentRecord("X", "t", "c", ["x"], measured_summary="m")
        assert "MISMATCH" in rec.to_text()
        rec.passed = True
        assert "REPRODUCED" in rec.to_text()


@pytest.mark.parametrize(
    "module", sorted(SCENARIO_MODULES.values()) + ["repro.campaigns.driver"]
)
def test_driver_star_import_resolves_all(module):
    """Every name a driver exports in ``__all__`` exists, so a star
    import of the driver succeeds and binds all of them."""
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert set(exported) <= namespace.keys()


@pytest.mark.parametrize(
    "exp_id", sorted(k for k in SCENARIO_MODULES if k != "EXP-L31")
)
def test_driver_fast_mode(exp_id):
    record = run_experiment(exp_id, tier="fast").record
    assert record.passed, record.to_text()
    assert record.rows, "driver produced no table rows"
    assert record.measured_summary


@pytest.mark.slow
def test_infeasible_driver_fast_mode():
    record = run_experiment("EXP-L31", tier="fast").record
    assert record.passed, record.to_text()


def test_oblivious_battery_checks_the_final_configuration():
    """On the 3-node path the agent at endpoint 0 must step to node 1,
    where the delayed agent still waits: the first meeting is at time
    ``rounds = 1``, after the last move, and must count."""
    from repro.experiments.e_infeasible import _oblivious_battery
    from repro.graphs import path_graph

    graph = path_graph(3)
    assert _oblivious_battery(graph, 0, 1, [1], rounds=1, seeds=[0]) == [True]
    assert _oblivious_battery(graph, 0, 1, [1], rounds=0, seeds=[0]) == [False]


def _word_meets(succ, degrees, u, v, delta, word) -> bool:
    """The per-delay scalar walk: both agents play ``word``, the second
    from ``delta`` rounds on."""
    pos_a, pos_b = u, v
    for t, port in enumerate(word):
        if t >= delta:
            if pos_a == pos_b:
                return True
            pos_b = succ[pos_b][word[t - delta] % degrees[pos_b]]
        pos_a = succ[pos_a][port % degrees[pos_a]]
    return len(word) >= delta and pos_a == pos_b


@pytest.mark.parametrize("family", ["ring6", "path5", "star4", "random7"])
def test_oblivious_battery_matches_per_delay_walks(family):
    """Walk-once-and-shift against re-walking both agents per delay,
    for every start pair and delays up to past the word's end."""
    from repro.exec.uxs import generate_offset_stream
    from repro.experiments.e_infeasible import _oblivious_battery
    from repro.graphs import oriented_ring, path_graph, star_graph
    from repro.graphs.random_graphs import random_connected_graph
    from repro.util.lcg import derive_seed

    graph = {
        "ring6": lambda: oriented_ring(6),
        "path5": lambda: path_graph(5),
        "star4": lambda: star_graph(4),
        "random7": lambda: random_connected_graph(7, 3, seed=2),
    }[family]()
    succ = graph.succ_node_array.tolist()
    degrees = graph.degrees.tolist()
    rounds, seeds, deltas = 30, range(3), range(34)
    words = [
        generate_offset_stream(
            derive_seed("infeasible-battery", s), 64, rounds
        ).tolist()
        for s in seeds
    ]
    met = 0
    for u in range(graph.n):
        for v in range(graph.n):
            got = _oblivious_battery(graph, u, v, deltas, rounds, seeds)
            want = [
                any(_word_meets(succ, degrees, u, v, d, w) for w in words)
                for d in deltas
            ]
            assert got == want, (u, v)
            met += sum(got)
    assert 0 < met < graph.n**2 * len(deltas)


def test_runner_selection_and_markdown():
    runs = run_suite(["FIG1", "TAB-SHRINK"], tier="fast")
    assert len(runs) == 2
    md = to_markdown([(run.record, run.seconds) for run in runs])
    assert "### FIG1" in md and "### TAB-SHRINK" in md


def test_runner_rejects_unknown():
    with pytest.raises(KeyError):
        run_suite(["NOPE"])


def test_json_record_shape():
    rec = ExperimentRecord("X", "t", "c", ["x"], measured_summary="m", passed=True)
    rec.add_row(x=3)
    payload = rec.to_json_dict()
    assert payload["exp_id"] == "X" and payload["rows"] == [{"x": 3}]


def test_cli_write_md_and_json(tmp_path):
    from repro.experiments.runner import main

    md = tmp_path / "out.md"
    js = tmp_path / "out.json"
    code = main(
        [
            "FIG1",
            "--cache-dir", str(tmp_path / "cache"),
            "--write-md", str(md),
            "--write-json", str(js),
        ]
    )
    assert code == 0
    assert md.read_text().startswith("# EXPERIMENTS")
    import json

    payload = json.loads(js.read_text())
    assert payload[0]["exp_id"] == "FIG1" and payload[0]["passed"]
