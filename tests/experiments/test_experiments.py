"""Smoke tests for the experiment drivers and the records layer.

Each driver must run in fast mode, pass its own verdict, and produce a
well-formed record.  (The heavy sweeps run from the benchmark harness;
these tests keep the reproduction pipeline itself green.)
"""

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
