"""Golden-output rendering and JSON round-trip tests for records.

``ExperimentRecord`` is the lingua franca of the orchestration layer:
drivers emit it, the runner renders it, and the content-addressed
store persists record/shard payloads as JSON.  These tests pin the
rendered output byte-for-byte and prove the JSON round trip is
lossless — the same round trip the store relies on for shard
serialization.
"""

from repro.experiments.records import ExperimentRecord, render_table
from repro.experiments.store import ResultStore
from repro.util.encoding import json_roundtrip


def _sample_record() -> ExperimentRecord:
    record = ExperimentRecord(
        exp_id="EXP-X",
        title="A worked example",
        paper_claim="the claim",
        columns=["case", "time", "ok"],
        measured_summary="both cases in budget",
        passed=True,
        notes="tuned profile",
        art="o--o",
    )
    record.add_row(case="ring", time=12, ok=True)
    record.add_row(case="torus", time=3.14159, ok=False)
    return record


GOLDEN_TEXT = (
    "== EXP-X: A worked example ==\n"
    "paper:    the claim\n"
    "measured: both cases in budget\n"
    "verdict:  REPRODUCED\n"
    "notes:    tuned profile\n"
    "case   time  ok   \n"  # headers are left-justified and padded
    "-----  ----  -----\n"
    " ring    12   True\n"
    "torus  3.14  False\n"
    "\n"
    "o--o"
)

GOLDEN_MARKDOWN = """\
### EXP-X: A worked example

**Paper claim.** the claim

**Measured.** both cases in budget

**Verdict.** reproduced — tuned profile

| case | time | ok |
|---|---|---|
| ring | 12 | True |
| torus | 3.14 | False |

```text
o--o
```
"""


def test_to_text_golden():
    assert _sample_record().to_text() == GOLDEN_TEXT


def test_to_markdown_golden():
    assert _sample_record().to_markdown() == GOLDEN_MARKDOWN


def test_render_table_golden():
    table = render_table(
        ["n", "label"], [{"n": 7, "label": "x"}, {"n": 10000, "label": "yy"}]
    )
    assert table == (
        "n      label\n"
        "-----  -----\n"
        "    7      x\n"
        "10000     yy"
    )


def test_render_table_missing_cells_blank():
    table = render_table(["a", "b"], [{"a": 1}])
    assert table.splitlines()[-1].split() == ["1"]


def test_json_round_trip_is_lossless():
    record = _sample_record()
    rebuilt = ExperimentRecord.from_json_dict(record.to_json_dict())
    assert rebuilt == record
    # ... including through actual JSON text, which is what the store
    # writes to disk (floats survive via repr round-tripping).
    rebuilt = ExperimentRecord.from_json_dict(
        json_roundtrip(record.to_json_dict())
    )
    assert rebuilt == record
    assert rebuilt.to_markdown() == GOLDEN_MARKDOWN


def test_store_reuses_record_serialization(tmp_path):
    """A record archived as a store payload renders identically."""
    store = ResultStore(tmp_path)
    record = _sample_record()
    key = "ee" + "0" * 62
    store.put(key, record.to_json_dict(), meta={"kind": "record"})
    rebuilt = ExperimentRecord.from_json_dict(store.get(key))
    assert rebuilt == record
    assert rebuilt.to_text() == GOLDEN_TEXT
