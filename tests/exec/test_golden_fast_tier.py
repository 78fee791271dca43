"""Golden fast-tier fixtures stay byte-for-byte identical across the
execution-core refactor.

The orchestrator suite already checks record *dict* equality for every
scenario; this suite pins the stronger acceptance bar for the experiments
whose engines were rewired over :mod:`repro.exec` — the synchronous
batch sweep (EXP-L32), the baseline family incl. leader election
(EXP-BASE/LE), the asynchronous adversary sweep (EXP-ASYNC/RAND), and
the infeasibility runs moved from the scalar scheduler onto the batch
engine (EXP-L31).  For each, the canonical-JSON serialization of a
fresh fast-tier run must equal the canonical-JSON serialization of the
pre-refactor golden fixture **as bytes**, so even ordering or float
formatting drift would fail.
"""

import json
import pathlib

import pytest

from repro.experiments.orchestrator import run_experiment
from repro.util.encoding import canonical_json

GOLDEN_DIR = pathlib.Path(__file__).parents[1] / "experiments" / "golden"

#: The rewired engines, with the experiment that exercises each.
REWIRED = {
    "EXP-L31": "UniversalRV on the batch engine, oracle mode (repro.sim.batch)",
    "EXP-L32": "sync batch sweep (repro.sim.batch)",
    "EXP-BASE/LE": "baselines + leader election (repro.hardness)",
    "EXP-ASYNC/RAND": "async adversary sweep (repro.sim.schedule_adversary)",
}


def _slug(exp_id: str) -> str:
    return exp_id.lower().replace("/", "_").replace("-", "_")


@pytest.mark.parametrize("exp_id", sorted(REWIRED))
def test_fast_tier_bytes_match_golden(exp_id):
    golden_path = GOLDEN_DIR / f"{_slug(exp_id)}.fast.json"
    golden_bytes = canonical_json(json.loads(golden_path.read_text())).encode()
    run = run_experiment(exp_id, tier="fast")
    fresh_bytes = canonical_json(run.record.to_json_dict()).encode()
    assert fresh_bytes == golden_bytes, (
        f"{exp_id} ({REWIRED[exp_id]}): fast-tier record bytes changed"
    )
