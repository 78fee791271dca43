"""Full-parameter sweeps of every experiment driver (slow).

Fast mode keeps CI snappy; these runs exercise the complete parameter
ranges that EXPERIMENTS.md is generated from, so a regression anywhere
in the wide workloads is caught by `pytest -m slow`.
"""

import pytest

from repro.experiments.orchestrator import run_experiment
from repro.experiments.scenarios import SCENARIO_MODULES

# EXP-L31 full mode runs ~1M-round horizons (minutes); exercised by the
# EXPERIMENTS.md regeneration rather than the test suite.
_FULL_SAFE = sorted(k for k in SCENARIO_MODULES if k != "EXP-L31")


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", _FULL_SAFE)
def test_driver_full_mode(exp_id):
    record = run_experiment(exp_id, tier="full").record
    assert record.passed, record.to_text()
    assert record.rows
