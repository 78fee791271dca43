"""Experiment drivers regenerating every artifact of the paper.

Each driver module declares a
:class:`~repro.experiments.scenarios.ScenarioSpec` (its ``SCENARIO``)
with named scale tiers and implements the sharded protocol
``make_shards`` / ``run_shard`` / ``merge`` consumed by
:mod:`repro.experiments.orchestrator`.  ``run_suite`` (or
``run_experiment(exp_id, tier=...)`` for one id) is the only way to
execute one.  The registry lives in
:mod:`repro.experiments.scenarios`; the CLI in
:mod:`repro.experiments.runner`.  See docs/orchestration.md for the
per-experiment index and the sharding/caching model.
"""

from repro.experiments.records import ExperimentRecord, render_table

__all__ = ["ExperimentRecord", "render_table"]
