"""Orchestration-layer tests: differential, determinism, caching.

The load-bearing guarantees of the PR-4 refactor:

* the sharded drivers reproduce the **pre-refactor serial drivers**
  bit-for-bit on the fast tier (golden fixtures captured from the
  old ``run(fast=True)`` code before the rewrite);
* ``--jobs N`` merges are byte-identical to serial merges;
* the content-addressed store turns warm re-runs into zero-recompute
  cache reads, invalidates on any (spec, seed, code-version) change,
  survives corrupt entries, and resumes interrupted runs;
* ``run_suite`` validates every requested id *before* executing any.
"""

import json
import pathlib

import pytest

from repro.experiments import e_fig1
from repro.experiments.orchestrator import (
    run_experiment,
    run_suite,
    shard_status,
    validate_experiment_ids,
)
from repro.experiments.runner import to_markdown
from repro.experiments.scenarios import (
    SCENARIO_MODULES,
    build_graph,
    get_scenario,
)
from repro.experiments.store import ResultStore, shard_key

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Cheap experiments used by the cache/parallel tests (smoke tier).
QUICK = ["FIG1", "TAB-SHRINK", "EXP-OPEN"]


def _slug(exp_id: str) -> str:
    return exp_id.lower().replace("/", "_").replace("-", "_")


@pytest.mark.parametrize(
    "exp_id",
    [
        pytest.param(k, marks=pytest.mark.slow if k == "EXP-L31" else ())
        for k in sorted(SCENARIO_MODULES)
    ],
)
def test_fast_tier_matches_pre_refactor_golden(exp_id):
    """Shard-merged records == the pre-refactor serial drivers (fast)."""
    golden = json.loads((GOLDEN_DIR / f"{_slug(exp_id)}.fast.json").read_text())
    run = run_experiment(exp_id, tier="fast")
    assert run.record.to_json_dict() == golden
    assert run.shards_computed == len(run.shards)  # no store attached


def test_parallel_merge_is_bit_identical_to_serial():
    """jobs=2 and jobs=1 produce byte-identical records and markdown."""
    serial = run_suite(QUICK, tier="smoke", jobs=1)
    parallel = run_suite(QUICK, tier="smoke", jobs=2)
    for s, p in zip(serial, parallel):
        assert s.record == p.record
    md = lambda runs: to_markdown(
        [(r.record, r.seconds) for r in runs], tier="smoke"
    )
    assert md(serial) == md(parallel)


def test_warm_cache_recomputes_zero_shards(tmp_path):
    store = ResultStore(tmp_path / "cache")
    cold = run_suite(QUICK, tier="smoke", store=store)
    assert all(r.shards_cached == 0 for r in cold)
    warm = run_suite(QUICK, tier="smoke", store=store)
    assert all(r.shards_computed == 0 for r in warm)
    for c, w in zip(cold, warm):
        assert c.record == w.record
    # And cache-off still agrees byte-for-byte.
    uncached = run_suite(QUICK, tier="smoke", store=None)
    for c, u in zip(cold, uncached):
        assert c.record == u.record


def test_interrupted_run_resumes_from_store(tmp_path):
    """Shards that already landed on disk are not recomputed."""
    store = ResultStore(tmp_path / "cache")
    run_experiment("FIG1", tier="smoke", store=store)
    runs = run_suite(["FIG1", "EXP-OPEN"], tier="smoke", store=store)
    assert runs[0].shards_computed == 0  # fully resumed
    assert runs[1].shards_cached == 0  # fresh work still executes
    rows = shard_status(
        ["FIG1", "EXP-OPEN"], tier="smoke", seed=None, store=store
    )
    assert rows == [("FIG1", 1, 1), ("EXP-OPEN", 3, 3)]


def test_cache_key_invalidation_axes():
    """The key covers spec params, tier, seed, shard, and code version."""
    spec = get_scenario("FIG1")
    config = spec.config("smoke")
    shard = {"h": 2}
    base = shard_key(config, shard, spec.code_version)
    assert shard_key(config, shard, spec.code_version) == base
    assert shard_key(config, {"h": 3}, spec.code_version) != base
    assert shard_key(config, shard, spec.code_version + 1) != base
    assert shard_key(spec.config("fast"), shard, spec.code_version) != base
    assert (
        shard_key(spec.config("smoke", seed=99), shard, spec.code_version)
        != base
    )


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    store = ResultStore(tmp_path / "cache")
    first = run_experiment("FIG1", tier="smoke", store=store)
    key = first.shards[0].key
    store.path_for(key).write_text("{not json")
    assert store.get(key) is None
    again = run_experiment("FIG1", tier="smoke", store=store)
    assert again.shards_computed == 1
    assert again.record == first.record
    assert store.get(key) is not None  # repaired in place


def test_corrupt_non_dict_entry_is_a_miss(tmp_path):
    """Valid-JSON-but-not-a-dict entries (`null`, lists) read as misses."""
    store = ResultStore(tmp_path / "cache")
    first = run_experiment("FIG1", tier="smoke", store=store)
    key = first.shards[0].key
    for garbage in ("null", "[]", '"x"', "3"):
        store.path_for(key).write_text(garbage)
        assert store.get(key) is None
    again = run_experiment("FIG1", tier="smoke", store=store)
    assert again.shards_computed == 1
    assert again.record == first.record


def test_seconds_attributed_per_experiment(tmp_path):
    """An experiment's seconds cover its own shards, not the suite's."""
    store = ResultStore(tmp_path / "cache")
    cold = run_suite(QUICK, tier="smoke", store=store)
    for run in cold:
        assert run.seconds == pytest.approx(
            sum(o.seconds for o in run.shards), abs=0.05
        )
        assert all(o.seconds > 0 for o in run.shards)
    warm = run_suite(QUICK, tier="smoke", store=store)
    for run in warm:
        assert all(o.seconds == 0.0 for o in run.shards)  # cache hits


def test_store_survives_mismatched_entry(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put("ab" + "0" * 62, {"ok": True})
    assert store.get("ab" + "0" * 62) == {"ok": True}
    # An entry whose body does not match its address is ignored.
    store.path_for("cd" + "0" * 62).parent.mkdir(parents=True, exist_ok=True)
    store.path_for("cd" + "0" * 62).write_text(
        json.dumps({"key": "wrong", "data": {}})
    )
    assert store.get("cd" + "0" * 62) is None
    assert ("ab" + "0" * 62) in store
    assert ("cd" + "0" * 62) not in store


def test_unknown_ids_rejected_before_any_execution(monkeypatch):
    """Regression: a typo'd id must fail up front, not after earlier
    experiments already burned their minutes."""

    def boom(config, shard):
        raise AssertionError("shard executed before validation finished")

    monkeypatch.setattr(e_fig1, "run_shard", boom)
    with pytest.raises(KeyError, match="NOPE"):
        run_suite(["FIG1", "NOPE"])
    with pytest.raises(KeyError, match="NOPE"):
        run_suite(["FIG1", "NOPE"], tier="smoke")


def test_validate_experiment_ids_lists_all_unknown():
    with pytest.raises(KeyError, match="'NOPE'.*'ALSO-NOPE'|'ALSO-NOPE'.*'NOPE'"):
        validate_experiment_ids(["NOPE", "FIG1", "ALSO-NOPE"])
    assert validate_experiment_ids(None) == list(SCENARIO_MODULES)


def test_seed_threads_through_shards():
    """The orchestrator seed reroots every derived stream."""
    a = run_experiment("EXP-ASYNC/RAND", tier="smoke", seed=123).record
    b = run_experiment("EXP-ASYNC/RAND", tier="smoke", seed=123).record
    c = run_experiment("EXP-ASYNC/RAND", tier="smoke", seed=321).record
    assert a == b
    assert a.passed and c.passed
    assert a != c


def test_every_scenario_declares_all_tiers():
    for exp_id in SCENARIO_MODULES:
        spec = get_scenario(exp_id)
        assert set(spec.tiers) == {"smoke", "fast", "full", "stress"}, exp_id
        for tier in spec.tiers:
            shards = spec.driver().make_shards(spec.config(tier))
            assert shards, (exp_id, tier)
            # Shard payloads must be content-addressable (plain JSON).
            for shard in shards:
                assert json.loads(json.dumps(shard)) == shard


def test_positive_stic_cases_feasible_at_every_tier():
    """Drivers asserting rendezvous must only list feasible STICs —
    at *every* tier, including the ones the test suite never runs."""
    from repro.symmetry.feasibility import classify_stic

    for exp_id in ("EXP-T31/P41", "EXP-BASE/LE"):
        spec = get_scenario(exp_id)
        for tier, params in spec.tiers.items():
            for name, graph_spec, u, v, delta in params["cases"]:
                verdict = classify_stic(build_graph(graph_spec), u, v, delta)
                assert verdict.feasible, (exp_id, tier, name)


def test_build_graph_specs():
    g = build_graph({"family": "oriented_torus", "rows": 3, "cols": 3})
    assert g.n == 9
    with pytest.raises(KeyError, match="unknown graph family"):
        build_graph({"family": "klein_bottle", "n": 4})
