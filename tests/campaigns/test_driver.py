"""Campaign driver unit tests: grid expansion, seed threading, spec
resolution, and record merging."""

import pytest

from repro.campaigns.driver import (
    cell_seed,
    make_shards,
    merge,
    resolve_graph_spec,
    run_shard,
)
from repro.experiments.scenarios import RunConfig


def _config(**overrides):
    params = {
        "families": [
            {"family": "oriented_ring", "rungs": [{"n": 5}, {"n": 8}]},
            {"family": "random_tree", "rungs": [{"n": 6}]},
        ],
        "checks": ["differential/symmetry-kernel", "metamorphic/port-relabel"],
        "seeds_per_cell": 2,
        "knobs": {},
    }
    params.update(overrides)
    return RunConfig(exp_id="CAMPAIGN/t", tier="smoke", seed=0, params=params)


class TestMakeShards:
    def test_grid_order_and_shape(self):
        shards = make_shards(_config())
        # (2 + 1 rungs) x 2 checks, family-major, rung-minor, check-last.
        assert len(shards) == 6
        assert shards[0] == {
            "family": "oriented_ring",
            "rung_index": 0,
            "rung": {"n": 5},
            "check": "differential/symmetry-kernel",
        }
        assert [s["family"] for s in shards] == ["oriented_ring"] * 4 + [
            "random_tree"
        ] * 2

    def test_unknown_family_rejected_up_front(self):
        with pytest.raises(KeyError, match="unknown graph family"):
            make_shards(
                _config(families=[{"family": "klein_bottle", "rungs": [{}]}])
            )

    def test_unknown_check_rejected_up_front(self):
        with pytest.raises(KeyError, match="unknown check"):
            make_shards(_config(checks=["differential/nope"]))


class TestSpecResolution:
    def test_seeded_family_gets_injected_seed(self):
        seed = cell_seed("CAMPAIGN/t", "random_tree", {"n": 6}, 0, 1)
        spec = resolve_graph_spec("random_tree", {"n": 6}, seed)
        assert spec == {"family": "random_tree", "n": 6, "seed": seed}

    def test_structured_family_untouched(self):
        spec = resolve_graph_spec("oriented_ring", {"n": 5}, 12345)
        assert spec == {"family": "oriented_ring", "n": 5}

    def test_rung_must_not_pin_seed(self):
        with pytest.raises(ValueError, match="must not pin 'seed'"):
            resolve_graph_spec("random_tree", {"n": 6, "seed": 1}, 2)

    def test_cell_seeds_differ_across_axes(self):
        base = cell_seed("CAMPAIGN/t", "random_tree", {"n": 6}, 0, 0)
        assert base != cell_seed("CAMPAIGN/u", "random_tree", {"n": 6}, 0, 0)
        assert base != cell_seed("CAMPAIGN/t", "random_tree", {"n": 7}, 0, 0)
        assert base != cell_seed("CAMPAIGN/t", "random_tree", {"n": 6}, 1, 0)
        assert base != cell_seed("CAMPAIGN/t", "random_tree", {"n": 6}, 0, 1)


class TestRunShardAndMerge:
    def test_healthy_shard_payload(self):
        config = _config()
        shard = make_shards(config)[0]
        result = run_shard(config, shard)
        assert result["ok"] is True
        assert result["instances"] == 2
        assert result["comparisons"] > 0
        assert result["failures"] == []

    def test_merge_aggregates_and_passes(self):
        config = _config()
        shards = make_shards(config)
        results = [run_shard(config, shard) for shard in shards]
        record = merge(config, results)
        assert record.passed is True
        assert record.exp_id == "CAMPAIGN/t"
        assert len(record.rows) == len(shards)
        assert all(row["verdict"] == "ok" for row in record.rows)
        assert "differential" in record.notes and "metamorphic" in record.notes

    def test_merge_flags_failures(self):
        config = _config()
        shards = make_shards(config)
        results = [run_shard(config, shard) for shard in shards]
        results[0] = dict(
            results[0], ok=False, failures=[{"check": results[0]["check"]}]
        )
        record = merge(config, results)
        assert record.passed is False
        assert record.rows[0]["verdict"] == "FAIL"


def test_core_fast_tier_builds_each_graph_once(monkeypatch):
    """One core fast-tier pass asks ``build_graph`` for the same few
    dozen specs hundreds of times; each family builder runs once per
    distinct spec."""
    import dataclasses
    from collections import Counter, OrderedDict

    from repro.campaigns.registry import get_campaign
    from repro.experiments import scenarios
    from repro.experiments.orchestrator import run_suite
    from repro.util.encoding import canonical_json

    built: Counter = Counter()

    def counting(name, build):
        def wrapper(**kwargs):
            built[canonical_json({"family": name, **kwargs})] += 1
            return build(**kwargs)

        return wrapper

    families = {
        name: dataclasses.replace(entry, build=counting(name, entry.build))
        for name, entry in scenarios.GRAPH_FAMILIES.items()
    }
    monkeypatch.setattr(scenarios, "GRAPH_FAMILIES", families)
    monkeypatch.setattr(scenarios, "_GRAPH_CACHE", OrderedDict())
    (run,) = run_suite([get_campaign("core")], tier="fast", seed=0, jobs=1, store=None)
    assert run.record.passed
    assert len(built) >= 20
    assert set(built.values()) == {1}
