"""Shard keys are the SHA-256 of the full canonical payload.

``shard_key`` splices the per-shard fields after a plan-wide prefix
encoded once per :class:`RunConfig`; these tests pin that the spliced
text is exactly ``canonical_json`` of the whole payload, so every key
(and therefore every existing store entry) is unchanged.
"""

import hashlib

import pytest

from repro.campaigns.registry import CAMPAIGNS
from repro.experiments.orchestrator import plan_shards
from repro.experiments.scenarios import TIERS, RunConfig, all_scenarios
from repro.experiments.store import STORE_VERSION, shard_key
from repro.util.encoding import canonical_json

SPECS = [*all_scenarios().values(), *CAMPAIGNS.values()]


def _reference_key(config: RunConfig, shard: dict, code_version: int) -> str:
    payload = {
        "exp_id": config.exp_id,
        "tier": config.tier,
        "seed": config.seed,
        "params": config.params,
        "shard": shard,
        "salt": f"{STORE_VERSION}:{code_version}",
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.exp_id)
def test_every_planned_key_hashes_the_full_payload(spec):
    checked = 0
    for tier in TIERS:
        if tier not in spec.tiers:
            continue
        for seed in (None, 1, 7):
            config = spec.config(tier, seed=seed)
            for shard in plan_shards(spec, config):
                assert shard_key(config, shard, spec.code_version) == (
                    _reference_key(config, shard, spec.code_version)
                )
                checked += 1
    assert checked


def test_no_stale_prefix_across_configs():
    shard = {"cell": 0}
    first = RunConfig(exp_id="X", tier="smoke", seed=0, params={"n": 1})
    first_key = shard_key(first, shard, 1)
    for params in ({"n": 2}, {"n": 1, "m": 0}, {}):
        other = RunConfig(exp_id="X", tier="smoke", seed=0, params=params)
        key = shard_key(other, shard, 1)
        assert key == _reference_key(other, shard, 1)
        assert key != first_key
    renamed = RunConfig(exp_id="Y", tier="smoke", seed=0, params={"n": 1})
    assert shard_key(renamed, shard, 1) == _reference_key(renamed, shard, 1)
    # The first config's cached prefix still yields its own key.
    assert shard_key(first, shard, 1) == first_key == _reference_key(first, shard, 1)


@pytest.mark.parametrize(
    "seed, tier, shard",
    [
        (None, "fast", {}),
        (-3, "smoke", {"graph": {"family": "ring", "n": 5}, "ks": [1, 2]}),
        (2**70, "full", {"label": "café", "nested": {"b": 1, "a": [0.5]}}),
    ],
)
def test_spliced_fields_encode_like_the_payload(seed, tier, shard):
    config = RunConfig(
        exp_id="Eé", tier=tier, seed=seed, params={"z": [1], "a": {"y": None}}
    )
    assert shard_key(config, shard, 7) == _reference_key(config, shard, 7)
