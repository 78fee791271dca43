"""Seed-derivation axis separation: the campaign grid must not collide.

Every campaign cell derives its instance seed from
``(label, campaign, family, rung-json, config seed, index)`` through
:func:`repro.util.lcg.derive_seed`.  A collision between two cells
would silently run the same instance twice and skip another entirely,
so this suite pins the separation three ways: the full smoke-tier
grids of every shipped campaign produce pairwise-distinct seeds, a
hypothesis property checks distinct tuples map to distinct seeds, and
the module's doctests pin the exact constants (they are part of the
replay-artifact contract).
"""

import doctest

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.util.lcg
from repro.campaigns.driver import cell_seed, make_shards
from repro.campaigns.registry import CAMPAIGNS
from repro.util.encoding import canonical_json
from repro.util.lcg import derive_seed


def test_lcg_doctests_pin_known_values():
    results = doctest.testmod(repro.util.lcg)
    assert results.failed == 0
    assert results.attempted >= 4  # SplitMix64 + the derive_seed pins


def test_campaign_smoke_grid_seeds_are_distinct():
    """Every (campaign, family, rung, seed-index) cell of every
    smoke-tier grid gets its own stream — including across campaigns
    that share families and rungs."""
    seeds = {}
    for spec in CAMPAIGNS.values():
        config = spec.config("smoke")
        for shard in make_shards(config):
            for index in range(config.params["seeds_per_cell"]):
                axes = (
                    spec.exp_id,
                    shard["family"],
                    canonical_json(shard["rung"]),
                    index,
                )
                seed = cell_seed(
                    spec.exp_id,
                    shard["family"],
                    shard["rung"],
                    config.seed,
                    index,
                )
                if axes in seeds:
                    # Same cell axes (the check axis deliberately does
                    # not enter the seed: every check of one cell sees
                    # the same instance) must agree...
                    assert seeds[axes] == seed
                else:
                    # ...while distinct axes must not collide.
                    assert seed not in set(seeds.values()), axes
                    seeds[axes] = seed
    assert len(set(seeds.values())) == len(seeds)
    assert len(seeds) >= 24  # the smoke grids are genuinely wide


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["campaign-cell", "check", "agent"]),
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz_/0123456789",
                min_size=1,
                max_size=12,
            ),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=2,
        max_size=32,
        unique=True,
    )
)
def test_distinct_tuples_yield_distinct_seeds(tuples):
    seeds = [derive_seed(*parts) for parts in tuples]
    assert len(set(seeds)) == len(seeds)
