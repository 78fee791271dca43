"""Differential fuzz: the unified UXS coverage kernel against the
frozen pre-refactor engine (and the retained scalar walk).

Every seeded (graph, offset stream) instance must produce bit-identical
arrays — the all-starts walk matrix, the per-start coverage counts,
and the certification verdict — between :mod:`repro.exec.uxs` and
the pre-refactor kernels preserved in ``benchmarks/_legacy_engines.py``, as well as the scalar
:func:`repro.core.uxs.apply_uxs` walk.
"""

import numpy as np

from harness import assert_engines_identical, load_legacy, uxs_corpus
from repro.core.uxs import apply_uxs
from repro.exec.uxs import (
    apply_uxs_all,
    covered_counts,
    generate_offset_stream,
    is_uxs_for_graph_vectorized,
)
from repro.util.lcg import SplitMix64, splitmix64_block

CASE_SEEDS = list(range(200))


def uxs_case(case_seed: int) -> str | None:
    """One instance: all-starts walk + coverage, new vs legacy vs scalar."""
    graph, stream = uxs_corpus(case_seed)
    legacy = load_legacy()
    new_walk = apply_uxs_all(graph, stream)
    old_walk = legacy.legacy_apply_uxs_all(graph, stream)
    if not np.array_equal(new_walk, old_walk):
        return "apply_uxs_all diverged from legacy"
    new_counts = covered_counts(graph, stream)
    old_counts = legacy.legacy_covered_counts(graph, stream)
    if not np.array_equal(new_counts, old_counts):
        return f"covered_counts diverged: {new_counts} vs {old_counts}"
    # Scalar cross-check on a couple of start nodes.
    for u in (0, graph.n - 1):
        if list(new_walk[u]) != list(apply_uxs(graph, u, stream)):
            return f"walk from {u} diverged from scalar apply_uxs"
    return None


def test_corpus_size():
    """The acceptance bar: at least 200 fuzzed instances."""
    assert len(CASE_SEEDS) >= 200


def test_coverage_matches_legacy_and_scalar():
    assert_engines_identical(
        uxs_case, [(s,) for s in CASE_SEEDS], min_cases=200
    )


def test_certification_verdict_matches_legacy():
    """The boolean verdict agrees on covering and non-covering streams."""
    legacy = load_legacy()
    for case_seed in range(0, 40):
        graph, stream = uxs_corpus(case_seed)
        for prefix in (0, len(stream) // 4, len(stream)):
            new = is_uxs_for_graph_vectorized(graph, stream[:prefix])
            old = bool(
                (
                    legacy.legacy_covered_counts(graph, stream[:prefix])
                    == graph.n
                ).all()
            )
            assert new == old, (case_seed, prefix)


def test_stream_generation_is_scalar_exact():
    """Vectorized SplitMix64 streams equal the scalar generator draw
    for draw, including rejection sampling."""
    for seed, bound, length in ((1, 7, 257), (99, 12, 64), (5, 1, 16)):
        vec = generate_offset_stream(seed, bound, length)
        rng = SplitMix64(seed)
        ref = [rng.randrange(bound) for _ in range(length)]
        assert list(vec) == ref, (seed, bound)


def test_splitmix_block_windows_agree():
    """Block evaluation is position-exact across window boundaries."""
    whole = splitmix64_block(123, 0, 300)
    parts = np.concatenate(
        [splitmix64_block(123, s, 60) for s in range(0, 300, 60)]
    )
    assert np.array_equal(whole, parts)
