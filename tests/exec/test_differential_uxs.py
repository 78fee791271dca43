"""Differential fuzz: the UXS coverage kernel against the scalar walk.

Every seeded (graph, offset stream) instance must give the same answers
from :mod:`repro.exec.uxs` as from the scalar references in
:mod:`repro.core.uxs`: each start node's row of the all-starts walk
matrix equals :func:`~repro.core.uxs.apply_uxs` from that start, each
per-start coverage count equals the number of distinct nodes that walk
visits, and the certification verdict equals
:func:`~repro.core.uxs.is_uxs_for_graph_scalar`.
"""

import numpy as np

from harness import assert_engines_identical, uxs_corpus
from repro.core.uxs import apply_uxs, is_uxs_for_graph_scalar
from repro.exec.uxs import (
    apply_uxs_all,
    covered_counts,
    generate_offset_stream,
    is_uxs_for_graph_vectorized,
)
from repro.util.lcg import SplitMix64, splitmix64_block

CASE_SEEDS = list(range(200))


def uxs_case(case_seed: int) -> str | None:
    """One instance: walk rows, coverage counts and verdict vs scalar."""
    graph, stream = uxs_corpus(case_seed)
    walks = apply_uxs_all(graph, stream)
    counts = covered_counts(graph, stream)
    for u in range(graph.n):
        ref = apply_uxs(graph, u, stream)
        if list(walks[u]) != ref:
            return f"walk from {u} diverged from scalar apply_uxs"
        if counts[u] != len(set(ref)):
            return f"covered_counts[{u}] = {counts[u]}, scalar {len(set(ref))}"
    verdict = is_uxs_for_graph_vectorized(graph, stream)
    if verdict != is_uxs_for_graph_scalar(graph, stream):
        return f"verdict {verdict} diverged from scalar"
    return None


def test_corpus_size():
    """The acceptance bar: at least 200 fuzzed instances."""
    assert len(CASE_SEEDS) >= 200


def test_coverage_matches_scalar():
    assert_engines_identical(
        uxs_case, [(s,) for s in CASE_SEEDS], min_cases=200
    )


def test_certification_verdict_matches_scalar():
    """The boolean verdict agrees on covering and non-covering streams."""
    for case_seed in range(0, 40):
        graph, stream = uxs_corpus(case_seed)
        for prefix in (0, len(stream) // 4, len(stream)):
            new = is_uxs_for_graph_vectorized(graph, stream[:prefix])
            ref = is_uxs_for_graph_scalar(graph, stream[:prefix])
            assert new == ref, (case_seed, prefix)


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
