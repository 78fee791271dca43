"""Tests for the Theorem 4.1 machinery: Z, words, simulations, bound."""

import pytest

import repro.hardness.lower_bound as lower_bound_module
from repro.hardness import (
    STAY,
    build_qhat,
    build_qtree,
    dedicated_word,
    midpoint_dichotomy,
    opposite,
    simulate_word,
    simulate_word_symbolic,
    theoretical_bound,
    worst_case_meeting_time,
    z_paths,
    z_set,
)
from repro.hardness.lower_bound import _z_meeting_times
from repro.hardness.qtree import E, N, S, W
from repro.util.lcg import SplitMix64, derive_seed


class TestZSet:
    def test_size_and_depth(self):
        tree = build_qtree(4)
        members = z_set(tree, 2)
        assert len(members) == 4
        assert all(tree.depth[m.node] == 4 for m in members)

    def test_midpoints_distinct_at_depth_k(self):
        tree = build_qtree(4)
        members = z_set(tree, 2)
        mids = {m.midpoint for m in members}
        assert len(mids) == 4
        assert all(tree.depth[m.midpoint] == 2 for m in members)

    def test_gamma_defines_node(self):
        tree = build_qtree(4)
        for m in z_set(tree, 2):
            assert tree.follow(tree.root, m.path_from_root) == m.node

    def test_z_paths_lex(self):
        paths = z_paths(2)
        assert len(paths) == 4
        assert paths[0] == (N, N, N, N)
        assert paths[-1] == (E, E, E, E)

    def test_validation(self):
        with pytest.raises(ValueError):
            z_paths(0)
        with pytest.raises(ValueError):
            z_set(build_qtree(2), 2)  # h < 2k


class TestDedicatedWord:
    def test_block_structure(self):
        k = 2
        word = dedicated_word(k)
        assert len(word) == (2**k) * 8 * k // 2  # 2^k blocks of 4k letters
        # first block: NNNN then its reversal SSSS
        assert word[: 4 * k] == (N, N, N, N, S, S, S, S)

    def test_meets_all_z_members(self):
        k = 2
        word = dedicated_word(k)
        for path in z_paths(k):
            out = simulate_word_symbolic(
                4 * k, word, (), path, 2 * k, 10 * len(word)
            )
            assert out.met

    def test_meeting_time_formula(self):
        # Meeting for the m-th gamma happens at global round 4k*m + 2k.
        k = 2
        word = dedicated_word(k)
        for m, path in enumerate(z_paths(k)):
            out = simulate_word_symbolic(4 * k, word, (), path, 2 * k, 10**4)
            assert out.meeting_time == 4 * k * m + 2 * k


class TestSimulations:
    def test_concrete_matches_symbolic(self):
        k = 1
        graph, tree = build_qhat(4 * k)
        word = dedicated_word(k)
        for member in z_set(tree, k):
            concrete = simulate_word(
                graph, word, tree.root, member.node, 2 * k, 10**4
            )
            symbolic = simulate_word_symbolic(
                4 * k, word, (), member.path_from_root, 2 * k, 10**4
            )
            assert concrete.met == symbolic.met
            assert concrete.meeting_time == symbolic.meeting_time

    def test_stay_letters(self):
        out = simulate_word_symbolic(4, (STAY, STAY, N, S), (), (N, N), 2, 100)
        # agent A stays twice, then N (depth 1), S (back); B mirrors later
        assert out.visited_a[0] == () and out.visited_a[1] == ()

    def test_leaf_escape_detected(self):
        # A word that pushes beyond depth h must raise, not silently
        # wrap: the symbolic simulator only covers tree-confined runs.
        with pytest.raises(ValueError, match="leaf"):
            simulate_word_symbolic(2, (N, N, N), (), (N,), 0, 3)

    def test_identical_positions_meet_immediately(self):
        out = simulate_word_symbolic(4, (N,), (), (), 0, 10)
        assert out.met and out.meeting_time == 0


class TestBound:
    def test_formula(self):
        assert theoretical_bound(1) == 1
        assert theoretical_bound(5) == 16

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_measured_dominates_bound(self, k):
        assert worst_case_meeting_time(k) >= theoretical_bound(k)

    def test_exponential_growth(self):
        times = [worst_case_meeting_time(k) for k in (2, 3, 4, 5, 6)]
        ratios = [b / a for a, b in zip(times, times[1:])]
        # ~2x per k (the Theta(k 2^k) curve), comfortably >= 1.8
        assert all(r >= 1.8 for r in ratios), ratios


class TestDichotomy:
    def test_holds_on_all_small_runs(self):
        for k in (1, 2):
            graph, tree = build_qhat(4 * k)
            word = dedicated_word(k)
            for member in z_set(tree, k):
                out = simulate_word(
                    graph, word, tree.root, member.node, 2 * k, 10**5
                )
                a_mid, b_mid = midpoint_dichotomy(tree, member, out)
                assert a_mid or b_mid

    def test_requires_successful_run(self):
        tree = build_qtree(4)
        member = z_set(tree, 2)[0]
        graph, _ = build_qhat(4)
        failed = simulate_word(graph, (N, S), tree.root, member.node, 4, 6)
        assert not failed.met
        with pytest.raises(ValueError):
            midpoint_dichotomy(tree, member, failed)


def scalar_meeting_time(k, word, path):
    """The oracle: one symbolic walk of the STIC ``[(r, path), 2k]``."""
    horizon = len(word) + 10 * k
    out = simulate_word_symbolic(4 * k, word, (), path, 2 * k, horizon)
    return out.time_from_later


def scalar_worst_case(k, word):
    """The per-``v`` loop ``worst_case_meeting_time`` replaced."""
    worst = 0
    for path in z_paths(k):
        time = scalar_meeting_time(k, word, path)
        if time is None:
            raise AssertionError(f"dedicated word failed to meet for v={path}")
        worst = max(worst, time)
    return worst


def outcome(fn):
    try:
        return fn()
    except (AssertionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def no_scalar_walks(monkeypatch):
    """Fails any symbolic walk: the free-group pass must serve alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("scalar walk taken")

    monkeypatch.setattr(lower_bound_module, "simulate_word_symbolic", refuse)


class TestFreeGroupPass:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_every_v_matches_symbolic_walk(self, k, monkeypatch, no_scalar_walks):
        times = list(_z_meeting_times(k))
        monkeypatch.undo()
        word = dedicated_word(k)
        assert times == [scalar_meeting_time(k, word, p) for p in z_paths(k)]

    @pytest.mark.parametrize("k", [8, 9])
    def test_seeded_sample_matches_symbolic_walk(self, k, monkeypatch, no_scalar_walks):
        times = list(_z_meeting_times(k))
        monkeypatch.undo()
        word = dedicated_word(k)
        paths = z_paths(k)
        rng = SplitMix64(derive_seed("t41-free-group-sample", k))
        for index in sorted({rng.randrange(len(paths)) for _ in range(6)}):
            assert times[index] == scalar_meeting_time(k, word, paths[index])
        assert max(times) == {8: 8160, 9: 18396}[k]

    def test_word_leaving_q_h_raises_the_scalar_error(self):
        # v = NNNN meets at once; for v = NENE agent a climbs N past the
        # leaves (h = 8) before any meeting.
        word = (N,) * 20
        got = outcome(lambda: worst_case_meeting_time(2, word=word))
        assert got == outcome(lambda: scalar_worst_case(2, word))
        assert got[0] == "ValueError" and "leave Q_h" in got[1]
        with pytest.raises(ValueError, match="leave Q_h"):
            list(_z_meeting_times(2, word=word))

    def test_word_that_never_meets_names_the_first_v(self, no_scalar_walks):
        word = (STAY, N, S)
        got = outcome(lambda: worst_case_meeting_time(2, word=word))
        first = z_paths(2)[0]
        assert got == ("AssertionError", f"dedicated word failed to meet for v={first}")

    def test_random_words_match_the_scalar_loop(self, monkeypatch):
        """Words of ``γγ`` and random excursions, on either side of the
        exactness guard: the same per-``v`` times, worst case or error."""
        sides = []
        free_group_pass = lower_bound_module._free_group_meeting_times

        def spy(*args):
            times = free_group_pass(*args)
            sides.append("scalar" if times is None else "free group")
            return times

        monkeypatch.setattr(lower_bound_module, "_free_group_meeting_times", spy)
        for seed in range(32):
            rng = SplitMix64(derive_seed("t41-random-word", seed))
            k = 1 + rng.randrange(3)
            depth = 1 + rng.randrange(4 * k)
            paths = z_paths(k)
            word = []
            for _ in range(1 + rng.randrange(6)):
                if rng.randrange(2):
                    out = list(paths[rng.randrange(len(paths))])
                else:
                    steps = 1 + rng.randrange(depth)
                    out = [(N, E, S, W)[rng.randrange(4)] for _ in range(steps)]
                back = [opposite(x) for x in reversed(out)]
                word += out + [STAY] * rng.randrange(3) + back
            word = tuple(word)
            expected = outcome(lambda: [scalar_meeting_time(k, word, p) for p in paths])
            assert outcome(lambda: list(_z_meeting_times(k, word=word))) == expected
            assert outcome(lambda: worst_case_meeting_time(k, word=word)) == outcome(
                lambda: scalar_worst_case(k, word)
            )
        assert {"scalar", "free group"} <= set(sides), sides
