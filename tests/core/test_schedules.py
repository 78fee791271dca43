"""Tests for the activity-word construction — including the exhaustive
verification that stands in for a pen-and-paper proof (see the
``repro.core.profile`` module docstring)."""

from itertools import product

import pytest

from repro.core import (
    first_good_window,
    good_window_bound,
    schedule_word,
    verify_schedule_pair,
)


class TestConstruction:
    def test_word_shape(self):
        word = schedule_word((1, 0))
        assert word[:6] == (1, 1, 1, 0, 0, 0)  # marker
        assert word[6:10] == (1, 1, 0, 0)  # bit 1
        assert word[10:14] == (0, 0, 1, 1)  # bit 0
        assert len(word) == 6 + 4 * 2

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            schedule_word((2,))

    def test_activity_density_balanced(self):
        # Every bit block contributes exactly two active and two passive
        # slots; the marker adds three of each.
        for bits in ((0,), (1, 1), (1, 0, 1, 0)):
            word = schedule_word(bits)
            assert sum(word) == 3 + 2 * len(bits)
            assert len(word) - sum(word) == 3 + 2 * len(bits)


class TestMeetingProperty:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exhaustive_equal_length(self, k):
        """For every pair of distinct k-bit labels and every slot
        shift, someone is active while the other is doubly passive."""
        labels = list(product((0, 1), repeat=k))
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                assert verify_schedule_pair(schedule_word(a), schedule_word(b))

    def test_exhaustive_unequal_length(self):
        for ka, kb in [(1, 2), (1, 3), (2, 3), (2, 4)]:
            for a in product((0, 1), repeat=ka):
                for b in product((0, 1), repeat=kb):
                    assert verify_schedule_pair(
                        schedule_word(a), schedule_word(b)
                    ), (a, b)

    def test_equal_labels_have_no_guarantee_at_zero_shift(self):
        # Identical words at shift 0 mirror each other: no window —
        # this is the symmetric case AsymmRV is not responsible for.
        word = schedule_word((1, 0, 1))
        assert first_good_window(word, word, 0) is None

    def test_window_within_bound(self):
        wa = schedule_word((1, 0))
        wb = schedule_word((0, 1))
        bound = good_window_bound(len(wa), len(wb))
        for shift in range(len(wa) * 2):
            found = first_good_window(wa, wb, shift)
            assert found is not None
            assert found[1] <= bound

    def test_window_roles(self):
        wa = schedule_word((1,))
        wb = schedule_word((0,))
        role, _ = first_good_window(wa, wb, 0)
        assert role in ("a", "b")


class TestBound:
    def test_bound_formula(self):
        assert good_window_bound(10, 10) == 10 + 10 + 2
        assert good_window_bound(4, 6) == 12 + 6 + 2
