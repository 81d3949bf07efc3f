"""AccessTracker (ATM/FPT): counting, epoch rolls, ranking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.tracking import AccessTracker


class TestCounting:
    def test_record_and_views(self):
        t = AccessTracker(4)
        for fid in (0, 2, 2, 3):
            t.record(fid)
        np.testing.assert_array_equal(t.current_counts, [1, 0, 2, 1])
        np.testing.assert_array_equal(t.previous_counts, [0, 0, 0, 0])

    def test_views_readonly(self):
        t = AccessTracker(3)
        with pytest.raises(ValueError):
            t.current_counts[0] = 5

    def test_invalid_population_rejected(self):
        with pytest.raises(ValueError):
            AccessTracker(0)


class TestEpochRoll:
    def test_roll_snapshots_and_resets(self):
        t = AccessTracker(3)
        t.record(1)
        t.record(1)
        snapshot = t.roll_epoch()
        np.testing.assert_array_equal(snapshot, [0, 2, 0])
        np.testing.assert_array_equal(t.current_counts, [0, 0, 0])
        np.testing.assert_array_equal(t.previous_counts, [0, 2, 0])

    def test_returned_snapshot_is_independent(self):
        t = AccessTracker(2)
        t.record(0)
        snap = t.roll_epoch()
        t.record(0)
        t.record(1)
        np.testing.assert_array_equal(snap, [1, 0])

    def test_multiple_rolls(self):
        t = AccessTracker(2)
        for epoch in range(3):
            for _ in range(epoch + 1):
                t.record(0)
            snap = t.roll_epoch()
            assert snap[0] == epoch + 1


class TestRanking:
    def test_ranking_most_accessed_first(self):
        t = AccessTracker(4)
        for fid, n in [(0, 2), (1, 5), (3, 1)]:
            for _ in range(n):
                t.record(fid)
        t.roll_epoch()
        np.testing.assert_array_equal(t.popularity_ranking(), [1, 0, 3, 2])

    def test_ranking_ties_keep_id_order(self):
        t = AccessTracker(3)
        t.roll_epoch()
        np.testing.assert_array_equal(t.popularity_ranking(), [0, 1, 2])

    def test_ranking_with_explicit_counts(self):
        t = AccessTracker(3)
        ranking = t.popularity_ranking(counts=np.array([1, 3, 2]))
        np.testing.assert_array_equal(ranking, [1, 2, 0])

    def test_ranking_length_mismatch_rejected(self):
        t = AccessTracker(3)
        with pytest.raises(ValueError):
            t.popularity_ranking(counts=np.array([1, 2]))

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_roll_conserves_total_counts(self, accesses):
        t = AccessTracker(10)
        for fid in accesses:
            t.record(fid)
        snap = t.roll_epoch()
        assert snap.sum() == len(accesses)
