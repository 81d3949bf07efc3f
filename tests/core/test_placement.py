"""READ's zone layout and round-robin dealing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import ZoneLayout, compute_zone_layout, round_robin_zone_placement
from repro.core.popularity import split_by_popularity


class TestZoneLayout:
    def test_fig6_formula(self):
        # HD = gamma*n/(gamma+1): gamma=3, n=8 -> 6
        assert compute_zone_layout(3.0, 8).n_hot == 6

    def test_rounding(self):
        assert compute_zone_layout(1.0, 10).n_hot == 5

    def test_clamp_keeps_both_zones(self):
        assert compute_zone_layout(1e9, 10).n_hot == 9
        assert compute_zone_layout(1e-9, 10).n_hot == 1

    def test_zone_ids(self):
        layout = ZoneLayout(n_disks=6, n_hot=2)
        np.testing.assert_array_equal(layout.hot_ids, [0, 1])
        np.testing.assert_array_equal(layout.cold_ids, [2, 3, 4, 5])
        assert layout.is_hot(1) and not layout.is_hot(2)

    def test_invalid_layouts_rejected(self):
        with pytest.raises(ValueError):
            ZoneLayout(n_disks=4, n_hot=0)
        with pytest.raises(ValueError):
            ZoneLayout(n_disks=4, n_hot=4)
        with pytest.raises(ValueError):
            compute_zone_layout(1.0, 1)

    @given(st.floats(1e-6, 1e6), st.integers(2, 64))
    @settings(max_examples=200)
    def test_layout_always_valid(self, gamma, n):
        layout = compute_zone_layout(gamma, n)
        assert 1 <= layout.n_hot <= n - 1


class TestRoundRobinPlacement:
    def test_popular_on_hot_unpopular_on_cold(self):
        split = split_by_popularity(np.arange(8), 0.5)
        layout = ZoneLayout(n_disks=4, n_hot=2)
        sizes = np.ones(8)
        placement = round_robin_zone_placement(split, layout, sizes, 100.0)
        for fid in split.popular_ids:
            assert placement[fid] in (0, 1)
        for fid in split.unpopular_ids:
            assert placement[fid] in (2, 3)

    def test_round_robin_order(self):
        # most popular file lands on first hot disk, second on second...
        split = split_by_popularity(np.array([5, 4, 3, 2, 1, 0]), 0.5)
        layout = ZoneLayout(n_disks=4, n_hot=2)
        placement = round_robin_zone_placement(split, layout, np.ones(6), 100.0)
        assert placement[5] == 0  # rank 0 -> hot disk 0
        assert placement[4] == 1  # rank 1 -> hot disk 1
        assert placement[3] == 0  # rank 2 wraps

    def test_balanced_within_zone(self):
        split = split_by_popularity(np.arange(100), 0.5)
        layout = ZoneLayout(n_disks=10, n_hot=5)
        placement = round_robin_zone_placement(split, layout, np.ones(100), 1000.0)
        hot_counts = np.bincount(placement[split.popular_ids], minlength=10)[:5]
        assert hot_counts.max() - hot_counts.min() <= 1

    def test_capacity_skip(self):
        split = split_by_popularity(np.array([0, 1, 2, 3]), 0.5)
        layout = ZoneLayout(n_disks=4, n_hot=2)
        sizes = np.array([8.0, 8.0, 1.0, 1.0])
        placement = round_robin_zone_placement(split, layout, sizes, 10.0)
        # both big popular files cannot share one 10 MB disk
        assert placement[0] != placement[1]

    def test_spill_to_other_zone_when_zone_full(self):
        split = split_by_popularity(np.array([0, 1, 2, 3]), 0.5)
        layout = ZoneLayout(n_disks=3, n_hot=1)
        sizes = np.array([6.0, 6.0, 1.0, 1.0])
        placement = round_robin_zone_placement(split, layout, sizes, 10.0)
        # second popular file cannot fit on the only hot disk; spills cold
        assert placement[0] == 0
        assert placement[1] != 0

    def test_impossible_fit_rejected(self):
        split = split_by_popularity(np.array([0, 1]), 0.5)
        layout = ZoneLayout(n_disks=2, n_hot=1)
        with pytest.raises(ValueError):
            round_robin_zone_placement(split, layout, np.array([50.0, 1.0]), 10.0)

    @given(st.integers(4, 60), st.integers(2, 8), st.floats(0.1, 0.9))
    @settings(max_examples=100)
    def test_every_file_placed_within_capacity(self, m, n, theta):
        rng = np.random.default_rng(m * n)
        sizes = rng.uniform(0.1, 2.0, m)
        split = split_by_popularity(rng.permutation(m), theta)
        layout = compute_zone_layout(1.0, n)
        capacity = sizes.sum()  # generous
        placement = round_robin_zone_placement(split, layout, sizes, capacity)
        assert np.all(placement >= 0) and np.all(placement < n)
        used = np.bincount(placement, weights=sizes, minlength=n)
        assert np.all(used <= capacity + 1e-9)
