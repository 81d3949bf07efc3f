"""READ's popularity math: Eqs. 4-5 and the popular/unpopular split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.popularity import (
    estimate_file_loads,
    popular_file_count,
    popular_unpopular_ratio_delta,
    split_by_popularity,
    zone_load_ratio_gamma,
)

thetas = st.floats(0.01, 0.99)


class TestPopularFileCount:
    def test_paper_formula(self):
        # |Fp| = (1 - theta) * m
        assert popular_file_count(0.25, 100) == 75

    def test_clamped_to_keep_both_classes(self):
        assert popular_file_count(0.999999 - 1e-7, 100) >= 1
        assert popular_file_count(0.0000011, 100) <= 99

    def test_rounding(self):
        assert popular_file_count(0.5, 5) in (2, 3)

    def test_theta_bounds_rejected(self):
        with pytest.raises(ValueError):
            popular_file_count(0.0, 10)
        with pytest.raises(ValueError):
            popular_file_count(1.0, 10)

    def test_too_few_files_rejected(self):
        with pytest.raises(ValueError):
            popular_file_count(0.5, 1)

    @given(thetas, st.integers(2, 10_000))
    @settings(max_examples=200)
    def test_count_always_valid(self, theta, m):
        c = popular_file_count(theta, m)
        assert 1 <= c <= m - 1


class TestDelta:
    def test_eq4(self):
        assert popular_unpopular_ratio_delta(0.2) == pytest.approx(4.0)

    def test_uniform_edge(self):
        assert popular_unpopular_ratio_delta(0.5) == pytest.approx(1.0)

    @given(thetas)
    @settings(max_examples=100)
    def test_delta_consistent_with_counts(self, theta):
        m = 10_000
        c = popular_file_count(theta, m)
        delta = popular_unpopular_ratio_delta(theta)
        assert c / (m - c) == pytest.approx(delta, rel=0.01)


class TestSplit:
    def test_split_respects_ranking(self):
        ranking = np.array([3, 1, 4, 0, 2])
        split = split_by_popularity(ranking, 0.4)
        assert popular_file_count(0.4, 5) == split.popular_ids.size
        np.testing.assert_array_equal(split.popular_ids, ranking[:split.popular_ids.size])

    def test_partition_property(self):
        ranking = np.random.default_rng(0).permutation(50)
        split = split_by_popularity(ranking, 0.3)
        combined = np.sort(np.concatenate([split.popular_ids, split.unpopular_ids]))
        np.testing.assert_array_equal(combined, np.arange(50))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            split_by_popularity(np.array([0, 0, 1]), 0.5)

    @given(thetas, st.integers(2, 300))
    @settings(max_examples=100)
    def test_split_sizes_property(self, theta, m):
        split = split_by_popularity(np.arange(m), theta)
        assert split.popular_ids.size + split.unpopular_ids.size == m
        assert split.popular_ids.size >= 1
        assert split.unpopular_ids.size >= 1


class TestLoads:
    def test_measured_counts_load(self):
        sizes = np.array([1.0, 2.0, 4.0])
        counts = np.array([10, 5, 0])
        loads = estimate_file_loads(sizes, np.arange(3), counts=counts)
        np.testing.assert_allclose(loads, [10.0, 10.0, 0.0])

    def test_zipf_bootstrap_rates_follow_ranking(self):
        sizes = np.ones(10)
        ranking = np.array([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        loads = estimate_file_loads(sizes, ranking, zipf_alpha=0.8)
        # file 9 is rank 0 (most popular) -> largest load
        assert loads[9] == loads.max()
        assert loads[0] == loads.min()

    def test_loads_scale_with_size(self):
        sizes = np.array([1.0, 10.0])
        loads = estimate_file_loads(sizes, np.array([0, 1]), zipf_alpha=0.0)
        assert loads[1] == pytest.approx(10 * loads[0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            estimate_file_loads(np.ones(2), np.arange(2), counts=np.array([-1, 1]))


class TestGamma:
    def test_eq5_formula(self):
        split = split_by_popularity(np.arange(4), 0.5)  # 2 popular, 2 unpopular
        loads = np.array([3.0, 1.0, 1.0, 1.0])
        # gamma = ((1-0.5)*4) / (0.5*2) = 2
        assert zone_load_ratio_gamma(split, loads) == pytest.approx(2.0)

    def test_zero_unpopular_load_clamped(self):
        split = split_by_popularity(np.arange(4), 0.5)
        loads = np.array([1.0, 1.0, 0.0, 0.0])
        assert zone_load_ratio_gamma(split, loads) == 1e6

    def test_zero_popular_load_clamped(self):
        split = split_by_popularity(np.arange(4), 0.5)
        loads = np.array([0.0, 0.0, 1.0, 1.0])
        assert zone_load_ratio_gamma(split, loads) == 1e-6

    @given(thetas, st.integers(4, 50))
    @settings(max_examples=100)
    def test_gamma_positive(self, theta, m):
        split = split_by_popularity(np.arange(m), theta)
        loads = np.linspace(1.0, 2.0, m)
        assert zone_load_ratio_gamma(split, loads) > 0
