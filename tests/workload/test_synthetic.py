"""Synthetic WC98-like generator: determinism, statistics, drift, heavy."""

import numpy as np
import pytest

from repro.workload.stream import materialize
from repro.workload.synthetic import (
    WORLDCUP_MEAN_INTERARRIVAL_S,
    SyntheticWorkloadConfig,
    WorldCupLikeWorkload,
)


def make(n_files=300, n_requests=20_000, **kw):
    return WorldCupLikeWorkload(SyntheticWorkloadConfig(
        n_files=n_files, n_requests=n_requests, seed=11, **kw))


class TestConfig:
    def test_defaults_match_paper_trace(self):
        cfg = SyntheticWorkloadConfig()
        assert cfg.n_files == 4079
        assert cfg.mean_interarrival_s == WORLDCUP_MEAN_INTERARRIVAL_S

    def test_heavy_scales_rate_and_requests_same_duration(self):
        cfg = SyntheticWorkloadConfig(n_requests=1000)
        heavy = cfg.heavy(4.0)
        assert heavy.mean_interarrival_s == pytest.approx(cfg.mean_interarrival_s / 4)
        assert heavy.n_requests == 4000

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(zipf_alpha=1.5)

    def test_invalid_drift_rejected(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(popularity_drift=1.5)


class TestGeneration:
    def test_deterministic(self):
        fs1, t1 = materialize(make().config)
        fs2, t2 = materialize(make().config)
        np.testing.assert_array_equal(fs1.sizes_mb, fs2.sizes_mb)
        np.testing.assert_array_equal(t1.file_ids, t2.file_ids)
        np.testing.assert_allclose(t1.times_s, t2.times_s)

    def test_trace_statistics_near_config(self):
        wl = make(n_requests=50_000)
        fs, trace = materialize(wl.config)
        stats = trace.stats(len(fs))
        assert stats.mean_interarrival_s == pytest.approx(
            wl.config.mean_interarrival_s, rel=0.05)
        assert stats.zipf_alpha == pytest.approx(wl.config.zipf_alpha, abs=0.2)

    def test_all_ids_in_range(self):
        fs, trace = materialize(make().config)
        assert trace.file_ids.min() >= 0
        assert trace.file_ids.max() < len(fs)

    def test_skew_present(self):
        fs, trace = materialize(make(n_requests=50_000).config)
        stats = trace.stats(len(fs))
        assert stats.top20_access_fraction > 0.4  # clearly non-uniform


class TestPopularityOrder:
    def test_full_correlation_puts_smallest_first(self):
        wl = make(size_popularity_correlation=1.0)
        fs = wl.build_fileset()
        order = wl.popularity_order(fs)
        sizes_in_rank_order = fs.sizes_mb[order]
        # rank 0 (most popular) is the smallest file
        assert sizes_in_rank_order[0] == fs.sizes_mb.min()

    def test_order_is_permutation(self):
        wl = make()
        fs = wl.build_fileset()
        order = wl.popularity_order(fs)
        np.testing.assert_array_equal(np.sort(order), np.arange(len(fs)))

    def test_zero_correlation_decorrelates(self):
        wl = make(size_popularity_correlation=0.0)
        fs = wl.build_fileset()
        order = wl.popularity_order(fs)
        ranks = np.empty(len(fs))
        ranks[order] = np.arange(len(fs))
        corr = np.corrcoef(ranks, fs.sizes_mb)[0, 1]
        assert abs(corr) < 0.2


class TestDrift:
    def test_zero_drift_single_mapping(self):
        wl = make(popularity_drift=0.0, drift_segments=4)
        fs = wl.build_fileset()
        orders = wl.drifted_orders(fs)
        for o in orders[1:]:
            np.testing.assert_array_equal(o, orders[0])

    def test_drift_changes_mappings(self):
        wl = make(popularity_drift=0.3, drift_segments=4)
        fs = wl.build_fileset()
        orders = wl.drifted_orders(fs)
        assert any(not np.array_equal(o, orders[0]) for o in orders[1:])

    def test_drift_preserves_permutation(self):
        wl = make(popularity_drift=0.5, drift_segments=6)
        fs = wl.build_fileset()
        for o in wl.drifted_orders(fs):
            np.testing.assert_array_equal(np.sort(o), np.arange(len(fs)))

    def test_drift_fraction_controls_movement(self):
        wl = make(popularity_drift=0.1, drift_segments=2)
        fs = wl.build_fileset()
        o0, o1 = wl.drifted_orders(fs)
        moved = np.sum(o0 != o1)
        assert 0 < moved <= int(0.1 * len(fs)) + 1
