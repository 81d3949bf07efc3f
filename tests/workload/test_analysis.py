"""Windowed trace analysis: counts, dispersion, working sets, churn."""

import numpy as np
import pytest

from repro.workload.analysis import (
    analyze_trace,
    index_of_dispersion,
    popularity_churn,
    windowed_request_counts,
    working_set_sizes,
)
from repro.workload.stream import materialize
from repro.workload.synthetic import SyntheticWorkloadConfig
from repro.workload.trace import Trace


def make_trace(times, fids):
    return Trace(np.asarray(times, dtype=float), np.asarray(fids, dtype=np.int64))


class TestWindowedCounts:
    def test_basic_bucketing(self):
        trace = make_trace([0.1, 0.9, 1.1, 2.5, 2.6], [0, 0, 1, 2, 0])
        np.testing.assert_array_equal(windowed_request_counts(trace, 1.0), [2, 1, 2])

    def test_empty_windows_counted(self):
        trace = make_trace([0.1, 5.1], [0, 1])
        counts = windowed_request_counts(trace, 1.0)
        assert counts.size == 6
        assert counts.sum() == 2

    def test_invalid_window_rejected(self):
        trace = make_trace([0.1], [0])
        with pytest.raises(ValueError):
            windowed_request_counts(trace, 0.0)


class TestDispersion:
    def test_poisson_near_one(self):
        cfg = SyntheticWorkloadConfig(n_files=50, n_requests=50_000, seed=1,
                                      bursty=False, popularity_drift=0.0,
                                      mean_interarrival_s=0.01)
        fs, trace = materialize(cfg)
        assert index_of_dispersion(trace, 5.0) == pytest.approx(1.0, abs=0.4)

    def test_bursty_above_poisson(self):
        base = dict(n_files=50, n_requests=50_000, seed=1,
                    popularity_drift=0.0, mean_interarrival_s=0.01)
        _, poisson = materialize(SyntheticWorkloadConfig(
            bursty=False, **base))
        _, bursty = materialize(SyntheticWorkloadConfig(
            bursty=True, **base))
        assert index_of_dispersion(bursty, 1.0) > index_of_dispersion(poisson, 1.0)

    def test_deterministic_grid_below_poisson(self):
        trace = make_trace(np.arange(1, 1001) * 0.01, np.zeros(1000, dtype=int))
        assert index_of_dispersion(trace, 1.0) < 0.5


class TestWorkingSet:
    def test_distinct_files_per_window(self):
        trace = make_trace([0.1, 0.2, 0.3, 1.5, 1.6], [0, 0, 1, 2, 2])
        np.testing.assert_array_equal(working_set_sizes(trace, 1.0), [2, 1])

    def test_bounded_by_population(self):
        cfg = SyntheticWorkloadConfig(n_files=30, n_requests=5_000, seed=2,
                                      mean_interarrival_s=0.01)
        fs, trace = materialize(cfg)
        assert working_set_sizes(trace, 10.0).max() <= 30


class TestPopularityChurn:
    def test_static_popularity_high_correlation(self):
        cfg = SyntheticWorkloadConfig(n_files=100, n_requests=40_000, seed=3,
                                      popularity_drift=0.0, bursty=False,
                                      mean_interarrival_s=0.005)
        fs, trace = materialize(cfg)
        spearman, jaccard = popularity_churn(trace, 100, 50.0)
        assert spearman.mean() > 0.7
        assert jaccard.mean() > 0.6

    def test_drift_lowers_overlap(self):
        base = dict(n_files=100, n_requests=40_000, seed=3, bursty=False,
                    mean_interarrival_s=0.005, drift_segments=8)
        _, static = materialize(SyntheticWorkloadConfig(
            popularity_drift=0.0, **base))
        _, drifting = materialize(SyntheticWorkloadConfig(
            popularity_drift=0.8, **base))
        _, j_static = popularity_churn(static, 100, 25.0)
        _, j_drift = popularity_churn(drifting, 100, 25.0)
        assert j_drift.mean() < j_static.mean()

    def test_needs_two_windows(self):
        trace = make_trace([0.1, 0.2], [0, 1])
        with pytest.raises(ValueError):
            popularity_churn(trace, 2, 10.0)

    def test_pinned_values_on_a_seeded_trace(self):
        # captured before scipy.stats moved into popularity_churn: the
        # deferred import must not change a bit of the output
        cfg = SyntheticWorkloadConfig(n_files=40, n_requests=3000, seed=11,
                                      mean_interarrival_s=0.02, drift_segments=4,
                                      popularity_drift=0.5)
        _, trace = materialize(cfg)
        spearman, jaccard = popularity_churn(trace, 40, 6.0, top_k=10)
        assert spearman.tolist() == [
            0.6351403975257005, 0.5801518472982433, 0.5548664267433595,
            0.6032651897967768, 0.40915143241127855, 0.48283986827969605,
            0.38330231151820165, 0.6178942932064162, 0.6540726714679896,
            0.30406517853042786]
        assert jaccard.tolist() == [
            2 / 3, 7 / 13, 1 / 3, 7 / 13, 3 / 7, 7 / 13, 1 / 3, 7 / 13, 7 / 13, 3 / 7]


class TestAnalyzeTrace:
    def test_summary_fields(self):
        cfg = SyntheticWorkloadConfig(n_files=80, n_requests=20_000, seed=4,
                                      mean_interarrival_s=0.01)
        fs, trace = materialize(cfg)
        a = analyze_trace(trace, 80, window_s=20.0)
        assert a.n_windows >= 2
        assert a.mean_rate_per_s == pytest.approx(100.0, rel=0.3)
        assert 0 < a.mean_working_set <= a.max_working_set <= 80
        assert -1.0 <= a.mean_rank_correlation <= 1.0
        assert 0.0 <= a.mean_topk_jaccard <= 1.0

    def test_single_window_degenerate(self):
        trace = make_trace([0.1, 0.2, 0.3], [0, 1, 2])
        a = analyze_trace(trace, 3, window_s=100.0)
        assert a.n_windows == 1
        assert a.mean_rank_correlation == 1.0
