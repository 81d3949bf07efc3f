"""Per-disk time-series sampling: TimeSeries shape and DiskSampler runs."""

import pytest

from repro.experiments.runner import make_policy, run_simulation
from repro.obs.config import ObsConfig
from repro.obs.sampler import SAMPLE_COLUMNS, TimeSeries


@pytest.fixture(scope="module")
def sampled_result(small_workload, params):
    fileset, trace = small_workload
    return run_simulation(make_policy("read"), fileset, trace.head(1_000),
                          n_disks=4, disk_params=params,
                          obs=ObsConfig(sample_interval_s=3.0))


class TestTimeSeries:
    ROWS = ((0.0, 0, 10.0, 38.0, "high", "active", 2, 100.0),
            (0.0, 1, 0.0, 35.0, "low", "standby", 0, 50.0),
            (5.0, 0, 12.0, 38.5, "high", "active", 1, 180.0),
            (5.0, 1, 0.0, 34.5, "low", "standby", 0, 60.0))

    def test_len_and_n_samples(self):
        series = TimeSeries(interval_s=5.0, rows=self.ROWS)
        assert len(series) == 4
        assert series.n_samples == 2

    def test_column_extraction(self):
        series = TimeSeries(interval_s=5.0, rows=self.ROWS)
        assert series.column("energy_j") == [100.0, 50.0, 180.0, 60.0]
        assert series.column("energy_j", disk=1) == [50.0, 60.0]
        assert series.column("speed", disk=0) == ["high", "high"]

    def test_unknown_column_raises(self):
        with pytest.raises(ValueError):
            TimeSeries(interval_s=5.0, rows=self.ROWS).column("nope")

    def test_per_disk_grouping(self):
        grouped = TimeSeries(interval_s=5.0, rows=self.ROWS).per_disk()
        assert set(grouped) == {0, 1}
        assert [r[0] for r in grouped[0]] == [0.0, 5.0]

    def test_empty_series(self):
        series = TimeSeries(interval_s=1.0)
        assert len(series) == 0
        assert series.n_samples == 0
        assert series.per_disk() == {}


class TestDiskSamplerInRun:
    def test_series_attached_with_expected_shape(self, sampled_result):
        series = sampled_result.timeseries
        assert series is not None
        assert series.columns == SAMPLE_COLUMNS
        assert series.interval_s == 3.0
        # one row per disk per tick, plus the end-of-run closing sample
        assert len(series) % 4 == 0
        assert series.n_samples >= 2

    def test_rows_ordered_by_time_then_disk(self, sampled_result):
        rows = sampled_result.timeseries.rows
        assert list(rows) == sorted(rows, key=lambda r: (r[0], r[1]))

    def test_sampled_quantities_in_range(self, sampled_result):
        series = sampled_result.timeseries
        for util in series.column("utilization_pct"):
            assert 0.0 <= util <= 100.0
        for temp in series.column("temperature_c"):
            assert 20.0 <= temp <= 80.0
        for speed in series.column("speed"):
            assert speed in ("high", "low")
        for depth in series.column("queue_depth"):
            assert depth >= 0

    def test_energy_is_cumulative_per_disk(self, sampled_result):
        series = sampled_result.timeseries
        for disk in range(4):
            energy = series.column("energy_j", disk=disk)
            assert energy == sorted(energy)
            assert energy[-1] > 0.0

    def test_final_sample_matches_result_energy(self, sampled_result):
        series = sampled_result.timeseries
        last_time = series.rows[-1][0]
        final_total = sum(r[7] for r in series.rows if r[0] == last_time)
        assert final_total == pytest.approx(sampled_result.total_energy_j)

    def test_sampling_leaves_headline_metrics_close(self, small_workload,
                                                    params):
        # closed-form ledgers split exactly at sample instants; only
        # float-summation ulp drift is tolerated
        fileset, trace = small_workload
        plain = run_simulation(make_policy("read"), fileset, trace.head(1_000),
                               n_disks=4, disk_params=params)
        sampled = run_simulation(make_policy("read"), fileset,
                                 trace.head(1_000), n_disks=4,
                                 disk_params=params,
                                 obs=ObsConfig(sample_interval_s=3.0))
        assert sampled.mean_response_s == plain.mean_response_s
        assert sampled.total_energy_j == pytest.approx(plain.total_energy_j,
                                                       rel=1e-9)
        assert sampled.array_afr_percent == pytest.approx(
            plain.array_afr_percent, rel=1e-9)

    def test_interval_validation(self):
        from repro.obs.sampler import DiskSampler
        with pytest.raises(ValueError):
            DiskSampler(None, None, 0.0)
