"""RequestMetrics and SimulationResult."""

import numpy as np
import pytest

from repro.disk.drive import Job
from repro.experiments.metrics import RequestMetrics, SimulationResult
from repro.press.model import DiskFactors
from repro.workload.request import Request


def completed_job(arrival, start, end, fid=0):
    req = Request(arrival, fid, 1.0)
    req.service_start = start
    req.completion_time = end
    job = Job.for_request(req)
    return job


class TestRequestMetrics:
    def test_records_response_and_wait(self):
        m = RequestMetrics(expected=2)
        m.on_complete(completed_job(0.0, 1.0, 3.0))
        m.on_complete(completed_job(1.0, 1.0, 2.0))
        assert m.completed == 2
        assert m.all_done
        np.testing.assert_allclose(m.response_times_s, [3.0, 1.0])
        assert m.mean_response_s() == pytest.approx(2.0)

    def test_internal_jobs_ignored(self):
        m = RequestMetrics(expected=1)
        m.on_complete(Job.internal_transfer(5.0))
        assert m.completed == 0
        assert not m.all_done

    def test_percentiles(self):
        m = RequestMetrics(expected=100)
        for i in range(100):
            m.on_complete(completed_job(0.0, 0.0, float(i + 1)))
        assert m.percentile_response_s(50) == pytest.approx(50.5)
        assert m.percentile_response_s(99) > m.percentile_response_s(50)

    def test_overflow_rejected(self):
        m = RequestMetrics(expected=1)
        m.on_complete(completed_job(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            m.on_complete(completed_job(0.0, 0.0, 1.0))

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            RequestMetrics(expected=0).mean_response_s()


class TestSimulationResult:
    @pytest.fixture
    def result(self):
        factors = (
            DiskFactors(0, 50.0, 10.0, 0.0, 8.0),
            DiskFactors(1, 45.0, 30.0, 100.0, 11.5),
        )
        return SimulationResult(
            policy_name="test", n_disks=2, n_requests=100, duration_s=3600.0,
            mean_response_s=0.01, p95_response_s=0.02, p99_response_s=0.05,
            total_energy_j=7.2e6, array_afr_percent=11.5, per_disk=factors,
            total_transitions=5, internal_jobs=3,
        )

    def test_energy_kwh(self, result):
        assert result.energy_kwh == pytest.approx(2.0)

    def test_worst_disk(self, result):
        assert result.worst_disk.disk_id == 1

    def test_summary_row_keys(self, result):
        row = result.summary_row()
        assert row["policy"] == "test"
        assert row["disks"] == 2
        assert row["AFR_%"] == 11.5
        assert row["transitions"] == 5
