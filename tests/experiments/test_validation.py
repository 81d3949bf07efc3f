"""Simulator vs Pollaczek-Khinchine: the M/G/1 cross-check.

If these agree, the simulator's arrival/queue/service pipeline is
correct — every policy comparison in the repository stands on it.
"""

import numpy as np
import pytest

from repro.disk.array import DiskArray
from repro.disk.parameters import DiskSpeed
from repro.experiments.metrics import RequestMetrics
from repro.experiments.validation import mg1_prediction, service_moments
from repro.sim.engine import Simulator
from repro.workload.files import FileSet
from repro.workload.request import Request
from repro.workload.zipf import zipf_probabilities


def simulate_single_disk(fileset, params, mean_gap, n_requests, *,
                         speed=DiskSpeed.HIGH, weights=None, seed=0):
    """One fixed-speed drive, Poisson arrivals, files sampled by weight.

    Returns the response metrics and every request's queueing delay.
    """
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(mean_gap, n_requests))
    n = len(fileset)
    p = weights if weights is not None else np.full(n, 1.0 / n)
    fids = rng.choice(n, size=n_requests, p=p / p.sum())

    sim = Simulator()
    array = DiskArray(sim, params, 1, fileset, initial_speed=speed)
    array.place_all(np.zeros(n, dtype=np.int64))
    metrics = RequestMetrics(expected=n_requests)
    requests = []
    for t, fid in zip(times, fids):
        req = Request(float(t), int(fid), fileset.size_of(int(fid)))
        requests.append(req)
        sim.schedule(float(t), (lambda r=req: array.submit_request(
            r, on_complete=metrics.on_complete)))
    sim.run()
    return metrics, np.array([r.waiting_time for r in requests])


class TestServiceMoments:
    def test_uniform_moments(self, params):
        fs = FileSet(np.array([1.0, 3.0]))
        es, es2 = service_moments(fs, params.high)
        s1 = params.high.service_time_s(1.0)
        s2 = params.high.service_time_s(3.0)
        assert es == pytest.approx((s1 + s2) / 2)
        assert es2 == pytest.approx((s1**2 + s2**2) / 2)

    def test_weighted_moments(self, params):
        fs = FileSet(np.array([1.0, 3.0]))
        es, _ = service_moments(fs, params.high, weights=np.array([1.0, 0.0]))
        assert es == pytest.approx(params.high.service_time_s(1.0))

    def test_weight_validation(self, params):
        fs = FileSet(np.array([1.0, 3.0]))
        with pytest.raises(ValueError):
            service_moments(fs, params.high, weights=np.array([1.0]))


class TestPrediction:
    def test_unstable_queue_rejected(self, params):
        fs = FileSet(np.full(10, 50.0))  # ~1.6 s services
        with pytest.raises(ValueError, match="unstable"):
            mg1_prediction(fs, params, mean_interarrival_s=0.1)

    def test_utilization_formula(self, params):
        fs = FileSet(np.full(10, 1.0))
        pred = mg1_prediction(fs, params, mean_interarrival_s=0.2)
        assert pred.utilization == pytest.approx(
            params.high.service_time_s(1.0) / 0.2)

    def test_response_is_wait_plus_service(self, params):
        fs = FileSet(np.full(10, 1.0))
        pred = mg1_prediction(fs, params, mean_interarrival_s=0.2)
        assert pred.mean_response_s == pred.mean_wait_s + pred.mean_service_s


class TestSimulatorAgreement:
    """The headline checks: simulated means within MC error of P-K."""

    @pytest.mark.parametrize("speed", [DiskSpeed.HIGH, DiskSpeed.LOW])
    def test_uniform_sizes_moderate_load(self, params, speed):
        fs = FileSet(np.full(20, 0.5))
        gap = 0.06 if speed is DiskSpeed.HIGH else 0.12
        pred = mg1_prediction(fs, params, speed=speed, mean_interarrival_s=gap)
        metrics, waits = simulate_single_disk(fs, params, gap, 40_000, speed=speed)
        assert waits.mean() == pytest.approx(
            pred.mean_wait_s, rel=0.08)
        assert metrics.response_times_s.mean() == pytest.approx(
            pred.mean_response_s, rel=0.05)

    def test_heterogeneous_sizes_high_variance(self, params):
        """P-K is exquisitely sensitive to E[S^2]; mixed sizes probe it."""
        rng = np.random.default_rng(3)
        fs = FileSet(rng.uniform(0.05, 2.0, 50))
        gap = 0.08
        pred = mg1_prediction(fs, params, mean_interarrival_s=gap)
        assert pred.utilization < 0.6
        metrics, waits = simulate_single_disk(fs, params, gap, 60_000, seed=4)
        assert waits.mean() == pytest.approx(
            pred.mean_wait_s, rel=0.10)

    def test_zipf_weighted_access(self, params):
        """Popularity-weighted service distribution (the realistic case)."""
        fs = FileSet(np.linspace(0.1, 1.5, 30))
        weights = zipf_probabilities(30, 0.8)
        gap = 0.05
        pred = mg1_prediction(fs, params, mean_interarrival_s=gap, weights=weights)
        metrics, waits = simulate_single_disk(fs, params, gap, 60_000,
                                       weights=weights, seed=5)
        assert waits.mean() == pytest.approx(
            pred.mean_wait_s, rel=0.10)

    def test_high_load_regime(self, params):
        """rho ~ 0.8: waits blow up as 1/(1-rho); the simulator must track."""
        fs = FileSet(np.full(10, 1.0))
        es = params.high.service_time_s(1.0)
        gap = es / 0.8
        pred = mg1_prediction(fs, params, mean_interarrival_s=gap)
        assert pred.utilization == pytest.approx(0.8)
        metrics, waits = simulate_single_disk(fs, params, gap, 80_000, seed=6)
        assert waits.mean() == pytest.approx(
            pred.mean_wait_s, rel=0.15)
