"""Arrival processes: rates, ordering, determinism."""

import numpy as np
import pytest

from repro.workload.arrival import diurnal_poisson_arrivals, onoff_bursty_gap_runs
from repro.workload.stream import materialize
from repro.workload.synthetic import SyntheticWorkloadConfig


def synthetic_times(n, gap, seed, *, bursty):
    """Arrival times of the synthetic stream (Poisson or bursty)."""
    cfg = SyntheticWorkloadConfig(n_files=10, n_requests=n,
                                  mean_interarrival_s=gap, bursty=bursty,
                                  seed=seed)
    return materialize(cfg)[1].times_s


def bursty_gaps(n, gap, seed):
    return np.concatenate(list(onoff_bursty_gap_runs(n, gap, seed=seed)))


ALL_GENERATORS = [
    lambda n, gap, seed: synthetic_times(n, gap, seed, bursty=False),
    lambda n, gap, seed: synthetic_times(n, gap, seed, bursty=True),
    lambda n, gap, seed: diurnal_poisson_arrivals(n, gap, seed=seed),
]


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_sorted_positive_and_correct_length(gen):
    times = gen(5000, 0.05, 1)
    assert times.size == 5000
    assert np.all(np.diff(times) >= 0)
    assert times[0] >= 0


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_deterministic_with_seed(gen):
    np.testing.assert_array_equal(gen(1000, 0.1, 7), gen(1000, 0.1, 7))


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_zero_requests(gen):
    assert gen(0, 0.1, 1).size == 0


def test_poisson_mean_interarrival():
    times = synthetic_times(100_000, 0.0584, 2, bursty=False)
    assert np.diff(times).mean() == pytest.approx(0.0584, rel=0.02)


def test_bursty_preserves_global_mean():
    assert bursty_gaps(200_000, 0.05, 3).mean() == pytest.approx(0.05, rel=0.05)


def test_bursty_has_higher_variance_than_poisson():
    gaps_b = bursty_gaps(100_000, 0.05, 4)
    gaps_p = np.diff(synthetic_times(100_000, 0.05, 4, bursty=False))
    assert gaps_b.std() > gaps_p.std()


def test_diurnal_rate_varies_with_phase():
    # rate peaks at period/4 (sin max), troughs at 3*period/4
    period = 10_000.0
    times = diurnal_poisson_arrivals(200_000, 0.05, period_s=period,
                                     amplitude=0.8, seed=5)
    phase = (times % period) / period
    peak = np.sum((phase > 0.15) & (phase < 0.35))
    trough = np.sum((phase > 0.65) & (phase < 0.85))
    assert peak > 1.5 * trough


def test_diurnal_amplitude_validation():
    with pytest.raises(ValueError):
        diurnal_poisson_arrivals(10, 0.05, amplitude=1.0)
    with pytest.raises(ValueError):
        diurnal_poisson_arrivals(10, 0.05, amplitude=-0.1)
