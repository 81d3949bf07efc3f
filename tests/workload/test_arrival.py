"""Arrival processes: rates, ordering, determinism."""

import numpy as np
import pytest

from repro.workload.arrival import (
    diurnal_poisson_arrivals,
    onoff_bursty_arrivals,
    poisson_arrivals,
)

ALL_GENERATORS = [
    lambda n, gap, seed: poisson_arrivals(n, gap, seed=seed),
    lambda n, gap, seed: onoff_bursty_arrivals(n, gap, seed=seed),
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
    times = poisson_arrivals(100_000, 0.0584, seed=2)
    assert np.diff(times).mean() == pytest.approx(0.0584, rel=0.02)


def test_bursty_preserves_global_mean():
    times = onoff_bursty_arrivals(200_000, 0.05, seed=3)
    assert np.diff(times).mean() == pytest.approx(0.05, rel=0.05)


def test_bursty_has_higher_variance_than_poisson():
    gaps_b = np.diff(onoff_bursty_arrivals(100_000, 0.05, seed=4))
    gaps_p = np.diff(poisson_arrivals(100_000, 0.05, seed=4))
    assert gaps_b.std() > gaps_p.std()


def test_bursty_parameter_validation():
    with pytest.raises(ValueError):
        onoff_bursty_arrivals(10, 0.05, burst_factor=1.0)
    with pytest.raises(ValueError):
        onoff_bursty_arrivals(10, 0.05, on_fraction=1.0)
    with pytest.raises(ValueError):
        onoff_bursty_arrivals(10, 0.05, mean_burst_len=0)


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
