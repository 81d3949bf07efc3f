"""Arrival-time processes for synthetic traces.

The paper reports a mean request inter-arrival of 58.4 ms for the
WorldCup98-05-09 day it replays; the "heavy workload condition" of
Fig. 7b is the same trace compressed in time.  All generators below
return a sorted 1-D array of absolute arrival times in seconds starting
at 0.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.util.rngtools import SeedLike, rng_from
from repro.util.validation import require, require_positive

__all__ = [
    "poisson_arrivals",
    "onoff_bursty_arrivals",
    "onoff_bursty_gap_runs",
    "diurnal_poisson_arrivals",
]


def poisson_arrivals(n: int, mean_interarrival_s: float, seed: SeedLike = None) -> np.ndarray:
    """Homogeneous Poisson process: exponential i.i.d. inter-arrivals."""
    require(n >= 0, f"n must be >= 0, got {n}")
    require_positive(mean_interarrival_s, "mean_interarrival_s")
    rng = rng_from(seed)
    gaps = rng.exponential(mean_interarrival_s, size=n)
    return np.cumsum(gaps)


def onoff_bursty_gap_runs(n: int, mean_interarrival_s: float, *,
                          burst_factor: float = 8.0, mean_burst_len: int = 50,
                          on_fraction: float = 0.3,
                          seed: SeedLike = None) -> Iterator[np.ndarray]:
    """Per-burst inter-arrival gaps of the ON/OFF process, one run at a time.

    Yields the exponential gap array of each ON/OFF run in order; the
    concatenation of all runs is exactly the gap sequence
    :func:`onoff_bursty_arrivals` cumsums, drawn from the RNG in the
    identical order (the run-length clamp uses the *global* ``n``, so a
    streaming consumer sees the same bitstream as the batch path).  This
    is the primitive ``repro.workload.stream`` builds constant-memory
    iteration on: peak state is one run, not the whole trace.
    """
    require(n >= 0, f"n must be >= 0, got {n}")
    require_positive(mean_interarrival_s, "mean_interarrival_s")
    require(burst_factor > 1.0, f"burst_factor must be > 1, got {burst_factor}")
    require(0.0 < on_fraction < 1.0, f"on_fraction must be in (0,1), got {on_fraction}")
    require(mean_burst_len >= 1, f"mean_burst_len must be >= 1, got {mean_burst_len}")

    on_gap = mean_interarrival_s / burst_factor
    # overall mean = on_fraction*on_gap + (1-on_fraction)*off_gap  =>  solve off_gap
    off_gap = (mean_interarrival_s - on_fraction * on_gap) / (1.0 - on_fraction)

    rng = rng_from(seed)
    # run lengths are in *requests*: OFF runs are sized so the expected
    # fraction of requests emitted while ON equals on_fraction, which is
    # what makes the mean-gap calibration above exact
    mean_off_len = mean_burst_len * (1.0 - on_fraction) / on_fraction
    i = 0
    state_on = bool(rng.random() < on_fraction)
    while i < n:
        mean_len = mean_burst_len if state_on else mean_off_len
        run = 1 + rng.geometric(1.0 / max(mean_len, 1.0))
        run = min(run, n - i)
        scale = on_gap if state_on else off_gap
        yield rng.exponential(scale, size=run)
        i += run
        state_on = not state_on


def onoff_bursty_arrivals(n: int, mean_interarrival_s: float, *,
                          burst_factor: float = 8.0, mean_burst_len: int = 50,
                          on_fraction: float = 0.3, seed: SeedLike = None) -> np.ndarray:
    """Two-state Markov-modulated Poisson process (bursty web traffic).

    Alternates ON bursts (inter-arrivals ``burst_factor`` times shorter)
    with OFF stretches.  ``on_fraction`` is the expected fraction of
    requests emitted while ON; the OFF-state gap is solved so the overall
    mean inter-arrival stays exactly ``mean_interarrival_s``.
    """
    gaps = np.empty(n, dtype=np.float64)
    i = 0
    for run in onoff_bursty_gap_runs(n, mean_interarrival_s,
                                     burst_factor=burst_factor,
                                     mean_burst_len=mean_burst_len,
                                     on_fraction=on_fraction, seed=seed):
        gaps[i:i + run.size] = run
        i += run.size
    return np.cumsum(gaps)


def diurnal_poisson_arrivals(n: int, mean_interarrival_s: float, *,
                             period_s: float = 86400.0, amplitude: float = 0.6,
                             seed: SeedLike = None) -> np.ndarray:
    """Non-homogeneous Poisson process with a sinusoidal daily rate.

    Rate ``lambda(t) = lambda0 * (1 + amplitude * sin(2 pi t / period))``,
    generated by thinning.  Models the day/night swing the paper's
    future-work section calls "fully dynamic" access patterns.
    """
    require(n >= 0, f"n must be >= 0, got {n}")
    require_positive(mean_interarrival_s, "mean_interarrival_s")
    require_positive(period_s, "period_s")
    require(0.0 <= amplitude < 1.0, f"amplitude must be in [0,1), got {amplitude}")

    rng = rng_from(seed)
    lam0 = 1.0 / mean_interarrival_s
    lam_max = lam0 * (1.0 + amplitude)
    times = np.empty(n, dtype=np.float64)
    t = 0.0
    count = 0
    while count < n:
        # candidate points from the dominating homogeneous process, thinned
        batch = max(1024, n - count)
        gaps = rng.exponential(1.0 / lam_max, size=batch)
        candidates = t + np.cumsum(gaps)
        accept_p = (1.0 + amplitude * np.sin(2.0 * np.pi * candidates / period_s)) / (1.0 + amplitude)
        keep = candidates[rng.random(batch) < accept_p]
        take = min(keep.size, n - count)
        times[count:count + take] = keep[:take]
        count += take
        t = candidates[-1]
    return times
