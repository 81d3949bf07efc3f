"""Monte Carlo of a redundancy scheme with deterministic rebuilds.

PRESS ends at an Annualized Failure Rate; this module carries it to the
numbers an operator budgets for — how many disks fail over a horizon,
and how often data is *lost* once a :class:`GroupScheme` absorbs
failures — with rebuilds that take a fixed time, as the simulator's do.
It is the reference for the CTMC's exponential-repair assumption
(:mod:`repro.redundancy.ctmc`): both count losses over the same loss
units (:meth:`RedundancyGroups.loss_units`) from the same per-disk
rates (:func:`repro.press.hazard.annual_failure_rate_to_rate`).

Model
-----
* Each disk is a renewal process: up for Exp(lambda) years, with
  ``lambda`` its own rate, then down for exactly ``rebuild_hours``
  (a down disk does not fail again), then up again.
* A failure is a *loss event* when ``tolerance`` other members of its
  loss unit are already down.  A member's failures are more than one
  rebuild window apart, so in a unit's sorted failure times ``f`` that
  is ``f[i] - f[i - tolerance] < window``; a ``tolerance``-0 scheme
  (``none``) loses data on every failure.

The draws run over all trials at once, one renewal round per pass,
until every disk's next failure is past the horizon: no per-trial loop
and no truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.press.hazard import annual_failure_rate_to_rate
from repro.redundancy.ctmc import HOURS_PER_YEAR
from repro.redundancy.groups import RedundancyGroups
from repro.redundancy.scheme import GroupScheme
from repro.util.rngtools import SeedLike, rng_from
from repro.util.validation import require, require_positive

__all__ = ["FailureAnalysis", "simulate_failures"]


@dataclass(frozen=True, slots=True)
class FailureAnalysis:
    """Aggregate of one Monte Carlo failure study."""

    #: Scheme name the study describes.
    scheme: str
    years: float
    n_trials: int
    #: mean disk failures per trial
    expected_failures: float
    #: probability at least one *data loss* event occurred in the horizon
    p_data_loss: float
    #: mean number of data-loss events per trial
    mean_loss_events: float


def simulate_failures(scheme: GroupScheme, afr_percent: Sequence[float], *,
                      rebuild_hours: float, years: float = 5.0,
                      n_trials: int = 2_000,
                      seed: SeedLike = 0) -> FailureAnalysis:
    """Monte Carlo the failures and data-loss events of one array.

    ``afr_percent`` is one AFR per disk (e.g. a run's per-disk PRESS
    AFRs); the disk count must fill whole ``scheme`` groups.
    """
    require_positive(rebuild_hours, "rebuild_hours")
    require_positive(years, "years")
    require(n_trials >= 1, f"n_trials must be >= 1, got {n_trials}")
    units = RedundancyGroups(scheme, len(afr_percent)).loss_units()
    rates = np.array([annual_failure_rate_to_rate(a) for a in afr_percent])
    window = rebuild_hours / HOURS_PER_YEAR
    rng = rng_from(seed)

    # renewal rounds: every (trial, disk) whose next failure is inside
    # the horizon records it and draws the one after its rebuild
    failing = np.flatnonzero(rates > 0.0)
    disk = np.tile(failing, n_trials)
    trial = np.repeat(np.arange(n_trials), failing.size)
    clock = rng.exponential(1.0 / rates[disk])
    rounds = []
    while True:
        inside = clock < years
        disk, trial, clock = disk[inside], trial[inside], clock[inside]
        rounds.append((disk, trial, clock))
        if not disk.size:
            break
        clock = clock + window + rng.exponential(1.0 / rates[disk])
    disk, trial, clock = (np.concatenate(parts) for parts in zip(*rounds))

    # a loss event: ``tolerance`` earlier failures of the same unit, in
    # the same trial, within one rebuild window
    unit_of = np.empty(rates.size, dtype=np.int64)
    for u, members in enumerate(units):
        unit_of[list(members)] = u
    key = trial * len(units) + unit_of[disk]
    order = np.lexsort((clock, key))
    key, clock, trial = key[order], clock[order], trial[order]
    lag = scheme.fault_tolerance
    loss = ((key[lag:] == key[:key.size - lag])
            & (clock[lag:] - clock[:clock.size - lag] < window))
    losses = np.bincount(trial[lag:][loss], minlength=n_trials)

    return FailureAnalysis(
        scheme=scheme.name,
        years=years,
        n_trials=n_trials,
        expected_failures=clock.size / n_trials,
        p_data_loss=float(np.mean(losses > 0)),
        mean_loss_events=float(losses.mean()),
    )
