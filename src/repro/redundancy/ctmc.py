"""CTMC reliability of redundancy groups: MTTDL and mission loss risk.

PRESS aggregates array reliability as ``max(per-disk AFR)`` (the paper's
Sec. 3.5 convention).  That is a *component* statement — it says nothing
about how redundancy absorbs failures or how rebuild speed races the
next failure.  This module models each independent data-loss unit (a
parity group, or one replica set of a mirror group) as a birth-death
continuous-time Markov chain:

* state ``j`` = ``j`` members of the unit down, ``0 <= j <= tolerance``;
* failure transitions ``j -> j+1`` at rate ``(n - j) * lambda``
  (surviving members fail independently at the PRESS-derived rate);
* repair transitions ``j -> j-1`` at rate ``j * mu`` (each down member
  rebuilds at the measured rebuild rate, repairs proceed in parallel);
* state ``tolerance + 1`` is absorbing data loss.

MTTDL is the expected absorption time from the all-up state, obtained
from the transient generator ``Q_T`` by solving ``-Q_T t = 1`` —
exact, no simulation.  ``P(loss within mission)`` integrates the same
chain by uniformization (Poisson-weighted powers of the discretized
chain, interval-split so the weights never underflow), pure numpy and
deterministic.  The sub-intervals share one weight sequence, computed
once per call; each Poisson term costs one vector-matrix product and
the weighted terms are summed by a left fold, so the result is
bit-identical to summing the terms one at a time.  The cost still grows
with ``rate * mission`` (the number of sub-intervals).

The rates are *physical*: ``lambda`` comes from
:func:`repro.press.hazard.annual_failure_rate_to_rate` on PRESS's
per-disk AFRs (no acceleration factor — acceleration is a simulation
device), and ``mu`` from the measured (or estimated) rebuild hours.

Divergence from max-AFR, by construction: max-AFR is scheme-blind — it
reports the same number for a bare array and a triple mirror.  The CTMC
answers the question the cost model actually asks (how often is data
*lost*), which for ``block4-2`` at realistic rates is orders of
magnitude rarer than a disk failure, and for ``scheme=none`` degenerates
to exactly the per-disk failure rate (the cross-check
:func:`mirror_mttdl_closed_form` and the tests pin both ends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

from repro.press.hazard import annual_failure_rate_to_rate
from repro.redundancy.groups import RedundancyGroups
from repro.redundancy.scheme import GroupScheme
from repro.util.units import SECONDS_PER_YEAR
from repro.util.validation import require, require_positive

__all__ = ["CtmcResult", "HOURS_PER_YEAR", "assess_scheme",
           "loss_probability", "mirror_mttdl_closed_form", "mttdl_years"]

HOURS_PER_YEAR: float = SECONDS_PER_YEAR / 3600.0

#: Uniformization interval splitting: each sub-interval carries at most
#: this much integrated uniformized rate, so ``exp(-rate * dt)`` stays
#: far from underflow and the Poisson tail truncates after ~90 terms.
_MAX_RATE_DT = 30.0
#: Poisson tail weight below which the term series is truncated.
_TAIL_EPS = 1e-16


def _transient_generator(unit_size: int, tolerance: int, lam: float,
                         mu: float) -> npt.NDArray[np.float64]:
    """Generator restricted to the transient states ``0..tolerance``.

    Diagonal entries include the outflow into the absorbing loss state,
    so ``-Q_T @ t = 1`` yields expected absorption times directly.
    """
    dim = tolerance + 1
    q = np.zeros((dim, dim), dtype=np.float64)
    for j in range(dim):
        q[j, j] = -((unit_size - j) * lam + j * mu)
        if j < tolerance:
            q[j, j + 1] = (unit_size - j) * lam
        if j > 0:
            q[j, j - 1] = j * mu
    return q


def mttdl_years(unit_size: int, tolerance: int, lam: float,
                mu: float) -> float:
    """Mean time to data loss (years) of one unit, from the all-up state.

    ``lam``/``mu`` are per-member failure / per-repair rates in events
    per year.  ``lam == 0`` yields ``inf`` (nothing ever fails).
    """
    require(1 <= unit_size, f"unit_size must be >= 1, got {unit_size}")
    require(0 <= tolerance < unit_size,
            f"tolerance must be in [0, unit_size), got {tolerance}")
    require(0.0 <= lam < math.inf, f"lam must be finite and >= 0, got {lam}")
    require(0.0 <= mu < math.inf, f"mu must be finite and >= 0, got {mu}")
    if lam <= 0.0:
        return math.inf
    q = _transient_generator(unit_size, tolerance, lam, mu)
    times = np.linalg.solve(-q, np.ones(tolerance + 1, dtype=np.float64))
    return float(times[0])


def loss_probability(unit_size: int, tolerance: int, lam: float, mu: float,
                     years: float) -> float:
    """P(one unit loses data within ``years``), by uniformization.

    Splits the horizon into ``n_steps`` equal sub-intervals so each
    carries at most :data:`_MAX_RATE_DT` of uniformized rate mass;
    within a sub-interval the transition operator ``exp(Q_T dt)`` is
    applied to the state distribution as a Poisson-weighted sum of
    powers of the substochastic DTMC ``I + Q_T / rate``.  ``rate * dt``
    is the same in every sub-interval, so the Poisson weights and the
    term count are computed once per call.  Each sub-interval then
    costs one vector-matrix product per term, written into a row of a
    preallocated array, and one left-to-right ``add.accumulate`` over
    the weighted rows — the same IEEE operations, in the same order, as
    summing ``acc = acc + weight * power`` term by term, so the result
    is bit-identical to that loop.  The cost is O(rate * years)
    products.  Pure numpy, deterministic, no underflow for any
    realistic (lam, mu, mission) combination.
    """
    require(1 <= unit_size, f"unit_size must be >= 1, got {unit_size}")
    require(0 <= tolerance < unit_size,
            f"tolerance must be in [0, unit_size), got {tolerance}")
    require(0.0 <= years < math.inf, f"years must be finite and >= 0, got {years}")
    require(0.0 <= lam < math.inf, f"lam must be finite and >= 0, got {lam}")
    require(0.0 <= mu < math.inf, f"mu must be finite and >= 0, got {mu}")
    if lam <= 0.0 or years <= 0.0:
        return 0.0
    q = _transient_generator(unit_size, tolerance, lam, mu)
    rate = float(np.max(-np.diag(q)))
    dtmc = np.eye(tolerance + 1, dtype=np.float64) + q / rate
    n_steps = max(1, math.ceil(rate * years / _MAX_RATE_DT))
    rate_dt = rate * (years / n_steps)
    weight = math.exp(-rate_dt)
    weights = [weight]
    m = 1
    while True:
        weight *= rate_dt / m
        weights.append(weight)
        if m >= rate_dt and weight < _TAIL_EPS:
            break
        m += 1
    w = np.array(weights, dtype=np.float64)[:, None]
    powers = np.empty((len(weights), tolerance + 1), dtype=np.float64)
    rows = list(zip(powers[:-1], powers[1:]))
    state = np.zeros(tolerance + 1, dtype=np.float64)
    state[0] = 1.0
    dot = np.dot  # one lookup, not one per term: this loop is the cost
    for _ in range(n_steps):
        powers[0] = state
        for src, dst in rows:
            dot(src, dtmc, out=dst)
        state = np.add.accumulate(w * powers, axis=0)[-1]
    survival = float(np.sum(state))
    return min(1.0, max(0.0, 1.0 - survival))


def mirror_mttdl_closed_form(lam: float, mu: float) -> float:
    """Closed-form MTTDL (years) of a 2-way mirror: ``(3*lam + mu) / (2*lam^2)``.

    The textbook repair-before-second-failure result (Gibson's RAID-1
    derivation; PAPERS.md's Markov storage-reliability line): starting
    with both copies up, expected time until both are simultaneously
    down.  The CTMC with ``unit_size=2, tolerance=1`` must reproduce it
    exactly — the property test in ``tests/redundancy`` pins that.
    """
    require_positive(lam, "lam")
    require(0.0 <= mu < math.inf, f"mu must be finite and >= 0, got {mu}")
    return (3.0 * lam + mu) / (2.0 * lam * lam)


@dataclass(frozen=True, slots=True)
class CtmcResult:
    """Array-level reliability of one scheme under the CTMC model.

    Frozen and built from plain floats so it survives the pickle hop of
    the parallel sweep executor.
    """

    #: Scheme name the assessment describes.
    scheme: str
    #: Independent data-loss units in the array (groups, or replica sets).
    n_units: int
    #: Disks per unit.
    unit_size: int
    #: Failures one unit absorbs without loss.
    tolerance: int
    #: Worst per-disk failure rate used (events/year, PRESS-derived).
    failure_rate_per_year: float
    #: Rebuild (repair) rate per down disk (events/year).
    rebuild_rate_per_year: float
    #: Rebuild duration the rate was derived from (hours).
    rebuild_hours: float
    #: MTTDL of the worst single unit (years).
    mttdl_unit_years: float
    #: MTTDL of the whole array (years; units race independently).
    mttdl_array_years: float
    #: P(the worst unit loses data within the mission).
    p_loss_unit: float
    #: P(any unit loses data within the mission).
    p_loss_array: float
    #: Mission horizon the probabilities integrate over (years).
    mission_years: float

    @property
    def loss_events_per_year(self) -> float:
        """Long-run data-loss incidents per year (0 when MTTDL is inf)."""
        if not math.isfinite(self.mttdl_array_years):
            return 0.0
        return 1.0 / self.mttdl_array_years

    def summary_row(self) -> dict[str, object]:
        """Flat dict for tabular reporting."""
        return {
            "ctmc_scheme": self.scheme,
            "mttdl_array_years": (float("inf")
                                  if not math.isfinite(self.mttdl_array_years)
                                  else round(self.mttdl_array_years, 3)),
            "p_loss_mission": self.p_loss_array,
            "mission_years": self.mission_years,
            "rebuild_hours": round(self.rebuild_hours, 3),
        }


def assess_scheme(scheme: GroupScheme,
                  per_disk_afr_percent: Sequence[float], *,
                  rebuild_hours: float,
                  mission_years: float = 1.0) -> CtmcResult:
    """Assess one scheme over an array's PRESS per-disk AFRs.

    Each unit's failure rate is the *max* of its members' converted
    rates — PRESS's "least reliable disk" convention applied at the
    unit level, so the CTMC disagrees with max-AFR only where the
    redundancy math itself does.  ``rebuild_hours`` should be the
    measured mean rebuild duration of the run (or a transfer-time
    estimate when no rebuild happened).
    """
    require(len(per_disk_afr_percent) >= 1,
            "per_disk_afr_percent must not be empty")
    require_positive(rebuild_hours, "rebuild_hours")
    require_positive(mission_years, "mission_years")
    groups = RedundancyGroups(scheme, len(per_disk_afr_percent))
    rates = [annual_failure_rate_to_rate(a) for a in per_disk_afr_percent]
    mu = HOURS_PER_YEAR / rebuild_hours
    unit_size = scheme.loss_unit_size
    tolerance = scheme.fault_tolerance

    hazard_sum = 0.0
    worst_mttdl = math.inf
    worst_p = 0.0
    log_survival = 0.0
    cache: dict[float, tuple[float, float]] = {}
    units = groups.loss_units()
    for unit in units:
        lam = max(rates[d] for d in unit)
        if lam not in cache:
            cache[lam] = (
                mttdl_years(unit_size, tolerance, lam, mu),
                loss_probability(unit_size, tolerance, lam, mu, mission_years),
            )
        mttdl_u, p_u = cache[lam]
        if math.isfinite(mttdl_u):
            hazard_sum += 1.0 / mttdl_u
        worst_mttdl = min(worst_mttdl, mttdl_u)
        worst_p = max(worst_p, p_u)
        # accumulate in log space: sum log(1-p) is stable for tiny p
        log_survival += math.log1p(-min(p_u, 1.0 - 1e-15))

    return CtmcResult(
        scheme=scheme.name,
        n_units=len(units),
        unit_size=unit_size,
        tolerance=tolerance,
        failure_rate_per_year=max(rates),
        rebuild_rate_per_year=mu,
        rebuild_hours=rebuild_hours,
        mttdl_unit_years=worst_mttdl,
        mttdl_array_years=(math.inf if hazard_sum <= 0.0 else 1.0 / hazard_sum),
        p_loss_unit=worst_p,
        p_loss_array=min(1.0, max(0.0, 1.0 - math.exp(log_survival))),
        mission_years=mission_years,
    )
