"""Frequency-reliability function (paper Sec. 3.4, Fig. 4, Eq. 3).

Disk *speed-transition frequency* is the number of spindle-speed changes
per day.  The paper builds its frequency-AFR adder in three steps:

1. start from IDEMA's spindle start/stop failure-rate adder (Fig. 4a),
   extended to [0, 1600] events/day with a quadratic fit;
2. show via the modified Coffin-Manson analysis
   (:mod:`repro.press.coffin_manson`) that one *speed transition* does
   roughly half the damage of one *start/stop* (N'_f is about twice
   N_f);
3. halve the IDEMA curve to get the frequency-reliability function, with
   the explicit quadratic (Eq. 3, AFR in percent):

       R(f) = 1.51e-5 f**2 - 1.09e-4 f + 1.39e-4,   f in [0, 1600].

Eq. 3 is implemented verbatim as the canonical artifact, with two
documented guards:

* the quadratic dips microscopically below zero near f ~ 3.6/day (an
  artifact of the unconstrained fit); a failure-rate *adder* cannot be
  negative, so output is clamped at 0;
* the paper's prose anchor "a start/stop rate of 10 per day would add
  0.15 to the AFR" is *inconsistent* with Eq. 3 (which gives ~5.6e-4 at
  f = 10); see DESIGN.md "Known internal inconsistencies", item 2.  We
  follow the equation, not the prose.

The un-halved IDEMA curve (Fig. 4a) is recovered as exactly twice Eq. 3.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.util.units import per_month_to_per_day
from repro.util.validation import require

__all__ = [
    "EQ3_COEFFICIENTS",
    "FREQUENCY_DOMAIN_PER_DAY",
    "frequency_afr_adder_percent",
    "idema_start_stop_adder_percent",
    "FrequencyReliability",
]

#: (a, b, c) of Eq. 3: R(f) = a f**2 + b f + c, AFR percent.
EQ3_COEFFICIENTS: tuple[float, float, float] = (1.51e-5, -1.09e-4, 1.39e-4)

#: Validity domain of Eq. 3, transitions per day.
FREQUENCY_DOMAIN_PER_DAY: tuple[float, float] = (0.0, 1600.0)


def _eval_quadratic(f: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    a, b, c = EQ3_COEFFICIENTS
    return np.maximum(a * f * f + b * f + c, 0.0).astype(np.float64)


def frequency_afr_adder_percent(transitions_per_day: float | npt.NDArray[np.float64],
                                *, clip_domain: bool = True) -> float | npt.NDArray[np.float64]:
    """Eq. 3: AFR adder (percent) for a given daily transition frequency.

    ``clip_domain=True`` (default) clamps inputs into [0, 1600] — the
    fitted range; with ``False`` inputs beyond 1600/day raise instead of
    silently extrapolating the quadratic.
    """
    f = np.asarray(transitions_per_day, dtype=np.float64)
    require(bool(np.all(np.isfinite(f))), "frequency must be finite")
    require(bool(np.all(f >= 0.0)), "frequency must be >= 0 per day")
    lo, hi = FREQUENCY_DOMAIN_PER_DAY
    if clip_domain:
        f = np.clip(f, lo, hi)
    else:
        require(bool(np.all(f <= hi)), f"frequency beyond Eq. 3 domain [0, {hi}] per day")
    out = _eval_quadratic(f)
    if np.ndim(transitions_per_day) == 0:
        return float(out)
    return out


def idema_start_stop_adder_percent(events_per_day: float | npt.NDArray[np.float64],
                                   *, per_month: bool = False) -> float | npt.NDArray[np.float64]:
    """The extended IDEMA start/stop adder (Fig. 4a): exactly 2x Eq. 3.

    ``per_month=True`` interprets the input as events per month (IDEMA's
    native axis, [0, 350]/month in the original standard) and converts
    with the 30-day month used throughout Sec. 3.4.
    """
    rate = np.asarray(events_per_day, dtype=np.float64)
    if per_month:
        rate = per_month_to_per_day(rate)
    out = 2.0 * np.asarray(frequency_afr_adder_percent(rate), dtype=np.float64)
    if np.ndim(events_per_day) == 0:
        return float(out)
    return out


class FrequencyReliability:
    """Callable wrapper around Eq. 3 matching the other two PRESS functions.

    Examples
    --------
    >>> f = FrequencyReliability()
    >>> round(f(0.0), 6)
    0.000139
    >>> f(1600.0) > f(100.0) > f(10.0)
    True
    """

    def __init__(self) -> None:
        self._domain = FREQUENCY_DOMAIN_PER_DAY

    def __call__(self, transitions_per_day: float | npt.NDArray[np.float64]) -> float | npt.NDArray[np.float64]:
        """AFR adder (percent) via Eq. 3, domain-clamped."""
        return frequency_afr_adder_percent(transitions_per_day)

    def curve(self, n_points: int = 161) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Sampled (freq/day, AFR %) over [0, 1600] — Fig. 4b's series."""
        require(n_points >= 2, "n_points must be >= 2")
        freqs = np.linspace(*self._domain, n_points)
        return freqs, np.asarray(self(freqs), dtype=np.float64)

    def idema_curve(self, n_points: int = 161) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Sampled (events/day, AFR %) of the un-halved adder — Fig. 4a."""
        freqs, halved = self.curve(n_points)
        return freqs, 2.0 * halved
