"""AFR-to-hazard-rate conversion: the one place a PRESS AFR becomes a
failure rate.

Its consumers are the fault injector (:mod:`repro.faults.injector`),
the CTMC (:mod:`repro.redundancy.ctmc`) and the failure Monte Carlo
(:mod:`repro.redundancy.montecarlo`).  It lives in :mod:`repro.press`
because it is pure reliability math on PRESS's output, and because both
:mod:`repro.faults` and :mod:`repro.redundancy` consume it, it must sit
below both in the import layering (ARCH001).
"""

from __future__ import annotations

import math

from repro.util.validation import require

__all__ = ["annual_failure_rate_to_rate"]


def annual_failure_rate_to_rate(afr_percent: float) -> float:
    """Poisson failure rate (per year) equivalent to an AFR.

    Solves ``1 - exp(-rate) == afr``: for small AFRs this is ~AFR, but
    the exact form stays meaningful for the pathological AFRs aggressive
    schemes can reach (Eq. 3 tops out near 38%).
    """
    require(0.0 <= afr_percent < 100.0,
            f"afr_percent must be in [0, 100), got {afr_percent}")
    return -math.log1p(-afr_percent / 100.0)
