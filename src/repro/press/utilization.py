"""Utilization-reliability function (paper Sec. 3.3, Fig. 3b).

Utilization is "the fraction of active time of a drive out of its total
power-on time".  The paper converts the Google study's low/medium/high
categories into numeric ranges —

* low:    [25, 50) percent
* medium: [50, 75) percent
* high:   [75, 100] percent

— and adopts the **4-year-old** population's AFR per bucket (their
reasoning for rejecting the 2/3-year groups is reproduced in DESIGN.md).
The canonical function is therefore a step function over those ranges;
a smooth monotone variant (piecewise-linear through bucket midpoints) is
provided for the Fig. 5 surfaces where a step function would print
artificial cliffs, and for gradient-based what-if analyses.

Utilizations below 25 % are clamped to the low bucket: the source data
simply has no colder bin, and the paper's own domain is [25, 100].
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.util.validation import require

__all__ = ["GOOGLE_4YR_UTILIZATION_BUCKETS", "UtilizationReliability"]

#: (bucket lower edge percent, AFR percent) for the low/medium/high
#: categories, digitized from [22]'s Fig. 3, 4-year-old population.
GOOGLE_4YR_UTILIZATION_BUCKETS: tuple[tuple[float, float], ...] = (
    (25.0, 6.0),   # low    [25, 50)
    (50.0, 8.0),   # medium [50, 75)
    (75.0, 12.0),  # high   [75, 100]
)

_BUCKET_WIDTH = 25.0


class UtilizationReliability:
    """Callable mapping utilization (percent) to AFR (percent).

    Parameters
    ----------
    buckets:
        ``(lower_edge_percent, afr_percent)`` triples of equal 25-point
        width; defaults to the digitized 4-year-old Google data.
    smooth:
        ``False`` (default): the paper's step function.  ``True``:
        monotone piecewise-linear through bucket midpoints, clamped flat
        beyond the outer midpoints.
    """

    def __init__(self, buckets: tuple[tuple[float, float], ...] = GOOGLE_4YR_UTILIZATION_BUCKETS,
                 *, smooth: bool = False) -> None:
        require(len(buckets) >= 2, "need at least two buckets")
        edges = np.array([b[0] for b in buckets], dtype=np.float64)
        afrs = np.array([b[1] for b in buckets], dtype=np.float64)
        require(bool(np.all(np.diff(edges) > 0)), "bucket edges must be strictly increasing")
        require(bool(np.all(np.diff(afrs) >= 0)), "bucket AFRs must be non-decreasing")
        require(bool(np.all(afrs >= 0)), "bucket AFRs must be non-negative")
        self._edges = edges
        self._afrs = afrs
        self._smooth = smooth
        self._midpoints = edges + _BUCKET_WIDTH / 2.0

    @property
    def smooth(self) -> bool:
        """Whether this instance interpolates between bucket midpoints."""
        return self._smooth

    def __call__(self, utilization_percent: float | npt.NDArray[np.float64]) -> float | npt.NDArray[np.float64]:
        """AFR (percent) for utilization in percent (clamped to [25, 100])."""
        u = np.asarray(utilization_percent, dtype=np.float64)
        require(bool(np.all(np.isfinite(u))), "utilization must be finite")
        require(bool(np.all(u >= 0.0)) and bool(np.all(u <= 100.0 + 1e-9)),
                "utilization must be in [0, 100] percent")
        clipped = np.clip(u, self._edges[0], self._edges[-1] + _BUCKET_WIDTH)
        if self._smooth:
            out = np.interp(clipped, self._midpoints, self._afrs)
        else:
            idx = np.clip(np.searchsorted(self._edges, clipped, side="right") - 1,
                          0, len(self._afrs) - 1)
            out = self._afrs[idx]
        if np.ndim(utilization_percent) == 0:
            return float(out)
        return np.asarray(out, dtype=np.float64)

    def curve(self, n_points: int = 151) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Sampled (utilization %, AFR %) over [25, 100] — Fig. 3b's series."""
        require(n_points >= 2, "n_points must be >= 2")
        utils = np.linspace(25.0, 100.0, n_points)
        return utils, np.asarray(self(utils), dtype=np.float64)
