"""Temperature-reliability function (paper Sec. 3.2, Fig. 2b).

The paper adopts the Google/FAST'07 field statistics for **3-year-old**
disks as its temperature-AFR curve, arguing (Sec. 3.2) that the third
year is where the accumulated damage of earlier high-temperature
operation surfaces as failures, while 4-year data "loses" the hidden
failures and younger-disk data hides the effect entirely.

The published source is a bar chart, not a table, so the anchors below
are digitized estimates (see DESIGN.md "Digitized Google-data anchors").
Between anchors we interpolate with PCHIP — monotone by construction, so
the model preserves the one property every downstream claim rests on:
**AFR is non-decreasing in temperature**.  Outside the observed range
the curve is clamped to the boundary values rather than extrapolated
(field data gives no license to extrapolate a bar chart).

The PCHIP is implemented here rather than imported: :class:`_Pchip`
computes scipy's ``PchipInterpolator`` coefficients with the same numpy
expressions and evaluates them in the same float-op order, so its output
is bit-identical to scipy's (``tests/press/test_pchip.py`` checks this
against scipy) while the simulation path imports no scipy module.  The
curve's bits therefore no longer depend on the installed scipy version.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

from repro.util.validation import require

__all__ = ["GOOGLE_3YR_TEMPERATURE_ANCHORS", "TemperatureReliability"]

#: (temperature degC, AFR percent) anchors digitized from [22]'s Fig. 5,
#: 3-year-old population.
GOOGLE_3YR_TEMPERATURE_ANCHORS: tuple[tuple[float, float], ...] = (
    (25.0, 4.5),
    (30.0, 5.0),
    (35.0, 6.5),
    (40.0, 9.0),
    (45.0, 12.0),
    (50.0, 15.0),
)


def _edge_derivative(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope (scipy ``PchipInterpolator._edge_case``)."""
    d = ((2*h0 + h1)*m0 - h0*m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.*abs(m0):
        return 3.*m0
    return d


class _Pchip:
    """Piecewise cubic Hermite interpolant, bit-identical to scipy's PCHIP.

    Coefficients follow ``PchipInterpolator._find_derivatives`` and
    ``CubicHermiteSpline.__init__``; evaluation follows ``_ppoly``'s
    ``evaluate_poly1``.  Intervals are right-continuous and the last knot
    belongs to the last interval.  Callers keep inputs inside the knots.
    """

    def __init__(self, x: npt.NDArray[np.float64], y: npt.NDArray[np.float64]) -> None:
        hk = x[1:] - x[:-1]
        mk = (y[1:] - y[:-1]) / hk
        dk = np.zeros_like(y)
        if y.shape[0] == 2:
            dk[:] = mk[0]
        else:
            smk = np.sign(mk)
            condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
            w1 = 2*hk[1:] + hk[:-1]
            w2 = hk[1:] + 2*hk[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1/mk[:-1] + w2/mk[1:]) / (w1 + w2)
            dk[1:-1][~condition] = 1.0 / whmean[~condition]
            dk[0] = _edge_derivative(hk[0], hk[1], mk[0], mk[1])
            dk[-1] = _edge_derivative(hk[-1], hk[-2], mk[-1], mk[-2])
        # CubicHermiteSpline recomputes hk and mk as dx and slope with
        # the same subtractions and division, so reusing them is exact
        t = (dk[:-1] + dk[1:] - 2 * mk) / hk
        #: Row k multiplies s**(3-k), s being the offset into the interval.
        self._c = np.stack((t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1]))
        self._x = x
        self._inner = x[1:-1]

    def __call__(self, t: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        # counting the interior knots <= t gives the interval directly
        i = np.searchsorted(self._inner, t, side="right")
        s = t - self._x[i]
        c = self._c[:, i]
        res: Any = 0.0
        z: Any = 1.0
        for k in range(4):  # ascending powers; 1.0 is scipy's value prefactor
            res = res + c[3 - k]*z*1.0
            z = z*s
        return np.asarray(res, dtype=np.float64)


class TemperatureReliability:
    """Callable mapping operating temperature (degC) to AFR (percent).

    Parameters
    ----------
    anchors:
        ``(temp_c, afr_percent)`` pairs, strictly increasing in both
        coordinates.  Defaults to the digitized 3-year-old Google data.

    Examples
    --------
    >>> f = TemperatureReliability()
    >>> f(40.0)
    9.0
    >>> f(50.0) > f(35.0)
    True
    """

    def __init__(self, anchors: tuple[tuple[float, float], ...] = GOOGLE_3YR_TEMPERATURE_ANCHORS) -> None:
        require(len(anchors) >= 2, "need at least two anchors")
        temps = np.array([a[0] for a in anchors], dtype=np.float64)
        afrs = np.array([a[1] for a in anchors], dtype=np.float64)
        require(bool(np.all(np.diff(temps) > 0)), "anchor temperatures must be strictly increasing")
        require(bool(np.all(np.diff(afrs) >= 0)), "anchor AFRs must be non-decreasing")
        require(bool(np.all(afrs >= 0)), "anchor AFRs must be non-negative")
        self._t_min = float(temps[0])
        self._t_max = float(temps[-1])
        self._interp = _Pchip(temps, afrs)
        self._lo_val = float(afrs[0])
        self._hi_val = float(afrs[-1])

    def __call__(self, temp_c: float | npt.NDArray[np.float64]) -> float | npt.NDArray[np.float64]:
        """AFR (percent) at ``temp_c``; clamped outside the anchor range."""
        t = np.asarray(temp_c, dtype=np.float64)
        require(bool(np.all(np.isfinite(t))), "temperature must be finite")
        clipped = np.clip(t, self._t_min, self._t_max)
        out = self._interp(clipped)
        if np.ndim(temp_c) == 0:
            return float(out)
        return np.asarray(out, dtype=np.float64)

    def curve(self, n_points: int = 101) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Sampled (temps, AFRs) over the anchor domain — Fig. 2b's series."""
        require(n_points >= 2, "n_points must be >= 2")
        temps = np.linspace(self._t_min, self._t_max, n_points)
        return temps, np.asarray(self(temps), dtype=np.float64)
