"""Sensitivity analysis of the PRESS model (Sec. 3.5's insight ranking,
made quantitative).

The paper ranks the ESRRA factors by importance — frequency first,
temperature second, utilization last — from inspection of the model.
This module computes that ranking for *any* operating point and factor
ranges: tornado swings (one-at-a-time low/high excursions), 1-D partial
effect curves, and local sensitivities, all against a configurable
:class:`~repro.press.model.PRESSModel` so the ablation integrators can
be analyzed too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.press.model import PRESSModel
from repro.util.validation import require

__all__ = ["FactorRange", "DEFAULT_RANGES", "TornadoBar", "tornado",
           "partial_effect"]

FACTORS = ("temperature", "utilization", "frequency")


@dataclass(frozen=True, slots=True)
class FactorRange:
    """Excursion range of one ESRRA factor."""

    low: float
    high: float

    def __post_init__(self) -> None:
        require(self.low <= self.high, "range low must be <= high")


#: The operating envelope of the paper's two-speed disks: temperatures
#: between the low-speed and high-speed steady states, the utilization
#: function's domain, and Eq. 3's frequency domain.
DEFAULT_RANGES: dict[str, FactorRange] = {
    "temperature": FactorRange(35.0, 50.0),
    "utilization": FactorRange(25.0, 100.0),
    "frequency": FactorRange(0.0, 1600.0),
}


@dataclass(frozen=True, slots=True)
class TornadoBar:
    """One factor's one-at-a-time excursion around the base point."""

    factor: str
    afr_at_low: float
    afr_at_high: float
    base_afr: float

    @property
    def swing(self) -> float:
        """Total AFR movement across the factor's range."""
        return abs(self.afr_at_high - self.afr_at_low)


def _evaluate(press: PRESSModel, temp: float, util: float, freq: float) -> float:
    return press.disk_afr(temp, util, freq)


def _point_with(base: dict[str, float], factor: str, value: float) -> dict[str, float]:
    out = dict(base)
    out[factor] = value
    return out


def _check_base(base: dict[str, float]) -> None:
    require(set(base) == set(FACTORS),
            f"base point must have exactly the keys {FACTORS}")


def tornado(press: PRESSModel | None = None, *,
            base: dict[str, float] | None = None,
            ranges: dict[str, FactorRange] | None = None) -> list[TornadoBar]:
    """One-at-a-time sensitivity bars, sorted by swing (largest first).

    Defaults: the paper's default model, a mid-envelope base point
    (42.5 degC, 50 % utilization, 40 transitions/day — READ's cap), and
    :data:`DEFAULT_RANGES`.
    """
    model = press or PRESSModel()
    pt = base or {"temperature": 42.5, "utilization": 50.0, "frequency": 40.0}
    _check_base(pt)
    rngs = ranges or DEFAULT_RANGES
    require(set(rngs) == set(FACTORS), f"ranges must cover exactly {FACTORS}")

    base_afr = _evaluate(model, pt["temperature"], pt["utilization"], pt["frequency"])
    bars: list[TornadoBar] = []
    for factor in FACTORS:
        lo_pt = _point_with(pt, factor, rngs[factor].low)
        hi_pt = _point_with(pt, factor, rngs[factor].high)
        bars.append(TornadoBar(
            factor=factor,
            afr_at_low=_evaluate(model, lo_pt["temperature"], lo_pt["utilization"],
                                 lo_pt["frequency"]),
            afr_at_high=_evaluate(model, hi_pt["temperature"], hi_pt["utilization"],
                                  hi_pt["frequency"]),
            base_afr=base_afr,
        ))
    return sorted(bars, key=lambda b: b.swing, reverse=True)


def partial_effect(factor: str, *, press: PRESSModel | None = None,
                   base: dict[str, float] | None = None,
                   n_points: int = 33,
                   factor_range: FactorRange | None = None
                   ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """1-D AFR curve along one factor, others held at the base point."""
    require(factor in FACTORS, f"factor must be one of {FACTORS}")
    require(n_points >= 2, "n_points must be >= 2")
    model = press or PRESSModel()
    pt = base or {"temperature": 42.5, "utilization": 50.0, "frequency": 40.0}
    _check_base(pt)
    rng = factor_range or DEFAULT_RANGES[factor]
    xs = np.linspace(rng.low, rng.high, n_points)
    ys = np.array([
        _evaluate(model, *(_point_with(pt, factor, float(x))[k]
                           for k in FACTORS))
        for x in xs
    ])
    return xs, ys
