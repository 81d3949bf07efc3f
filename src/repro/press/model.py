"""The assembled PRESS model (paper Fig. 1, Sec. 3.5).

``PRESSModel`` wires the three reliability functions into the
integrator.  It is consumed two ways:

* analytically — :meth:`PRESSModel.disk_afr` on explicit factor values,
  and :meth:`PRESSModel.afr_surface` for the Fig. 5 surfaces;
* against a simulation — :meth:`PRESSModel.evaluate_array` turns the
  disks' closed ledgers (:class:`~repro.disk.ledger.ClosedDiskLedger`)
  into the three ESRRA factors, scores them, and reduces over the array
  with the max rule; :meth:`PRESSModel.factors_of` scores one live
  :class:`~repro.disk.TwoSpeedDrive` through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import numpy.typing as npt

from repro.disk.drive import TwoSpeedDrive
from repro.disk.ledger import ClosedDiskLedger
from repro.press.frequency import FrequencyReliability
from repro.press.integrator import CombinationStrategy, ReliabilityIntegrator
from repro.press.temperature import TemperatureReliability
from repro.press.utilization import UtilizationReliability
from repro.util.units import SECONDS_PER_DAY
from repro.util.validation import require, require_positive

__all__ = ["DiskFactors", "PRESSModel"]


@dataclass(frozen=True, slots=True)
class DiskFactors:
    """The three ESRRA factors of one disk, plus its resulting AFR."""

    disk_id: int
    mean_temperature_c: float
    utilization_percent: float
    transitions_per_day: float
    afr_percent: float


class PRESSModel:
    """Predictor of Reliability for Energy-Saving Schemes.

    Parameters
    ----------
    temperature / utilization / frequency:
        The three reliability functions; defaults are the paper's.
    integrator:
        Combination + reduction rules; defaults to MEAN_PLUS_ADDER / max.

    Examples
    --------
    >>> press = PRESSModel()
    >>> low = press.disk_afr(40.0, 30.0, 5.0)
    >>> high = press.disk_afr(50.0, 90.0, 200.0)
    >>> high > low
    True
    """

    def __init__(self, *, temperature: TemperatureReliability | None = None,
                 utilization: UtilizationReliability | None = None,
                 frequency: FrequencyReliability | None = None,
                 integrator: ReliabilityIntegrator | None = None) -> None:
        self.temperature = temperature or TemperatureReliability()
        self.utilization = utilization or UtilizationReliability()
        self.frequency = frequency or FrequencyReliability()
        self.integrator = integrator or ReliabilityIntegrator()

    @classmethod
    def with_strategy(cls, strategy: CombinationStrategy,
                      **kwargs: float) -> "PRESSModel":
        """Build a model differing from the default only in combination rule."""
        return cls(integrator=ReliabilityIntegrator(strategy, **kwargs))

    # ------------------------------------------------------------------
    # analytic interface
    # ------------------------------------------------------------------
    def disk_afr(self, temp_c: float, utilization_percent: float,
                 transitions_per_day: float) -> float:
        """AFR (percent) of one disk from its three ESRRA factor values."""
        t_afr = self.temperature(temp_c)
        u_afr = self.utilization(utilization_percent)
        f_afr = self.frequency(transitions_per_day)
        return float(self.integrator.disk_afr(t_afr, u_afr, f_afr))

    def disk_afr_batch(self, temp_c: npt.ArrayLike,
                       utilization_percent: npt.ArrayLike,
                       transitions_per_day: npt.ArrayLike) -> npt.NDArray[np.float64]:
        """AFR of many disks in one call — the whole-array form of
        :meth:`disk_afr`.

        All three reliability functions are elementwise (PCHIP
        evaluation, step lookup, quadratic), so batch evaluation is
        bit-identical to calling :meth:`disk_afr` per element —
        :meth:`evaluate_array` and :meth:`rescore_factors` rely on that
        equivalence (the goldens pin it).
        """
        t_afr = np.asarray(self.temperature(np.asarray(temp_c, dtype=np.float64)),
                           dtype=np.float64)
        u_afr = np.asarray(self.utilization(np.asarray(utilization_percent,
                                                       dtype=np.float64)),
                           dtype=np.float64)
        f_afr = np.asarray(self.frequency(np.asarray(transitions_per_day,
                                                     dtype=np.float64)),
                           dtype=np.float64)
        return np.asarray(self.integrator.disk_afr(t_afr, u_afr, f_afr),
                          dtype=np.float64)

    def afr_surface(self, temp_c: float, utilization_percent: npt.ArrayLike,
                    transitions_per_day: npt.ArrayLike) -> npt.NDArray[np.float64]:
        """AFR grid at fixed temperature — one Fig. 5 panel.

        Returns shape ``(len(utilization_percent), len(transitions_per_day))``.
        The paper presents the panels at 40 degC (low speed, Fig. 5a) and
        50 degC (high speed, Fig. 5b).
        """
        utils = np.asarray(utilization_percent, dtype=np.float64)
        freqs = np.asarray(transitions_per_day, dtype=np.float64)
        require(utils.ndim == 1 and freqs.ndim == 1, "grids must be 1-D")
        t_afr = float(np.asarray(self.temperature(temp_c)))
        u_afr = np.asarray(self.utilization(utils), dtype=np.float64)[:, None]
        f_afr = np.asarray(self.frequency(freqs), dtype=np.float64)[None, :]
        surface = self.integrator.disk_afr(np.full_like(u_afr, t_afr), u_afr, f_afr)
        return np.asarray(surface, dtype=np.float64)

    # ------------------------------------------------------------------
    # simulation interface
    # ------------------------------------------------------------------
    def factors_of(self, drive: TwoSpeedDrive, duration_s: float) -> DiskFactors:
        """Score one live drive: :meth:`evaluate_array` over its ledgers
        closed at ``duration_s``.  The close leaves the drive untouched."""
        _, (factors,) = self.evaluate_array([drive.open_ledger().close(duration_s)],
                                            duration_s)
        return replace(factors, disk_id=drive.disk_id)

    def evaluate_array(self, ledgers: Sequence[ClosedDiskLedger],
                       duration_s: float) -> tuple[float, list[DiskFactors]]:
        """Array AFR (max over disks, Sec. 3.5) plus per-disk factor detail.

        The one place ledgers become ESRRA factors.  ``ledgers`` are
        closed at the horizon ``duration_s``, the power-on time of
        utilization (clamped at 100 %, Sec. 3.3) and the span a daily
        transition rate extrapolates from (Sec. 5.1).  Disks are numbered
        by position: a shard's ledgers carry shard-local ids.
        """
        require_positive(duration_s, "duration_s")
        temps = [c.mean_temperature_c() for c in ledgers]
        utils = [100.0 * min(c.active_time_s / duration_s, 1.0) for c in ledgers]
        freqs = [c.transitions_total * SECONDS_PER_DAY / duration_s for c in ledgers]
        afrs = self.disk_afr_batch(temps, utils, freqs)
        factors = [
            DiskFactors(disk_id=i, mean_temperature_c=t, utilization_percent=u,
                        transitions_per_day=f, afr_percent=a)
            for i, (t, u, f, a) in enumerate(zip(temps, utils, freqs, afrs.tolist()))
        ]
        afr = self.integrator.array_afr(f.afr_percent for f in factors)
        return afr, factors

    # ------------------------------------------------------------------
    # re-scoring (evaluate-only path)
    # ------------------------------------------------------------------
    def rescore_factors(self, factors: list[DiskFactors] | tuple[DiskFactors, ...],
                        ) -> tuple[float, list[DiskFactors]]:
        """Score already-extracted ESRRA factors under *this* model.

        The simulation determines only the raw factor values (mean
        temperature, utilization, transition frequency) — scoring them
        into AFRs is a pure function of the model.  Sweeps over scoring
        choices (e.g. the integrator combination strategy) therefore
        need one trace replay, re-scored per model, instead of one
        replay per model.  Returns ``(array_afr, new_factors)`` with each
        disk's ``afr_percent`` recomputed; the raw factor fields are
        copied through unchanged.
        """
        require(len(factors) >= 1, "need factors for at least one disk")
        afrs = self.disk_afr_batch(
            [f.mean_temperature_c for f in factors],
            [f.utilization_percent for f in factors],
            [f.transitions_per_day for f in factors],
        )
        rescored = [
            DiskFactors(
                disk_id=f.disk_id,
                mean_temperature_c=f.mean_temperature_c,
                utilization_percent=f.utilization_percent,
                transitions_per_day=f.transitions_per_day,
                afr_percent=a,
            )
            for f, a in zip(factors, afrs.tolist())
        ]
        afr = self.integrator.array_afr(f.afr_percent for f in rescored)
        return afr, rescored
