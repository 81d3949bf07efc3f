"""PRESS — Predictor of Reliability for Energy-Saving Schemes (Sec. 3).

PRESS maps the three energy-saving-related reliability-affecting (ESRRA)
factors to an Annualized Failure Rate:

* operating temperature (degC) -> :mod:`repro.press.temperature`
  (digitized from the Google/FAST'07 3-year-old field data, Fig. 2);
* disk utilization (percent)   -> :mod:`repro.press.utilization`
  (digitized 4-year-old field data, Fig. 3);
* speed-transition frequency (per day) -> :mod:`repro.press.frequency`
  (IDEMA start/stop adder halved via the modified Coffin-Manson
  analysis of Sec. 3.4, Fig. 4 / Eq. 3).

A pluggable :mod:`integrator <repro.press.integrator>` fuses the three
per-factor AFRs into one per-disk AFR, and the array's AFR is that of
its least reliable disk (Sec. 3.5).  All AFR values throughout are in
**percent per year**.
"""

from repro.press.temperature import TemperatureReliability, GOOGLE_3YR_TEMPERATURE_ANCHORS
from repro.press.utilization import UtilizationReliability, GOOGLE_4YR_UTILIZATION_BUCKETS
from repro.press.frequency import (
    FrequencyReliability,
    frequency_afr_adder_percent,
    idema_start_stop_adder_percent,
)
from repro.press.coffin_manson import (
    BOLTZMANN_EV_PER_K,
    CoffinManson,
    arrhenius_acceleration,
    paper_calibration,
)
from repro.press.integrator import CombinationStrategy, ReliabilityIntegrator
from repro.press.sensitivity import (
    DEFAULT_RANGES,
    FactorRange,
    TornadoBar,
    partial_effect,
    tornado,
)
from repro.press.model import DiskFactors, PRESSModel

__all__ = [
    "TemperatureReliability",
    "GOOGLE_3YR_TEMPERATURE_ANCHORS",
    "UtilizationReliability",
    "GOOGLE_4YR_UTILIZATION_BUCKETS",
    "FrequencyReliability",
    "frequency_afr_adder_percent",
    "idema_start_stop_adder_percent",
    "BOLTZMANN_EV_PER_K",
    "CoffinManson",
    "arrhenius_acceleration",
    "paper_calibration",
    "CombinationStrategy",
    "ReliabilityIntegrator",
    "DEFAULT_RANGES",
    "FactorRange",
    "TornadoBar",
    "partial_effect",
    "tornado",
    "DiskFactors",
    "PRESSModel",
]
