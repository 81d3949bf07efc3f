"""First-order thermal model of a disk drive.

Section 3.2 of the paper grounds its temperature assumptions in two
observations: (a) disk heat dissipation grows roughly with the cube of
RPM, and (b) a Cheetah reaches a *steady state* of 55.22 degC at
15 000 RPM "after 48 minutes" (ref. [12] of the paper).  Both facts are
captured by a standard first-order (lumped-capacitance) model:

    dT/dt = (T_ss(speed) - T) / tau

whose solution between state changes is the exponential approach

    T(t0 + dt) = T_ss + (T(t0) - T_ss) * exp(-dt / tau).

``tau`` defaults to 720 s so that four time constants — ~98 % of the way
to steady state — take the reported 48 minutes.

The model integrates the exact time-weighted temperature analytically
(no per-tick stepping), because PRESS consumes the *mean operating
temperature* over the simulated interval.  Over an interval ``dt``
spent relaxing toward ``T_ss`` it adds

    int T dt = T_ss * dt + (T0 - T_ss) * tau * (1 - exp(-dt / tau)).

That step is charged inline by the drive's accounting edge
(``TwoSpeedDrive._account``); its reference form, in the same
floating-point expression order, is
:meth:`repro.disk.ledger.OpenDiskLedger.advance`.
"""

from __future__ import annotations

import math

from repro.util.validation import require_positive
from repro.disk.parameters import AMBIENT_TEMPERATURE_C

__all__ = ["ThermalModel", "steady_temperature_from_rpm"]

#: Default time constant: 48 min / 4 time constants (see module docstring).
DEFAULT_TAU_S = 720.0


def steady_temperature_from_rpm(rpm: float, *, ambient_c: float = AMBIENT_TEMPERATURE_C) -> float:
    """Steady-state temperature of a drive spinning at ``rpm``.

    Power-law rise over ambient, calibrated through the paper's two
    anchors: 40 degC at 3 600 RPM and 50 degC at 10 000 RPM (Sec. 3.5).
    Heat *dissipation* scales ~RPM**3 (Sec. 3.2), but the resulting
    temperature rise is sublinear in dissipation (convective cooling
    improves with the airflow the platters themselves generate), so the
    fitted temperature exponent is ~0.59, not 3.
    """
    require_positive(rpm, "rpm")
    # exponent p solves (40-28)/(50-28) == (3600/10000)**p
    p = math.log(12.0 / 22.0) / math.log(3600.0 / 10000.0)
    rise_at_10k = 22.0
    return ambient_c + rise_at_10k * (rpm / 10_000.0) ** p


class ThermalModel:
    """One drive's temperature and its exact time integral.

    A plain accumulator the drive's accounting edge advances inline (see
    the module docstring).

    Attributes
    ----------
    temperature_c:
        Instantaneous temperature (degC) as of the last accounting edge.
    integral_c_s:
        Exact integral of T dt so far (degC * s);
        ``mean_temperature_c() == integral_c_s / elapsed_s``.
    elapsed_s:
        Total time integrated so far.
    tau_s:
        The thermal time constant this model integrates with.
    """

    __slots__ = ("temperature_c", "integral_c_s", "elapsed_s", "tau_s")

    def __init__(self, *, initial_c: float = AMBIENT_TEMPERATURE_C,
                 tau_s: float = DEFAULT_TAU_S) -> None:
        self.tau_s = require_positive(tau_s, "tau_s")
        self.temperature_c = float(initial_c)
        self.integral_c_s = 0.0
        self.elapsed_s = 0.0

    def mean_temperature_c(self) -> float:
        """Time-weighted mean temperature over everything integrated so far.

        Falls back to the instantaneous temperature when no time has
        elapsed (e.g. PRESS evaluated at t = 0).
        """
        if self.elapsed_s <= 0.0:
            return self.temperature_c
        return self.integral_c_s / self.elapsed_s

    def reset(self, *, temperature_c: float | None = None) -> None:
        """Clear the integral; optionally pin a new instantaneous temperature."""
        if temperature_c is not None:
            self.temperature_c = float(temperature_c)
        self.integral_c_s = 0.0
        self.elapsed_s = 0.0
