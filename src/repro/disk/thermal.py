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
temperature* over the simulated interval.
"""

from __future__ import annotations

import math

from repro.util.validation import require_non_negative, require_positive
from repro.disk.parameters import AMBIENT_TEMPERATURE_C

__all__ = ["ThermalModel", "steady_temperature_from_rpm"]

#: Default time constant: 48 min / 4 time constants (see module docstring).
DEFAULT_TAU_S = 720.0

_exp = math.exp  # bound once; advance() runs on every accounting edge


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
    """Tracks one drive's temperature and its exact time integral.

    Call :meth:`advance` whenever the thermal environment changes (speed
    transition, end of simulation); it integrates the closed-form
    temperature trajectory over the elapsed interval.
    """

    def __init__(self, *, initial_c: float = AMBIENT_TEMPERATURE_C,
                 tau_s: float = DEFAULT_TAU_S) -> None:
        require_positive(tau_s, "tau_s")
        self._temp_c = float(initial_c)
        self._tau = tau_s
        self._integral_c_s = 0.0  # integral of T dt, degC * s
        self._elapsed_s = 0.0

    @property
    def temperature_c(self) -> float:
        """Instantaneous temperature (degC) as of the last :meth:`advance`."""
        return self._temp_c

    @property
    def elapsed_s(self) -> float:
        """Total time integrated so far."""
        return self._elapsed_s

    @property
    def tau_s(self) -> float:
        """The thermal time constant this model integrates with."""
        return self._tau

    @property
    def integral_c_s(self) -> float:
        """Exact integral of T dt so far (degC * s).

        ``mean_temperature_c() == integral_c_s / elapsed_s``; exposed so
        deferred end-of-run closes (:mod:`repro.disk.ledger`) can capture
        the raw accumulator and finish the integral elsewhere.
        """
        return self._integral_c_s

    def advance(self, dt: float, steady_c: float) -> float:
        """Advance ``dt`` seconds toward steady temperature ``steady_c``.

        Returns the new instantaneous temperature.  The time integral of
        the exponential trajectory is accumulated exactly:

            int T dt = T_ss * dt + (T0 - T_ss) * tau * (1 - exp(-dt/tau))
        """
        if not (dt > 0.0):  # False for NaN too
            if dt == 0.0:  # repro: allow[NUM001] exact zero-step fast path; any eps falls through to the integrator
                return self._temp_c
            require_non_negative(dt, "dt")  # raises with the precise message
        elif dt == math.inf:  # repro: allow[NUM001] inf compares exactly by IEEE-754 definition
            require_non_negative(dt, "dt")
        t0 = self._temp_c
        decay = _exp(-dt / self._tau)
        self._temp_c = steady_c + (t0 - steady_c) * decay
        self._integral_c_s += steady_c * dt + (t0 - steady_c) * self._tau * (1.0 - decay)
        self._elapsed_s += dt
        return self._temp_c

    def mean_temperature_c(self) -> float:
        """Time-weighted mean temperature over everything integrated so far.

        Falls back to the instantaneous temperature when no time has
        elapsed (e.g. PRESS evaluated at t = 0).
        """
        if self._elapsed_s <= 0.0:
            return self._temp_c
        return self._integral_c_s / self._elapsed_s

    def reset(self, *, temperature_c: float | None = None) -> None:
        """Clear the integral; optionally pin a new instantaneous temperature."""
        if temperature_c is not None:
            self._temp_c = float(temperature_c)
        self._integral_c_s = 0.0
        self._elapsed_s = 0.0
