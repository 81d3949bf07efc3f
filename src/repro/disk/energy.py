"""Per-drive energy metering.

Energy is ``sum(power(state) * time_in_state)`` over the five power
states of a two-speed drive.  The meter is a pure accumulator — the drive
state machine tells it which state ruled each interval, which keeps the
accounting exact regardless of event ordering and makes "total time in
states == wall clock" an easily testable invariant.
"""

from __future__ import annotations

import enum
import math

from repro.disk.parameters import DiskSpeed, TwoSpeedDiskParams
from repro.util.validation import require_non_negative

_INF = math.inf

__all__ = ["DiskPowerState", "EnergyMeter", "STATE_INDEX"]


class DiskPowerState(enum.Enum):
    """The five power-distinguishable states of a two-speed drive."""

    IDLE_LOW = "idle_low"
    IDLE_HIGH = "idle_high"
    ACTIVE_LOW = "active_low"
    ACTIVE_HIGH = "active_high"
    TRANSITION = "transition"

    # members are singletons, so identity hashing is exact — and it avoids
    # enum's Python-level __hash__ on the metering path's dict lookups
    __hash__ = object.__hash__

    @staticmethod
    def of(active: bool, speed: DiskSpeed) -> "DiskPowerState":
        """State for a (serving?, speed) pair outside of transitions."""
        if active:
            return DiskPowerState.ACTIVE_HIGH if speed is DiskSpeed.HIGH else DiskPowerState.ACTIVE_LOW
        return DiskPowerState.IDLE_HIGH if speed is DiskSpeed.HIGH else DiskPowerState.IDLE_LOW


#: Dense index of each power state (definition order), as carried by
#: :class:`repro.disk.ledger.OpenDiskLedger`.
STATE_INDEX: dict[DiskPowerState, int] = {s: i for i, s in enumerate(DiskPowerState)}


class EnergyMeter:
    """Accumulates energy and residence time per power state."""

    def __init__(self, params: TwoSpeedDiskParams) -> None:
        self._params = params
        self._power = {
            DiskPowerState.IDLE_LOW: params.low.idle_w,
            DiskPowerState.IDLE_HIGH: params.high.idle_w,
            DiskPowerState.ACTIVE_LOW: params.low.active_w,
            DiskPowerState.ACTIVE_HIGH: params.high.active_w,
            DiskPowerState.TRANSITION: params.transition_power_w,
        }
        self._energy_j = {state: 0.0 for state in DiskPowerState}
        self._time_s = {state: 0.0 for state in DiskPowerState}

    def power_w(self, state: DiskPowerState) -> float:
        """Power draw of ``state`` in watts."""
        return self._power[state]

    def accumulate(self, state: DiskPowerState, dt: float) -> None:
        """Charge ``dt`` seconds spent in ``state``."""
        if not (dt >= 0.0) or dt == _INF:  # also rejects NaN
            require_non_negative(dt, "dt")
        self._time_s[state] += dt
        self._energy_j[state] += self._power[state] * dt

    # ------------------------------------------------------------------
    @property
    def total_energy_j(self) -> float:
        """Total energy across all states, joules."""
        return sum(self._energy_j.values())

    @property
    def total_time_s(self) -> float:
        """Total metered time across all states, seconds."""
        return sum(self._time_s.values())

    def energy_j(self, state: DiskPowerState) -> float:
        """Energy spent in one state, joules."""
        return self._energy_j[state]

    def time_s(self, state: DiskPowerState) -> float:
        """Time spent in one state, seconds."""
        return self._time_s[state]

    def breakdown(self) -> dict[str, float]:
        """Energy per state keyed by state value (reporting convenience)."""
        return {state.value: self._energy_j[state] for state in DiskPowerState}

    @property
    def active_time_s(self) -> float:
        """Total transfer time at either speed (the numerator of the
        paper's utilization metric, Sec. 3.3)."""
        return (self._time_s[DiskPowerState.ACTIVE_LOW]
                + self._time_s[DiskPowerState.ACTIVE_HIGH])
