"""Per-drive energy metering.

Energy is ``sum(power(state) * time_in_state)`` over the five power
states of a two-speed drive.  The meter is a pure accumulator — the drive
state machine charges each interval to the state that ruled it, which
keeps the accounting exact regardless of event ordering and makes "total
time in states == wall clock" an easily testable invariant.
"""

from __future__ import annotations

import enum

from repro.disk.parameters import DiskSpeed, TwoSpeedDiskParams

__all__ = ["DiskPowerState", "EnergyMeter", "STATE_INDEX"]


class DiskPowerState(enum.Enum):
    """The five power-distinguishable states of a two-speed drive."""

    IDLE_LOW = "idle_low"
    IDLE_HIGH = "idle_high"
    ACTIVE_LOW = "active_low"
    ACTIVE_HIGH = "active_high"
    TRANSITION = "transition"

    # members are singletons, so identity hashing is exact — and it avoids
    # enum's Python-level __hash__ on STATE_INDEX lookups
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


_ACTIVE_LOW = STATE_INDEX[DiskPowerState.ACTIVE_LOW]
_ACTIVE_HIGH = STATE_INDEX[DiskPowerState.ACTIVE_HIGH]


class EnergyMeter:
    """Energy and residence time per power state, indexed by
    :data:`STATE_INDEX`.

    A plain accumulator: :meth:`TwoSpeedDrive._account
    <repro.disk.drive.TwoSpeedDrive._account>` charges an interval ``dt``
    spent in state ``i`` inline, as ``times_s[i] += dt`` then
    ``energies_j[i] += powers_w[i] * dt`` — the arithmetic of
    :meth:`repro.disk.ledger.OpenDiskLedger.advance`.
    """

    __slots__ = ("powers_w", "times_s", "energies_j")

    def __init__(self, params: TwoSpeedDiskParams) -> None:
        #: Power draw per state, watts (definition order).
        self.powers_w: tuple[float, ...] = (
            params.low.idle_w,
            params.high.idle_w,
            params.low.active_w,
            params.high.active_w,
            params.transition_power_w,
        )
        self.times_s = [0.0] * len(self.powers_w)
        self.energies_j = [0.0] * len(self.powers_w)

    # ------------------------------------------------------------------
    @property
    def total_energy_j(self) -> float:
        """Total energy across all states, joules."""
        return sum(self.energies_j)

    @property
    def total_time_s(self) -> float:
        """Total metered time across all states, seconds."""
        return sum(self.times_s)

    def energy_j(self, state: DiskPowerState) -> float:
        """Energy spent in one state, joules."""
        return self.energies_j[STATE_INDEX[state]]

    def time_s(self, state: DiskPowerState) -> float:
        """Time spent in one state, seconds."""
        return self.times_s[STATE_INDEX[state]]

    def breakdown(self) -> dict[str, float]:
        """Energy per state keyed by state value (reporting convenience)."""
        return {state.value: self.energies_j[i] for state, i in STATE_INDEX.items()}

    @property
    def active_time_s(self) -> float:
        """Total transfer time at either speed (the numerator of the
        paper's utilization metric, Sec. 3.3)."""
        return self.times_s[_ACTIVE_LOW] + self.times_s[_ACTIVE_HIGH]
