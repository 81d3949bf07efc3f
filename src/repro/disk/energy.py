"""Power states of a two-speed drive.

Energy is ``sum(power(state) * time_in_state)`` over the five power
states below.  The drive (:class:`repro.disk.drive.TwoSpeedDrive`) keeps
one residence-time and one energy accumulator per state, indexed by
:data:`STATE_INDEX`, and charges each interval to the state that ruled
it, which keeps the accounting exact regardless of event ordering and
makes "total time in states == wall clock" an easily testable invariant.
"""

from __future__ import annotations

import enum

from repro.disk.parameters import DiskSpeed

__all__ = ["DiskPowerState", "STATE_INDEX"]


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
