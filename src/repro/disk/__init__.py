"""Two-speed disk drive, thermal/energy accounting, and the disk array.

This is the paper's simulated device substrate (Sec. 5.1): an array of
two-speed disks whose low-speed statistics are derived from a
conventional Seagate Cheetah the same way the PDC paper [23] derived
them.  The drive is an event-driven state machine over
:class:`repro.sim.Simulator`; policies control it exclusively through
:meth:`TwoSpeedDrive.request_speed` and the placement/routing layer in
:class:`DiskArray`.
"""

from repro.disk.parameters import (
    DiskSpeed,
    SpeedModeParams,
    TwoSpeedDiskParams,
    cheetah_two_speed,
)
from repro.disk.thermal import ThermalModel, steady_temperature_from_rpm
from repro.disk.energy import DiskPowerState, EnergyMeter, STATE_INDEX
from repro.disk.stats import DiskStats
from repro.disk.ledger import ClosedDiskLedger, OpenDiskLedger
from repro.disk.drive import Job, TwoSpeedDrive, DrivePhase
from repro.disk.array import DiskArray
from repro.disk.striping import PAPER_STRIPE_UNIT_MB, StripeChunk, StripeLayout

__all__ = [
    "DiskSpeed",
    "SpeedModeParams",
    "TwoSpeedDiskParams",
    "cheetah_two_speed",
    "ThermalModel",
    "steady_temperature_from_rpm",
    "DiskPowerState",
    "EnergyMeter",
    "STATE_INDEX",
    "DiskStats",
    "OpenDiskLedger",
    "ClosedDiskLedger",
    "Job",
    "TwoSpeedDrive",
    "DrivePhase",
    "DiskArray",
    "PAPER_STRIPE_UNIT_MB",
    "StripeChunk",
    "StripeLayout",
]
