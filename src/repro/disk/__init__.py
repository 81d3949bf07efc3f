"""Two-speed disk drive with its own energy/thermal accounting, and the array.

This is the paper's simulated device substrate (Sec. 5.1): an array of
two-speed disks whose low-speed statistics are derived from a
conventional Seagate Cheetah the same way the PDC paper [23] derived
them.  The drive is an event-driven state machine over
:class:`repro.sim.Simulator`; policies control it exclusively through
:meth:`TwoSpeedDrive.request_speed` and the placement/routing layer in
:class:`DiskArray`.  Each drive is the one record of its accounting;
:meth:`TwoSpeedDrive.open_ledger` snapshots it into the ledgers
(:mod:`repro.disk.ledger`) every finalize reads.
"""

from repro.disk.parameters import (
    DiskSpeed,
    SpeedModeParams,
    TwoSpeedDiskParams,
    cheetah_two_speed,
)
from repro.disk.energy import DiskPowerState, STATE_INDEX
from repro.disk.ledger import ClosedDiskLedger, OpenDiskLedger
from repro.disk.drive import Job, TwoSpeedDrive, DrivePhase
from repro.disk.array import DiskArray
from repro.disk.striping import PAPER_STRIPE_UNIT_MB, StripeChunk, StripeLayout

__all__ = [
    "DiskSpeed",
    "SpeedModeParams",
    "TwoSpeedDiskParams",
    "cheetah_two_speed",
    "DiskPowerState",
    "STATE_INDEX",
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
