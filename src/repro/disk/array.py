"""The disk array: drives + file placement + data-movement plumbing.

The array owns the authoritative *placement map* (file id -> disk id)
and per-disk used-capacity ledger.  Policies mutate placement only
through :meth:`DiskArray.place_file` (free, initial layout) and
:meth:`DiskArray.migrate_file` (charged as real disk work: a read on the
source followed by a write on the destination, per DESIGN.md Sec. 5).

Routing a user request defaults to the file's placed disk; policies that
redirect (MAID serving from a cache disk) pass an explicit target.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.disk.drive import Job, TwoSpeedDrive
from repro.disk.parameters import DiskSpeed, TwoSpeedDiskParams
from repro.obs import events as ev
from repro.sim.engine import Simulator
from repro.util.validation import require
from repro.workload.files import FileSet
from repro.workload.request import Request

__all__ = ["DiskArray"]

IdleHandler = Callable[[int], None]
JobHandler = Callable[[Job], None]


class DiskArray:
    """An array of :class:`TwoSpeedDrive` sharing one simulation kernel.

    Parameters
    ----------
    sim, params:
        Kernel and device model shared by every drive.
    n_disks:
        Array size (the paper sweeps 6..16).
    fileset:
        The stored files; placement starts empty (-1) until a policy
        lays data out.
    initial_speed:
        Spindle speed every drive boots with.
    """

    def __init__(self, sim: Simulator, params: TwoSpeedDiskParams, n_disks: int,
                 fileset: FileSet, *, initial_speed: DiskSpeed = DiskSpeed.HIGH) -> None:
        require(n_disks >= 1, f"n_disks must be >= 1, got {n_disks}")
        self.sim = sim
        self._trace = sim.trace
        self.params = params
        self.fileset = fileset
        self.drives = [
            TwoSpeedDrive(sim, params, i, initial_speed=initial_speed,
                          on_idle=self._forward_idle, on_busy=self._forward_busy)
            for i in range(n_disks)
        ]
        self._placement = np.full(len(fileset), -1, dtype=np.int64)
        # mirror of _placement as a plain list: location_of runs once per
        # routed request, and list indexing returns a ready-made int
        # instead of a numpy scalar needing coercion
        self._placement_py: list[int] = [-1] * len(fileset)
        self._used_mb = np.zeros(n_disks, dtype=np.float64)
        self._idle_handler: Optional[IdleHandler] = None
        self._busy_handler: Optional[IdleHandler] = None
        require(fileset.total_mb <= params.capacity_mb * n_disks,
                f"fileset ({fileset.total_mb:.1f} MB) exceeds array capacity "
                f"({params.capacity_mb * n_disks:.1f} MB)")

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.drives)

    @property
    def n_disks(self) -> int:
        """Number of drives in the array."""
        return len(self.drives)

    def drive(self, disk_id: int) -> TwoSpeedDrive:
        """Drive by index."""
        return self.drives[disk_id]

    # ------------------------------------------------------------------
    # fault lifecycle (driven by repro.faults)
    # ------------------------------------------------------------------
    def disk_is_up(self, disk_id: int) -> bool:
        """Whether ``disk_id`` is in service (not failed)."""
        return not self.drives[disk_id].is_failed

    def fail_disk(self, disk_id: int) -> list[Job]:
        """Fail one drive; returns the jobs it dropped (see
        :meth:`TwoSpeedDrive.fail`).  Placement is untouched — the files
        are still *assigned* to the dead disk, they just cannot be served
        from it until the rebuild completes."""
        return self.drives[disk_id].fail()

    def replace_disk(self, disk_id: int, *,
                     speed: DiskSpeed = DiskSpeed.HIGH) -> None:
        """Install a replacement spindle in a failed slot (rebuild I/O is
        the caller's responsibility — see :class:`repro.faults.FaultInjector`)."""
        self.drives[disk_id].replace_with_new_spindle(speed=speed)

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    def set_idle_handler(self, handler: Optional[IdleHandler]) -> None:
        """Install the policy callback fired when any drive's queue drains.

        The handler is bound onto each drive directly so the (very
        frequent) idle edge skips a forwarding hop through the array.
        """
        self._idle_handler = handler
        for drive in self.drives:
            drive.on_idle = handler

    def set_busy_handler(self, handler: Optional[IdleHandler]) -> None:
        """Install the policy callback fired when an idle drive gets work."""
        self._busy_handler = handler
        for drive in self.drives:
            drive.on_busy = handler

    def _forward_idle(self, disk_id: int) -> None:
        if self._idle_handler is not None:
            self._idle_handler(disk_id)

    def _forward_busy(self, disk_id: int) -> None:
        if self._busy_handler is not None:
            self._busy_handler(disk_id)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    @property
    def placement(self) -> np.ndarray:
        """Read-only view: placement[file_id] == disk id (-1 = unplaced)."""
        view = self._placement.view()
        view.setflags(write=False)
        return view

    @property
    def used_mb(self) -> np.ndarray:
        """Read-only per-disk used capacity (primary copies only)."""
        view = self._used_mb.view()
        view.setflags(write=False)
        return view

    def free_mb(self, disk_id: int) -> float:
        """Remaining primary capacity on one disk."""
        return self.params.capacity_mb - float(self._used_mb[disk_id])

    def location_of(self, file_id: int) -> int:
        """Disk currently holding ``file_id`` (-1 if unplaced)."""
        return self._placement_py[file_id]

    def files_on(self, disk_id: int) -> np.ndarray:
        """All file ids placed on ``disk_id``."""
        return np.flatnonzero(self._placement == disk_id)

    def place_file(self, file_id: int, disk_id: int) -> None:
        """Set the initial location of a file (no I/O charged).

        Only valid for unplaced files — relocations must go through
        :meth:`migrate_file` so their cost is modeled.
        """
        require(0 <= disk_id < self.n_disks, f"disk_id out of range: {disk_id}")
        require(self._placement[file_id] == -1,
                f"file {file_id} already placed; use migrate_file")
        size = self.fileset.size_of(file_id)
        require(self._used_mb[disk_id] + size <= self.params.capacity_mb,
                f"disk {disk_id} over capacity placing file {file_id}")
        self._placement[file_id] = disk_id
        self._placement_py[file_id] = disk_id
        self._used_mb[disk_id] += size

    def place_all(self, placement: Sequence[int] | np.ndarray) -> None:
        """Bulk initial placement (validates capacity per disk)."""
        arr = np.asarray(placement, dtype=np.int64)
        require(arr.shape == self._placement.shape,
                "placement must assign every file exactly once")
        require(bool(np.all((arr >= 0) & (arr < self.n_disks))),
                "placement contains out-of-range disk ids")
        require(bool(np.all(self._placement == -1)),
                "place_all requires a fully unplaced array")
        used = np.bincount(arr, weights=self.fileset.sizes_mb, minlength=self.n_disks)
        require(bool(np.all(used <= self.params.capacity_mb)),
                "placement exceeds per-disk capacity")
        self._placement[:] = arr
        self._placement_py = arr.tolist()
        self._used_mb[:] = used

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def submit_request(self, request: Request, *, disk_id: Optional[int] = None,
                       on_complete: Optional[JobHandler] = None) -> Job:
        """Queue a user request on its placed disk (or an explicit target)."""
        target = self._placement_py[request.file_id] if disk_id is None else disk_id
        if target < 0:
            raise ValueError(f"file {request.file_id} is not placed on any disk")
        job = Job.for_request(request, on_complete=on_complete)
        self.drives[target].submit(job)
        return job

    def submit_internal(self, disk_id: int, size_mb: float, *,
                        on_complete: Optional[JobHandler] = None) -> Job:
        """Queue an internal transfer (cache copy / migration leg)."""
        job = Job.internal_transfer(size_mb, on_complete=on_complete)
        self.drives[disk_id].submit(job)
        return job

    def migrate_file(self, file_id: int, dst_disk: int, *,
                     on_done: Optional[Callable[[int, int, int], None]] = None) -> bool:
        """Move a file's primary copy, charging read + write disk work.

        The placement map and capacity ledger flip immediately (new
        requests route to the destination; serving half-moved files is
        out of scope per the whole-file model), while the physical cost
        is modeled as an internal read job on the source followed — on
        its completion — by an internal write job on the destination.
        Returns ``False`` without side effects when the destination lacks
        capacity or already holds the file.

        ``on_done(file_id, src, dst)`` fires when the write completes.
        """
        src = self.location_of(file_id)
        require(src >= 0, f"file {file_id} is not placed; cannot migrate")
        require(0 <= dst_disk < self.n_disks, f"dst_disk out of range: {dst_disk}")
        if src == dst_disk:
            return False
        size = self.fileset.size_of(file_id)
        if self._used_mb[dst_disk] + size > self.params.capacity_mb:
            return False

        self._placement[file_id] = dst_disk
        self._placement_py[file_id] = dst_disk
        self._used_mb[src] -= size
        self._used_mb[dst_disk] += size
        if self._trace is not None:
            self._trace.emit(ev.POLICY_MIGRATE, self.sim.now, file=file_id,
                             src=src, dst=dst_disk, size_mb=size)

        def _after_read(_job: Job) -> None:
            if _job.failed:
                # source died mid-migration (fault injection): the write
                # leg never happens; placement keeps the logical move
                return
            def _after_write(_wjob: Job) -> None:
                if on_done is not None and not _wjob.failed:
                    on_done(file_id, src, dst_disk)
            self.submit_internal(dst_disk, size, on_complete=_after_write)

        self.submit_internal(src, size, on_complete=_after_read)
        return True

    # ------------------------------------------------------------------
    # end-of-run accounting
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Flush every drive's energy/thermal ledgers to ``sim.now``."""
        for drive in self.drives:
            drive.finalize()
