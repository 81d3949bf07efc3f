"""Periodic per-disk time-series sampling.

A :class:`DiskSampler` rides the kernel as a
:class:`~repro.sim.timers.PeriodicTask`: every ``interval_s`` simulated
seconds it flushes each drive's ledgers and snapshots the quantities
the PRESS analysis and capacity planning care about — utilization,
temperature, spindle speed, phase, queue depth, and cumulative energy.
The samples freeze into a :class:`TimeSeries` (plain tuples, picklable)
that the runner attaches to the :class:`SimulationResult`, so parallel
sweep cells carry their telemetry across the process-pool boundary.

Numerical note: sampling calls :meth:`TwoSpeedDrive.finalize` at each
tick, splitting the energy/thermal accounting intervals at the sample
instants.  Both ledgers are closed-form over an interval, so the split
is exact in real arithmetic; float summation can differ in the last
ulp versus an unsampled run.  That is why sampling is opt-in: with no
sampler installed the ledgers see exactly the same interval sequence
as an uninstrumented build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.sim.timers import PeriodicTask
from repro.util.validation import require, require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.disk.array import DiskArray
    from repro.sim.engine import Simulator

__all__ = ["DiskSampler", "TimeSeries", "SAMPLE_COLUMNS"]

#: Column order of every sample row (one row per disk per tick).
SAMPLE_COLUMNS: tuple[str, ...] = (
    "time_s", "disk", "utilization_pct", "temperature_c", "speed",
    "phase", "queue_depth", "energy_j",
)

#: Event priority of the sampling tick: after same-instant completions
#: (0), transitions (1), and policy timers (10/20), so a sample reads
#: the settled post-event state of its instant.
_PRIO_SAMPLE = 90


@dataclass(frozen=True, slots=True)
class TimeSeries:
    """Frozen per-disk telemetry: ``rows`` follow :data:`SAMPLE_COLUMNS`.

    Rows are ordered by (time, disk).  Built from plain tuples so the
    object pickles across the parallel sweep executor unchanged.
    """

    interval_s: float
    columns: tuple[str, ...] = SAMPLE_COLUMNS
    rows: tuple[tuple, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_samples(self) -> int:
        """Number of sampling instants (ticks) captured."""
        times = {row[0] for row in self.rows}
        return len(times)

    def column(self, name: str, *, disk: Optional[int] = None) -> list:
        """One column as a list, optionally restricted to one disk."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows
                if disk is None or row[1] == disk]

    def per_disk(self) -> dict[int, list[tuple]]:
        """Rows grouped by disk id (insertion order = time order)."""
        out: dict[int, list[tuple]] = {}
        for row in self.rows:
            out.setdefault(row[1], []).append(row)
        return out


class DiskSampler:
    """Snapshots every drive's operating point on a fixed sim-time cadence.

    Parameters
    ----------
    sim, array:
        Kernel and the observed array.
    interval_s:
        Simulated seconds between samples.
    disk_offset:
        Added to every local disk id in rows.  A shard worker passes its
        plan's offset so the sampled series speaks *global* disk ids,
        making per-shard series merge without a rename pass (0 for
        unsharded runs).
    """

    def __init__(self, sim: "Simulator", array: "DiskArray", interval_s: float, *,
                 disk_offset: int = 0) -> None:
        require_positive(interval_s, "interval_s")
        require(disk_offset >= 0,
                f"disk_offset must be >= 0, got {disk_offset}")
        self._sim = sim
        self._array = array
        self.interval_s = float(interval_s)
        self._offset = int(disk_offset)
        self._rows: list[tuple] = []
        self._task: Optional[PeriodicTask] = None

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Arm the periodic sampling tick (first sample after one interval)."""
        if self._task is None:
            self._task = PeriodicTask(self._sim, self.interval_s, self._sample,
                                      priority=_PRIO_SAMPLE)

    def shutdown(self) -> None:
        """Stop sampling; the collected series stays readable."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------------
    def sample_now(self) -> None:
        """Take one snapshot at the current simulated time.

        The periodic tick calls this; the runner also calls it once at
        end-of-run so the series always closes with the final state.
        """
        now = self._sim.now
        rows = self._rows
        for drive in self._array.drives:
            drive.finalize()
            util = drive.utilization() * 100.0
            temp = drive.temperature_c
            speed = drive.speed.name.lower()
            phase = drive.phase.value
            queue = drive.queue_length
            energy = sum(drive.energies_j)
            g = self._offset + drive.disk_id
            rows.append((now, g, util, temp, speed, phase,
                         queue, energy))

    def _sample(self, _tick: int) -> None:
        self.sample_now()

    # ------------------------------------------------------------------
    def series(self) -> TimeSeries:
        """Freeze everything sampled so far into a :class:`TimeSeries`."""
        return TimeSeries(interval_s=self.interval_s,
                          rows=tuple(self._rows))
