"""Open and closed accounting ledgers: how every cell is finalized.

A drive's energy/thermal/stats ledgers are exact up to its *last
accounting edge* (``TwoSpeedDrive._account`` runs on every dispatch,
completion, and transition).  Every cell scores PRESS, energy and
counters from :class:`ClosedDiskLedger` values
(``repro.experiments.runner._reduce_ledgers``).  A whole-array run
finalizes its drives at the horizon and closes their open ledgers
there, a zero-length close.

A *sharded* run (``repro.experiments.shard``) is why the open form
exists: each shard's sub-simulation stops at its own local end time,
but the merged result must account every disk up to the **global** end
time, exactly as the unsharded simulation would have, which charges
the interval from the last edge in *one* accounting step.  Two
exponential thermal steps are not bit-identical to one, so a shard
captures an :class:`OpenDiskLedger`: a picklable capture of the raw
accumulator state *before* the final flush, plus the power state and
thermal steady target open at capture.  The merge calls
:meth:`OpenDiskLedger.close` with the global end time.
:meth:`OpenDiskLedger.advance` is the reference form of one accounting
step; the drive's edge (``TwoSpeedDrive._account``) inlines the same
float operations in the same order, so a closed ledger equals the
unsharded drive's finalized ledgers bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.disk.energy import DiskPowerState
from repro.util.validation import require

__all__ = ["OpenDiskLedger", "ClosedDiskLedger"]

_STATES = tuple(DiskPowerState)
_ACTIVE_LOW_IDX = _STATES.index(DiskPowerState.ACTIVE_LOW)
_ACTIVE_HIGH_IDX = _STATES.index(DiskPowerState.ACTIVE_HIGH)


@dataclass(frozen=True, slots=True)
class ClosedDiskLedger:
    """One disk's ledgers, accounted up to a chosen end time.

    Field and property arithmetic mirror the live ledger objects
    (:class:`~repro.disk.energy.EnergyMeter`,
    :class:`~repro.disk.thermal.ThermalModel`,
    :class:`~repro.disk.stats.DiskStats`) so downstream consumers (PRESS
    scoring, energy breakdowns) read identical values either way.
    """

    disk_id: int
    #: Per power state, in :class:`DiskPowerState` definition order.
    time_s: tuple[float, ...]
    energy_j: tuple[float, ...]
    temperature_c: float
    integral_c_s: float
    elapsed_s: float
    requests_served: int
    internal_jobs_served: int
    mb_served: float
    transitions_total: int
    transitions_by_day: tuple[tuple[int, int], ...]

    @property
    def total_energy_j(self) -> float:
        """Total energy; same left-to-right state order as the meter."""
        return sum(self.energy_j)

    @property
    def active_time_s(self) -> float:
        """ACTIVE_LOW + ACTIVE_HIGH residency (utilization numerator)."""
        return (self.time_s[_ACTIVE_LOW_IDX] + self.time_s[_ACTIVE_HIGH_IDX])

    def mean_temperature_c(self) -> float:
        """Time-weighted mean temperature (instantaneous if no time)."""
        if self.elapsed_s <= 0.0:
            return self.temperature_c
        return self.integral_c_s / self.elapsed_s

    def breakdown(self) -> dict[str, float]:
        """Energy per state keyed by state value, definition order."""
        return {state.value: self.energy_j[i] for i, state in enumerate(_STATES)}


@dataclass(frozen=True, slots=True)
class OpenDiskLedger:
    """A drive's raw accumulator state captured *before* the final flush.

    Produced by :meth:`TwoSpeedDrive.open_ledger`; picklable (plain
    numbers and tuples only) so shard workers can return it across
    process boundaries.  ``state_index``/``power_w``/``steady_c``
    describe the interval that is still open at capture: the power
    state the drive sits in and the thermal steady target it is
    relaxing toward.  A failed drive has ``state_index=None`` — it
    draws no power and cools toward ambient.
    """

    disk_id: int
    last_account_s: float
    time_s: tuple[float, ...]
    energy_j: tuple[float, ...]
    #: Index of the open power state in definition order; None = failed.
    state_index: Optional[int]
    power_w: float
    steady_c: float
    temp_c: float
    integral_c_s: float
    elapsed_s: float
    tau_s: float
    requests_served: int
    internal_jobs_served: int
    mb_served: float
    transitions_total: int
    transitions_by_day: tuple[tuple[int, int], ...]

    @property
    def total_energy_j(self) -> float:
        """Energy accounted so far; same state order as the meter."""
        return sum(self.energy_j)

    @property
    def active_time_s(self) -> float:
        """ACTIVE_LOW + ACTIVE_HIGH residency accounted so far."""
        return (self.time_s[_ACTIVE_LOW_IDX] + self.time_s[_ACTIVE_HIGH_IDX])

    def advance(self, at_s: float) -> "OpenDiskLedger":
        """Charge the open interval up to ``at_s``; keep the ledger open.

        One accounting edge — the energy charge, then the thermal
        relaxation over the interval, in the floating-point expression
        order ``TwoSpeedDrive._account`` inlines — returning a new open
        ledger accounted up to ``at_s``.  This is how the merge replays the
        sampler ticks an early-draining shard never saw: splitting the
        residual interval at the global tick instants reproduces the
        unsharded sampled run's accounting edge sequence bit-for-bit.
        """
        require(at_s >= self.last_account_s,
                f"cannot advance disk {self.disk_id} to t={at_s}: ledger is "
                f"already accounted up to t={self.last_account_s}")
        time_s = list(self.time_s)
        energy_j = list(self.energy_j)
        temp = self.temp_c
        integral = self.integral_c_s
        elapsed = self.elapsed_s
        dt = at_s - self.last_account_s
        if dt > 0.0:
            if self.state_index is not None:
                # energy: power x time into the open state
                time_s[self.state_index] += dt
                energy_j[self.state_index] += self.power_w * dt
            # thermal: exact exponential relaxation toward steady_c
            decay = math.exp(-dt / self.tau_s)
            t0 = temp
            temp = self.steady_c + (t0 - self.steady_c) * decay
            integral += self.steady_c * dt + (t0 - self.steady_c) * self.tau_s * (1.0 - decay)
            elapsed += dt
        return OpenDiskLedger(
            disk_id=self.disk_id,
            last_account_s=at_s,
            time_s=tuple(time_s),
            energy_j=tuple(energy_j),
            state_index=self.state_index,
            power_w=self.power_w,
            steady_c=self.steady_c,
            temp_c=temp,
            integral_c_s=integral,
            elapsed_s=elapsed,
            tau_s=self.tau_s,
            requests_served=self.requests_served,
            internal_jobs_served=self.internal_jobs_served,
            mb_served=self.mb_served,
            transitions_total=self.transitions_total,
            transitions_by_day=self.transitions_by_day,
        )

    def close(self, at_s: float) -> ClosedDiskLedger:
        """Charge the open interval up to ``at_s`` and seal the ledgers.

        :meth:`advance` to ``at_s``, then seal: bit-identical to the
        drive having run ``finalize()`` at ``at_s``, because both charge
        the whole interval in one accounting edge.
        """
        done = self.advance(at_s)
        return ClosedDiskLedger(
            disk_id=done.disk_id,
            time_s=done.time_s,
            energy_j=done.energy_j,
            temperature_c=done.temp_c,
            integral_c_s=done.integral_c_s,
            elapsed_s=done.elapsed_s,
            requests_served=done.requests_served,
            internal_jobs_served=done.internal_jobs_served,
            mb_served=done.mb_served,
            transitions_total=done.transitions_total,
            transitions_by_day=done.transitions_by_day,
        )
