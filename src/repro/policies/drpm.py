"""DRPM-style dynamic speed modulation (Gurumurthi et al., ISCA'03).

The paper's Sec. 2 first category: "power management mechanisms based on
multi-speed disks like DRPM, Multi-speed, and Hibernator ... dynamically
modulate disk speed to control energy consumption."  Unlike the
workload-skew schemes, DRPM moves no data: each disk independently
watches its own recent utilization and steps its spindle speed up or
down between watermarks.

With two-speed disks the controller degenerates to a two-point
hysteresis loop per disk:

* utilization over the last control window > ``up_watermark``  -> HIGH
* utilization < ``down_watermark``                             -> LOW
* in between: hold (the hysteresis band prevents oscillation).

Reliability character (what PRESS sees): transition frequency scales
with how often per-disk load crosses the band — on bursty traffic that
is DRPM's known failure mode, and exactly the behaviour the paper's
frequency-reliability function punishes ("it is not wise to aggressively
switch disk speed to save some amount of energy", Sec. 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.disk.parameters import DiskSpeed
from repro.policies.base import Policy, SpeedControlConfig, SpeedController
from repro.sim.timers import PeriodicTask
from repro.util.validation import require, require_fraction, require_positive
from repro.workload.request import Request

__all__ = ["DRPMConfig", "DRPMPolicy"]


@dataclass(frozen=True, slots=True)
class DRPMConfig:
    """DRPM watermark controller knobs.

    Attributes
    ----------
    control_period_s:
        How often each disk re-evaluates its speed.
    up_watermark / down_watermark:
        Utilization thresholds (fractions of the window) for stepping
        up / down; the gap between them is the hysteresis band.
    demand_spin_up:
        Also spin up immediately on queue pressure (the "performance
        guarantee" rider DRPM variants add); uses the shared demand
        rule with ``spin_up_queue_len``/``spin_up_wait_s`` below.
    speed:
        The demand rule's parameters (the idleness threshold H is
        unused — spin-*down* is the watermark controller's job).
    """

    control_period_s: float = 60.0
    up_watermark: float = 0.30
    down_watermark: float = 0.05
    demand_spin_up: bool = True
    speed: SpeedControlConfig = SpeedControlConfig(
        idle_threshold_s=1e9, spin_up_queue_len=6, spin_up_wait_s=2.0)

    def __post_init__(self) -> None:
        require_positive(self.control_period_s, "control_period_s")
        require_fraction(self.up_watermark, "up_watermark")
        require_fraction(self.down_watermark, "down_watermark")
        require(self.down_watermark < self.up_watermark,
                "down_watermark must be below up_watermark (hysteresis)")


class DRPMPolicy(Policy):
    """Per-disk watermark speed control; no data movement."""

    name = "drpm"

    def __init__(self, config: DRPMConfig | None = None) -> None:
        super().__init__()
        self.config = config or DRPMConfig()
        self._controller: Optional[SpeedController] = None
        self._control_task: Optional[PeriodicTask] = None
        #: active-time snapshot per disk at the last control tick
        self._active_snapshot: Optional[np.ndarray] = None
        self.control_decisions = {"up": 0, "down": 0, "hold": 0}

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        return {"name": self.name,
                "control_period_s": self.config.control_period_s,
                "up_watermark": self.config.up_watermark,
                "down_watermark": self.config.down_watermark,
                "decisions": dict(self.control_decisions)}

    def initial_layout(self) -> None:
        """Round-robin by size rank; start every disk LOW (DRPM's premise
        is that full speed is rarely needed) and arm the controller."""
        array = self._require_bound()
        order = self.fileset.ids_sorted_by_size()
        placement = np.empty(len(self.fileset), dtype=np.int64)
        placement[order] = np.arange(len(order)) % array.n_disks
        array.place_all(placement)
        for drive in array.drives:
            drive.force_speed(DiskSpeed.LOW)

        self._active_snapshot = np.zeros(array.n_disks, dtype=np.float64)
        self._controller = SpeedController(self.sim, array, self.config.speed)
        self._control_task = PeriodicTask(self.sim, self.config.control_period_s,
                                          self._control_tick, priority=30)

    def route(self, request: Request) -> None:
        self._require_bound()
        target = self.array.location_of(request.file_id)
        if self.config.demand_spin_up:
            assert self._controller is not None
            self._controller.check_spin_up(target)
        self.submit(request, disk_id=target)

    def shutdown(self) -> None:
        if self._control_task is not None:
            self._control_task.stop()
        if self._controller is not None:
            self._controller.shutdown()

    # ------------------------------------------------------------------
    def _control_tick(self, _tick: int) -> None:
        """Per-disk watermark decision on the last window's utilization."""
        array = self._require_bound()
        assert self._active_snapshot is not None
        period = self.config.control_period_s
        for disk_id, drive in enumerate(array.drives):
            drive.finalize()  # flush the ledger so active time is current
            active = drive.active_time_s
            window_util = (active - self._active_snapshot[disk_id]) / period
            self._active_snapshot[disk_id] = active

            if window_util > self.config.up_watermark:
                if drive.effective_target_speed is not DiskSpeed.HIGH:
                    drive.request_speed(DiskSpeed.HIGH)
                    self.control_decisions["up"] += 1
                else:
                    self.control_decisions["hold"] += 1
            elif window_util < self.config.down_watermark:
                if drive.effective_target_speed is not DiskSpeed.LOW:
                    drive.request_speed(DiskSpeed.LOW)
                    self.control_decisions["down"] += 1
                else:
                    self.control_decisions["hold"] += 1
            else:
                self.control_decisions["hold"] += 1
