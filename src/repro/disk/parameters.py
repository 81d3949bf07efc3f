"""Disk drive parameter sets and the Cheetah-derived two-speed model.

The paper gives no parameter table of its own; it states (Sec. 5.1) that
"the same strategy used in [23] to derive corresponding low speed mode
disk statistics from parameters of a conventional Cheetah disk is
adopted".  We therefore model a 10 000 RPM Cheetah-class drive and derive
the 3 600 RPM mode with the standard scaling rules that PDC/DRPM used:

* sequential transfer rate scales linearly with RPM (same areal density,
  fewer revolutions per second under the head);
* rotational latency is half a revolution, so it scales as 1/RPM;
* seek time is an arm property — unchanged by spindle speed;
* spindle power scales as RPM**2.8 (DRPM's empirical exponent); the
  electronics draw a speed-independent base power on top.

Operating-temperature anchors come from the paper's Sec. 3.2: the
3 600 RPM mode sits in [35, 40] degC and the 10 000 RPM mode in
[45, 50] degC, and Sec. 3.5 pins the PRESS inputs at 40/50 degC, which
are the steady-state temperatures used here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.validation import require, require_positive

__all__ = ["DiskSpeed", "SpeedModeParams", "TwoSpeedDiskParams", "cheetah_two_speed"]

#: DRPM's empirical spindle-power scaling exponent.
SPINDLE_POWER_RPM_EXPONENT = 2.8

#: Ambient temperature used throughout the paper's Sec. 3.4 (degC).
AMBIENT_TEMPERATURE_C = 28.0


class DiskSpeed(enum.IntEnum):
    """The two spindle speeds of a two-speed disk (Sec. 3.2)."""

    LOW = 0
    HIGH = 1

    @property
    def other(self) -> "DiskSpeed":
        """The opposite speed mode."""
        return DiskSpeed.HIGH if self is DiskSpeed.LOW else DiskSpeed.LOW


@dataclass(frozen=True, slots=True)
class SpeedModeParams:
    """Operating characteristics of one spindle-speed mode.

    Attributes
    ----------
    rpm:
        Spindle speed, revolutions per minute.
    transfer_mb_s:
        Sustained sequential transfer rate (MB/s) — the paper's
        ``t_h``/``t_l``.
    avg_seek_s / avg_rot_latency_s:
        Fixed per-request positioning overheads (seconds).
    active_w / idle_w:
        Power draw while transferring vs spinning idle (watts).
    steady_temp_c:
        Steady-state operating temperature at this speed (degC).
    """

    rpm: float
    transfer_mb_s: float
    avg_seek_s: float
    avg_rot_latency_s: float
    active_w: float
    idle_w: float
    steady_temp_c: float

    def __post_init__(self) -> None:
        require_positive(self.rpm, "rpm")
        require_positive(self.transfer_mb_s, "transfer_mb_s")
        require_positive(self.avg_seek_s, "avg_seek_s")
        require_positive(self.avg_rot_latency_s, "avg_rot_latency_s")
        require_positive(self.active_w, "active_w")
        require_positive(self.idle_w, "idle_w")
        require(self.active_w >= self.idle_w, "active_w must be >= idle_w")
        require_positive(self.steady_temp_c, "steady_temp_c")

    @property
    def positioning_s(self) -> float:
        """Total fixed overhead per whole-file access (seek + rotation)."""
        return self.avg_seek_s + self.avg_rot_latency_s

    def service_time_s(self, size_mb: float) -> float:
        """Time to serve one whole-file read of ``size_mb`` at this speed."""
        require_positive(size_mb, "size_mb")
        return self.positioning_s + size_mb / self.transfer_mb_s


@dataclass(frozen=True, slots=True)
class TwoSpeedDiskParams:
    """Full parameter set of a two-speed disk drive.

    ``transition_time_s``/``transition_energy_j`` apply to either
    direction of the LOW <-> HIGH switch; the paper treats the two
    directions symmetrically (Sec. 3.4: "speed transition is
    bi-directional").  No requests are served during a transition (Sec. 4).
    """

    name: str
    capacity_mb: float
    low: SpeedModeParams
    high: SpeedModeParams
    transition_time_s: float
    transition_energy_j: float

    def __post_init__(self) -> None:
        require_positive(self.capacity_mb, "capacity_mb")
        require_positive(self.transition_time_s, "transition_time_s")
        require_positive(self.transition_energy_j, "transition_energy_j")
        require(self.low.rpm < self.high.rpm, "low mode must have lower RPM than high mode")
        require(self.low.transfer_mb_s < self.high.transfer_mb_s,
                "low mode must have a lower transfer rate")
        require(self.low.steady_temp_c < self.high.steady_temp_c,
                "low mode must run cooler than high mode")

    def mode(self, speed: DiskSpeed) -> SpeedModeParams:
        """Parameters of the requested speed mode."""
        return self.high if speed is DiskSpeed.HIGH else self.low

    @property
    def transition_power_w(self) -> float:
        """Mean power draw during a speed transition."""
        return self.transition_energy_j / self.transition_time_s


def derive_low_mode(high: SpeedModeParams, low_rpm: float, *,
                    base_power_w: float, low_steady_temp_c: float) -> SpeedModeParams:
    """Derive a low-speed mode from a high-speed one (PDC's procedure).

    ``base_power_w`` is the speed-independent electronics draw; the
    remainder of the high mode's idle power is spindle power, scaled by
    ``(low_rpm/high_rpm) ** 2.8``.  The active-over-idle increment (head,
    servo, channel) is kept constant across speeds.
    """
    require_positive(low_rpm, "low_rpm")
    require(low_rpm < high.rpm, "low_rpm must be below the high mode's rpm")
    require(0 < base_power_w < high.idle_w,
            "base_power_w must be positive and below the high mode's idle power")

    ratio = low_rpm / high.rpm
    spindle_high = high.idle_w - base_power_w
    idle_low = base_power_w + spindle_high * ratio**SPINDLE_POWER_RPM_EXPONENT
    active_increment = high.active_w - high.idle_w
    return SpeedModeParams(
        rpm=low_rpm,
        transfer_mb_s=high.transfer_mb_s * ratio,
        avg_seek_s=high.avg_seek_s,
        avg_rot_latency_s=high.avg_rot_latency_s / ratio,
        active_w=idle_low + active_increment,
        idle_w=idle_low,
        steady_temp_c=low_steady_temp_c,
    )


def cheetah_two_speed(*, capacity_mb: float = 18_400.0,
                      transition_time_s: float = 4.0,
                      transition_energy_j: float = 70.0) -> TwoSpeedDiskParams:
    """The canonical two-speed Cheetah used by every experiment.

    High mode is a Seagate Cheetah-class 10 000 RPM drive (18.4 GB
    Cheetah 18XL era): 5.2 ms average seek, 3.0 ms rotational latency,
    31 MB/s sustained transfer, 13.5 W active / 10.2 W idle.  The low
    mode is derived at the paper's 3 600 RPM with a 4.0 W electronics
    base.  Steady temperatures are the paper's 50 degC (high) and
    40 degC (low).

    Transition figures (4 s, 70 J) are in the range DRPM/Hibernator
    report for partial-speed changes — substantially cheaper than a full
    stop/start, consistent with the paper's Sec. 3.4 argument.
    """
    high = SpeedModeParams(
        rpm=10_000.0,
        transfer_mb_s=31.0,
        avg_seek_s=5.2e-3,
        avg_rot_latency_s=0.5 * 60.0 / 10_000.0,
        active_w=13.5,
        idle_w=10.2,
        steady_temp_c=50.0,
    )
    low = derive_low_mode(high, 3_600.0, base_power_w=4.0, low_steady_temp_c=40.0)
    return TwoSpeedDiskParams(
        name="cheetah-2speed",
        capacity_mb=capacity_mb,
        low=low,
        high=high,
        transition_time_s=transition_time_s,
        transition_energy_j=transition_energy_j,
    )
