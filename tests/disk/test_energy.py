"""Energy accounting: per-state residence and exact bookkeeping.

The drive keeps one time and one energy accumulator per power state and
its accounting edge (``TwoSpeedDrive._account``) charges them, so the
charging arithmetic is tested through a drive.
"""

import math

import pytest

from repro.disk.drive import Job, TwoSpeedDrive
from repro.disk.energy import STATE_INDEX, DiskPowerState
from repro.disk.parameters import DiskSpeed
from repro.sim.engine import Simulator


class TestDiskPowerState:
    @pytest.mark.parametrize("active,speed,expected", [
        (False, DiskSpeed.LOW, DiskPowerState.IDLE_LOW),
        (False, DiskSpeed.HIGH, DiskPowerState.IDLE_HIGH),
        (True, DiskSpeed.LOW, DiskPowerState.ACTIVE_LOW),
        (True, DiskSpeed.HIGH, DiskPowerState.ACTIVE_HIGH),
    ])
    def test_of(self, active, speed, expected):
        assert DiskPowerState.of(active, speed) is expected


class TestEnergyMeter:
    """The drive's per-state accumulators and the charge that fills them."""

    def test_power_mapping_matches_params(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        assert drive.powers_w[STATE_INDEX[DiskPowerState.IDLE_LOW]] == params.low.idle_w
        assert drive.powers_w[STATE_INDEX[DiskPowerState.ACTIVE_HIGH]] == params.high.active_w
        assert drive.powers_w[STATE_INDEX[DiskPowerState.TRANSITION]] == pytest.approx(
            params.transition_power_w)

    def test_totals_are_sums(self, sim, params):
        """Idle at low speed, a transfer at high speed, one transition."""
        drive = TwoSpeedDrive(sim, params, 0, initial_speed=DiskSpeed.LOW)
        sim.run(until=5.0)
        drive.request_speed(DiskSpeed.HIGH)
        sim.run()
        drive.submit(Job.internal_transfer(10.0))
        sim.run()
        drive.finalize()
        transition_s = params.transition_time_s
        active_s = params.mode(DiskSpeed.HIGH).service_time_s(10.0)
        assert sum(drive.times_s) == pytest.approx(5.0 + transition_s + active_s)
        expected = (params.low.idle_w * 5.0 + params.transition_power_w * transition_s
                    + params.high.active_w * active_s)
        assert sum(drive.energies_j) == pytest.approx(expected)
        assert drive.times_s[STATE_INDEX[DiskPowerState.IDLE_LOW]] == 5.0
        assert drive.energies_j[STATE_INDEX[DiskPowerState.TRANSITION]] == pytest.approx(
            params.transition_energy_j)

    def test_active_time_sums_both_speeds(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0, initial_speed=DiskSpeed.LOW)
        drive.submit(Job.internal_transfer(3.0))
        sim.run()
        drive.request_speed(DiskSpeed.HIGH)
        sim.run()
        drive.submit(Job.internal_transfer(4.0))
        sim.run(until=sim.now + 100.0)
        drive.finalize()
        assert drive.active_time_s == pytest.approx(
            params.mode(DiskSpeed.LOW).service_time_s(3.0)
            + params.mode(DiskSpeed.HIGH).service_time_s(4.0))

    def test_breakdown_keys(self, sim, params):
        # one zeroed slot per state, in STATE_INDEX (definition) order
        drive = TwoSpeedDrive(sim, params, 0)
        assert list(STATE_INDEX) == list(DiskPowerState)
        assert list(STATE_INDEX.values()) == list(range(len(DiskPowerState)))
        assert drive.times_s == drive.energies_j == [0.0] * len(DiskPowerState)

    # the drive's inline charge: power x time into the ruling state
    def test_accumulate_energy_is_power_times_time(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0, initial_speed=DiskSpeed.HIGH)
        sim.run(until=10.0)
        drive.finalize()
        idle_high = STATE_INDEX[DiskPowerState.IDLE_HIGH]
        assert drive.times_s[idle_high] == 10.0
        assert drive.energies_j[idle_high] == params.high.idle_w * 10.0
        assert sum(drive.energies_j) == params.high.idle_w * 10.0

    def test_zero_dt_allowed(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        drive.finalize()
        assert sum(drive.energies_j) == 0.0
        assert sum(drive.times_s) == 0.0
        assert drive.elapsed_s == 0.0

    def test_negative_dt_rejected(self, params):
        """Negative, infinite and NaN intervals are refused on the edge."""
        for clock in (-1.0, math.inf, math.nan):
            sim = Simulator()
            drive = TwoSpeedDrive(sim, params, 0)
            sim.now = clock  # a broken clock; the kernel never produces one
            with pytest.raises(ValueError, match="dt"):
                drive.finalize()
            assert sum(drive.times_s) == 0.0
            assert drive.elapsed_s == 0.0
