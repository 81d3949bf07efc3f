"""Energy meter: per-state accounting and exact bookkeeping.

The meter is a plain accumulator; the drive's accounting edge
(``TwoSpeedDrive._account``) charges it, so the charging arithmetic is
tested through a drive.
"""

import math

import pytest

from repro.disk.drive import TwoSpeedDrive
from repro.disk.energy import STATE_INDEX, DiskPowerState, EnergyMeter
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


def _charge(meter: EnergyMeter, state: DiskPowerState, dt: float) -> None:
    i = STATE_INDEX[state]
    meter.times_s[i] += dt
    meter.energies_j[i] += meter.powers_w[i] * dt


class TestEnergyMeter:
    def test_power_mapping_matches_params(self, params):
        meter = EnergyMeter(params)
        assert meter.powers_w[STATE_INDEX[DiskPowerState.IDLE_LOW]] == params.low.idle_w
        assert meter.powers_w[STATE_INDEX[DiskPowerState.ACTIVE_HIGH]] == params.high.active_w
        assert meter.powers_w[STATE_INDEX[DiskPowerState.TRANSITION]] == pytest.approx(
            params.transition_power_w)

    def test_totals_are_sums(self, params):
        meter = EnergyMeter(params)
        _charge(meter, DiskPowerState.IDLE_LOW, 5.0)
        _charge(meter, DiskPowerState.ACTIVE_HIGH, 2.0)
        _charge(meter, DiskPowerState.TRANSITION, 1.0)
        assert meter.total_time_s == pytest.approx(8.0)
        expected = (params.low.idle_w * 5 + params.high.active_w * 2
                    + params.transition_power_w * 1)
        assert meter.total_energy_j == pytest.approx(expected)
        assert meter.times_s[STATE_INDEX[DiskPowerState.IDLE_LOW]] == 5.0
        assert meter.energies_j[STATE_INDEX[DiskPowerState.TRANSITION]] == pytest.approx(
            params.transition_power_w)

    def test_active_time_sums_both_speeds(self, params):
        meter = EnergyMeter(params)
        _charge(meter, DiskPowerState.ACTIVE_LOW, 3.0)
        _charge(meter, DiskPowerState.ACTIVE_HIGH, 4.0)
        _charge(meter, DiskPowerState.IDLE_LOW, 100.0)
        assert meter.active_time_s == pytest.approx(7.0)

    def test_breakdown_keys(self, params):
        # one zeroed slot per state, in STATE_INDEX (definition) order
        meter = EnergyMeter(params)
        assert list(STATE_INDEX) == list(DiskPowerState)
        assert list(STATE_INDEX.values()) == list(range(len(DiskPowerState)))
        assert meter.times_s == meter.energies_j == [0.0] * len(DiskPowerState)

    # the drive's inline charge: power x time into the ruling state
    def test_accumulate_energy_is_power_times_time(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0, initial_speed=DiskSpeed.HIGH)
        sim.run(until=10.0)
        drive.finalize()
        idle_high = STATE_INDEX[DiskPowerState.IDLE_HIGH]
        assert drive.energy.times_s[idle_high] == 10.0
        assert drive.energy.energies_j[idle_high] == params.high.idle_w * 10.0
        assert drive.energy.total_energy_j == params.high.idle_w * 10.0

    def test_zero_dt_allowed(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        drive.finalize()
        assert drive.energy.total_energy_j == 0.0
        assert drive.energy.total_time_s == 0.0
        assert drive.thermal.elapsed_s == 0.0

    def test_negative_dt_rejected(self, params):
        """Negative, infinite and NaN intervals are refused on the edge."""
        for clock in (-1.0, math.inf, math.nan):
            sim = Simulator()
            drive = TwoSpeedDrive(sim, params, 0)
            sim.now = clock  # a broken clock; the kernel never produces one
            with pytest.raises(ValueError, match="dt"):
                drive.finalize()
            assert drive.energy.total_time_s == 0.0
            assert drive.thermal.elapsed_s == 0.0
