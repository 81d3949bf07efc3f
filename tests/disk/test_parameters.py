"""Two-speed disk parameters and the PDC-style low-mode derivation."""

import pytest

from repro.disk.parameters import (
    DiskSpeed,
    SpeedModeParams,
    TwoSpeedDiskParams,
    cheetah_two_speed,
    derive_low_mode,
)


class TestDiskSpeed:
    def test_other_flips(self):
        assert DiskSpeed.LOW.other is DiskSpeed.HIGH
        assert DiskSpeed.HIGH.other is DiskSpeed.LOW


class TestSpeedModeParams:
    def test_service_time_components(self):
        mode = SpeedModeParams(rpm=10_000, transfer_mb_s=30.0, avg_seek_s=0.005,
                               avg_rot_latency_s=0.003, active_w=13.0, idle_w=10.0,
                               steady_temp_c=50.0)
        assert mode.positioning_s == pytest.approx(0.008)
        assert mode.service_time_s(3.0) == pytest.approx(0.008 + 0.1)

    def test_service_time_rejects_nonpositive_size(self):
        mode = cheetah_two_speed().high
        with pytest.raises(ValueError):
            mode.service_time_s(0.0)

    def test_active_below_idle_rejected(self):
        with pytest.raises(ValueError):
            SpeedModeParams(rpm=1, transfer_mb_s=1, avg_seek_s=1, avg_rot_latency_s=1,
                            active_w=5.0, idle_w=9.0, steady_temp_c=40.0)


class TestDeriveLowMode:
    def test_paper_scaling_rules(self):
        high = cheetah_two_speed().high
        low = derive_low_mode(high, 3600.0, base_power_w=4.0, low_steady_temp_c=40.0)
        ratio = 3600.0 / high.rpm
        # transfer rate scales linearly with RPM
        assert low.transfer_mb_s == pytest.approx(high.transfer_mb_s * ratio)
        # rotational latency scales inversely
        assert low.avg_rot_latency_s == pytest.approx(high.avg_rot_latency_s / ratio)
        # seek time unchanged (arm property)
        assert low.avg_seek_s == high.avg_seek_s
        # spindle power scales with RPM**2.8 above the electronics base
        expected_idle = 4.0 + (high.idle_w - 4.0) * ratio**2.8
        assert low.idle_w == pytest.approx(expected_idle)
        # active increment preserved
        assert low.active_w - low.idle_w == pytest.approx(high.active_w - high.idle_w)

    def test_low_rpm_must_be_below_high(self):
        high = cheetah_two_speed().high
        with pytest.raises(ValueError):
            derive_low_mode(high, 12_000.0, base_power_w=4.0, low_steady_temp_c=40.0)

    def test_base_power_bounds(self):
        high = cheetah_two_speed().high
        with pytest.raises(ValueError):
            derive_low_mode(high, 3600.0, base_power_w=high.idle_w + 1,
                            low_steady_temp_c=40.0)


class TestCheetahTwoSpeed:
    def test_paper_speed_points(self, params):
        assert params.low.rpm == 3600.0
        assert params.high.rpm == 10_000.0

    def test_paper_temperature_anchors(self, params):
        assert params.low.steady_temp_c == 40.0
        assert params.high.steady_temp_c == 50.0

    def test_low_mode_strictly_cheaper_and_slower(self, params):
        assert params.low.idle_w < params.high.idle_w
        assert params.low.active_w < params.high.active_w
        assert params.low.transfer_mb_s < params.high.transfer_mb_s

    def test_transition_power(self, params):
        assert params.transition_power_w == pytest.approx(
            params.transition_energy_j / params.transition_time_s)

    def test_mode_lookup(self, params):
        assert params.mode(DiskSpeed.LOW) is params.low
        assert params.mode(DiskSpeed.HIGH) is params.high

    def test_validation_rejects_inverted_modes(self, params):
        with pytest.raises(ValueError):
            TwoSpeedDiskParams(name="bad", capacity_mb=1000.0,
                               low=params.high, high=params.low,
                               transition_time_s=1.0, transition_energy_j=1.0)
