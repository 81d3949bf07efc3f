"""Assembled PRESS model: analytic surface + simulation interface."""

import numpy as np
import pytest

from repro.disk.array import DiskArray
from repro.disk.drive import Job, TwoSpeedDrive
from repro.disk.parameters import DiskSpeed
from repro.press.integrator import CombinationStrategy
from repro.press.model import PRESSModel
from repro.sim.engine import Simulator


class TestDiskAFR:
    def test_paper_operating_points_ordered(self, press):
        low_speed_quiet = press.disk_afr(40.0, 30.0, 0.0)
        high_speed_quiet = press.disk_afr(50.0, 30.0, 0.0)
        high_speed_churny = press.disk_afr(50.0, 30.0, 1000.0)
        high_speed_hot_busy = press.disk_afr(50.0, 90.0, 1000.0)
        assert low_speed_quiet < high_speed_quiet < high_speed_churny < high_speed_hot_busy

    def test_default_combination_value(self, press):
        # mean(temp=9 @40C, util=6 @30%) + freq(0) = 7.5 + 1.39e-4
        assert press.disk_afr(40.0, 30.0, 0.0) == pytest.approx(7.5, abs=0.01)

    def test_frequency_dominates_at_high_churn(self, press):
        """Sec. 3.5 insight 1: frequency is the most significant factor."""
        base = press.disk_afr(40.0, 30.0, 0.0)
        max_temp_effect = press.disk_afr(50.0, 30.0, 0.0) - base
        max_util_effect = press.disk_afr(40.0, 100.0, 0.0) - base
        max_freq_effect = press.disk_afr(40.0, 30.0, 1600.0) - base
        # frequency strictly dominates; temperature >= utilization (the
        # 40->50 degC and low->high utilization spans tie exactly under
        # the digitized anchors + mean rule)
        assert max_freq_effect > max_temp_effect >= max_util_effect


class TestSurface:
    def test_fig5_shapes(self, press):
        utils, freqs = np.linspace(25, 100, 7), np.linspace(0, 1600, 9)
        surface = press.afr_surface(50.0, utils, freqs)
        assert surface.shape == (7, 9)

    def test_fig5b_above_fig5a_everywhere(self, press):
        """50 degC surface dominates the 40 degC surface."""
        utils, freqs = np.linspace(25, 100, 7), np.linspace(0, 1600, 9)
        s40 = press.afr_surface(40.0, utils, freqs)
        s50 = press.afr_surface(50.0, utils, freqs)
        assert np.all(s50 > s40)

    def test_surface_monotone_along_both_axes(self, press):
        utils, freqs = np.linspace(25, 100, 10), np.linspace(0, 1600, 10)
        s = press.afr_surface(45.0, utils, freqs)
        assert np.all(np.diff(s, axis=0) >= -1e-12)   # utilization axis
        assert np.all(np.diff(s[:, 1:], axis=1) >= -1e-12)  # frequency axis past dip

    def test_surface_matches_pointwise_evaluation(self, press):
        utils, freqs = np.array([30.0, 80.0]), np.array([10.0, 500.0])
        s = press.afr_surface(40.0, utils, freqs)
        for i, u in enumerate(utils):
            for j, f in enumerate(freqs):
                assert s[i, j] == pytest.approx(press.disk_afr(40.0, u, f))

    def test_2d_grid_rejected(self, press):
        with pytest.raises(ValueError):
            press.afr_surface(40.0, np.ones((2, 2)), np.ones(3))


class TestSimulationInterface:
    def test_factors_of_quiet_drive(self, params, press):
        sim = Simulator()
        drive = TwoSpeedDrive(sim, params, 0, initial_speed=DiskSpeed.HIGH)
        sim.schedule(100.0, lambda: None)
        sim.run()
        drive.finalize()
        factors = press.factors_of(drive, 100.0)
        assert factors.transitions_per_day == 0.0
        assert factors.utilization_percent == 0.0
        assert factors.mean_temperature_c == pytest.approx(50.0)
        assert factors.afr_percent == pytest.approx(press.disk_afr(50.0, 0.0, 0.0))

    def test_evaluate_array_uses_max(self, params, press, tiny_fileset):
        sim = Simulator()
        array = DiskArray(sim, params, 3, tiny_fileset)
        # disk 0 transitions (worse), others stay put
        array.drive(0).request_speed(DiskSpeed.LOW)
        sim.run(until=1000.0)
        afr, factors = press.evaluate_array(
            [d.open_ledger().close(1000.0) for d in array.drives], 1000.0)
        assert len(factors) == 3
        assert afr == pytest.approx(max(f.afr_percent for f in factors))
        assert factors[0].transitions_per_day > 0.0

    def test_evaluate_array_keys_disks_by_position(self, params, press):
        # shard ledgers carry local ids; the merged factors are global
        sim = Simulator()
        drives = [TwoSpeedDrive(sim, params, 0), TwoSpeedDrive(sim, params, 0)]
        drives[1].submit(Job.internal_transfer(5.0))
        sim.run()
        _, factors = press.evaluate_array(
            [d.open_ledger().close(sim.now) for d in drives], sim.now)
        assert [f.disk_id for f in factors] == [0, 1]
        assert factors[0].utilization_percent == 0.0
        assert factors[1].utilization_percent > 0.0

    def test_factors_of_scores_like_evaluate_array(self, params, press):
        sim = Simulator()
        drive = TwoSpeedDrive(sim, params, 4)
        drive.submit(Job.internal_transfer(5.0))
        sim.run(until=50.0)
        _, (expected,) = press.evaluate_array([drive.open_ledger().close(50.0)], 50.0)
        factors = press.factors_of(drive, 50.0)
        assert factors.disk_id == 4
        assert factors.afr_percent == expected.afr_percent
        assert factors.utilization_percent == expected.utilization_percent


class TestStrategyFactory:
    def test_with_strategy(self):
        m = PRESSModel.with_strategy(CombinationStrategy.SUM)
        assert m.disk_afr(40.0, 30.0, 0.0) == pytest.approx(15.0, abs=0.01)

    def test_sum_dominates_default(self, press):
        m = PRESSModel.with_strategy(CombinationStrategy.SUM)
        for t, u, f in [(40, 30, 0), (50, 90, 100), (45, 60, 1500)]:
            assert m.disk_afr(t, u, f) >= press.disk_afr(t, u, f)
