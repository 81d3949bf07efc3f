"""First-order thermal model: exact integration, paper anchors."""

import math

import numpy as np
import pytest

from repro.disk.thermal import DEFAULT_TAU_S, ThermalModel, steady_temperature_from_rpm


class TestSteadyTemperature:
    def test_paper_anchor_points(self):
        assert steady_temperature_from_rpm(3600.0) == pytest.approx(40.0, abs=1e-9)
        assert steady_temperature_from_rpm(10_000.0) == pytest.approx(50.0, abs=1e-9)

    def test_monotone_in_rpm(self):
        rpms = np.linspace(1000, 20_000, 30)
        temps = [steady_temperature_from_rpm(r) for r in rpms]
        assert all(b > a for a, b in zip(temps, temps[1:]))

    def test_approaches_ambient_at_zero_rpm(self):
        assert steady_temperature_from_rpm(1.0) == pytest.approx(28.0, abs=0.5)

    def test_custom_ambient_shifts_curve(self):
        assert steady_temperature_from_rpm(3600.0, ambient_c=20.0) == pytest.approx(32.0)


class TestThermalModel:
    def test_initial_state(self):
        m = ThermalModel(initial_c=28.0)
        assert m.temperature_c == 28.0
        assert m.elapsed_s == 0.0
        assert m.mean_temperature_c() == 28.0

    def test_exponential_approach(self):
        m = ThermalModel(initial_c=28.0, tau_s=100.0)
        m.advance(100.0, 50.0)
        expected = 50.0 + (28.0 - 50.0) * math.exp(-1.0)
        assert m.temperature_c == pytest.approx(expected)

    def test_reaches_steady_state_after_48_minutes(self):
        """The paper's [12] anchor: steady state 'after 48 minutes'."""
        m = ThermalModel(initial_c=28.0, tau_s=DEFAULT_TAU_S)
        m.advance(48 * 60.0, 50.0)
        assert m.temperature_c == pytest.approx(50.0, abs=0.5)

    def test_mean_temperature_exact_integral(self):
        tau, t0, tss, dt = 50.0, 30.0, 50.0, 80.0
        m = ThermalModel(initial_c=t0, tau_s=tau)
        m.advance(dt, tss)
        analytic = (tss * dt + (t0 - tss) * tau * (1 - math.exp(-dt / tau))) / dt
        assert m.mean_temperature_c() == pytest.approx(analytic)

    def test_mean_matches_fine_stepping(self):
        coarse = ThermalModel(initial_c=28.0, tau_s=120.0)
        coarse.advance(500.0, 50.0)
        coarse.advance(300.0, 40.0)
        fine = ThermalModel(initial_c=28.0, tau_s=120.0)
        for _ in range(5000):
            fine.advance(0.1, 50.0)
        for _ in range(3000):
            fine.advance(0.1, 40.0)
        assert coarse.mean_temperature_c() == pytest.approx(fine.mean_temperature_c(), rel=1e-6)
        assert coarse.temperature_c == pytest.approx(fine.temperature_c, rel=1e-6)

    def test_zero_dt_is_noop(self):
        m = ThermalModel(initial_c=35.0)
        m.advance(0.0, 50.0)
        assert m.temperature_c == 35.0
        assert m.elapsed_s == 0.0

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel().advance(-1.0, 50.0)

    def test_at_steady_state_stays(self):
        m = ThermalModel(initial_c=50.0)
        m.advance(1000.0, 50.0)
        assert m.temperature_c == pytest.approx(50.0)
        assert m.mean_temperature_c() == pytest.approx(50.0)

    def test_cooling_direction(self):
        m = ThermalModel(initial_c=50.0, tau_s=100.0)
        m.advance(50.0, 40.0)
        assert 40.0 < m.temperature_c < 50.0

    def test_reset_clears_integral(self):
        m = ThermalModel(initial_c=28.0)
        m.advance(100.0, 50.0)
        m.reset(temperature_c=45.0)
        assert m.temperature_c == 45.0
        assert m.elapsed_s == 0.0
        assert m.mean_temperature_c() == 45.0
