"""First-order thermal model: exact integration, paper anchors.

The relaxation step is tested through its reference form,
:meth:`OpenDiskLedger.advance`; the drive's inline accounting edge is
held to it bit for bit in ``test_drive_properties.py``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.disk.ledger import OpenDiskLedger
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


def _ledger(temp_c: float, steady_c: float, *,
            tau_s: float = DEFAULT_TAU_S) -> OpenDiskLedger:
    """A powerless open ledger at t=0 relaxing from ``temp_c`` to ``steady_c``."""
    return OpenDiskLedger(
        disk_id=0, last_account_s=0.0, time_s=(0.0,) * 5, energy_j=(0.0,) * 5,
        state_index=None, power_w=0.0, steady_c=steady_c, temp_c=temp_c,
        integral_c_s=0.0, elapsed_s=0.0, tau_s=tau_s, requests_served=0,
        internal_jobs_served=0, mb_served=0.0, transitions_total=0,
        transitions_by_day=())


class TestThermalModel:
    """The accumulator record, and the relaxation step it is advanced by."""

    def test_initial_state(self):
        m = ThermalModel(initial_c=28.0)
        assert m.temperature_c == 28.0
        assert m.elapsed_s == 0.0
        assert m.mean_temperature_c() == 28.0

    def test_reset_clears_integral(self):
        m = ThermalModel(initial_c=28.0)
        m.integral_c_s, m.elapsed_s = 4000.0, 100.0
        m.reset(temperature_c=45.0)
        assert m.temperature_c == 45.0
        assert m.elapsed_s == 0.0
        assert m.mean_temperature_c() == 45.0

    def test_non_positive_tau_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel(tau_s=0.0)

    # the relaxation step, through its reference form
    def test_exponential_approach(self):
        closed = _ledger(28.0, 50.0, tau_s=100.0).close(100.0)
        expected = 50.0 + (28.0 - 50.0) * math.exp(-1.0)
        assert closed.temperature_c == pytest.approx(expected)

    def test_reaches_steady_state_after_48_minutes(self):
        """The paper's [12] anchor: steady state 'after 48 minutes'."""
        closed = _ledger(28.0, 50.0).close(48 * 60.0)
        assert closed.temperature_c == pytest.approx(50.0, abs=0.5)

    def test_mean_temperature_exact_integral(self):
        tau, t0, tss, dt = 50.0, 30.0, 50.0, 80.0
        closed = _ledger(t0, tss, tau_s=tau).close(dt)
        analytic = (tss * dt + (t0 - tss) * tau * (1 - math.exp(-dt / tau))) / dt
        assert closed.mean_temperature_c() == pytest.approx(analytic)

    def test_mean_matches_fine_stepping(self):
        coarse = _ledger(28.0, 50.0, tau_s=120.0).advance(500.0)
        coarse = replace(coarse, steady_c=40.0).close(800.0)
        fine = _ledger(28.0, 50.0, tau_s=120.0)
        for k in range(1, 5001):
            fine = fine.advance(0.1 * k)
        fine = replace(fine, steady_c=40.0)
        for k in range(1, 3001):
            fine = fine.advance(500.0 + 0.1 * k)
        assert coarse.mean_temperature_c() == pytest.approx(
            fine.integral_c_s / fine.elapsed_s, rel=1e-6)
        assert coarse.temperature_c == pytest.approx(fine.temp_c, rel=1e-6)

    def test_zero_dt_is_noop(self):
        ledger = _ledger(35.0, 50.0)
        assert ledger.advance(0.0) == ledger

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            _ledger(28.0, 50.0).advance(-1.0)

    def test_at_steady_state_stays(self):
        closed = _ledger(50.0, 50.0).close(1000.0)
        assert closed.temperature_c == pytest.approx(50.0)
        assert closed.mean_temperature_c() == pytest.approx(50.0)

    def test_cooling_direction(self):
        closed = _ledger(50.0, 40.0, tau_s=100.0).close(50.0)
        assert 40.0 < closed.temperature_c < 50.0
