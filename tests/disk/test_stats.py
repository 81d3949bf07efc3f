"""Per-drive counters and the per-day and utilization normalizations.

The drive counts its runtime speed transitions and its internal jobs in
its own fields.  The per-day and utilization normalizations are scored
where the simulator computes them, :meth:`PRESSModel.evaluate_array`
over a disk's closed ledger.
"""

import pytest

from repro.disk.drive import Job, TwoSpeedDrive
from repro.disk.energy import STATE_INDEX, DiskPowerState
from repro.disk.ledger import ClosedDiskLedger
from repro.disk.parameters import DiskSpeed
from repro.press.model import PRESSModel
from repro.sim.engine import Simulator
from repro.util.units import SECONDS_PER_DAY
from repro.workload.request import Request


def _factors(horizon_s, *, transitions=0, active_s=0.0):
    """One disk's ESRRA factors from its counters over ``horizon_s``."""
    time_s = [0.0] * len(DiskPowerState)
    time_s[STATE_INDEX[DiskPowerState.ACTIVE_HIGH]] = active_s
    ledger = ClosedDiskLedger(
        disk_id=0, time_s=tuple(time_s),
        energy_j=(0.0,) * len(DiskPowerState), temperature_c=40.0,
        integral_c_s=0.0, elapsed_s=0.0, internal_jobs_served=0,
        transitions_total=transitions)
    _, (factors,) = PRESSModel().evaluate_array([ledger], horizon_s)
    return factors


def _per_day(transitions, horizon_s):
    return _factors(horizon_s, transitions=transitions).transitions_per_day


def _utilization(active_s, horizon_s):
    return _factors(horizon_s, active_s=active_s).utilization_percent / 100.0


class TestServiceCounting:
    def test_user_vs_internal(self, sim, params):
        """Internal jobs are counted; user requests are not."""
        drive = TwoSpeedDrive(sim, params, 0)
        request = Request(0.0, 0, 2.0)
        drive.submit(Job.for_request(request))
        drive.submit(Job.internal_transfer(3.0))
        sim.run()
        assert request.completed
        assert drive.internal_jobs_served == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Job.internal_transfer(0.0)


class TestTransitionCounting:
    def test_negative_time_rejected(self, params):
        """A transition on a broken (negative) clock is refused uncounted."""
        sim = Simulator()
        drive = TwoSpeedDrive(sim, params, 0)
        sim.now = -1.0  # the kernel never produces one
        with pytest.raises(ValueError):
            drive.request_speed(DiskSpeed.LOW)
        assert drive.transitions_total == 0

    def test_per_day_normalization_extrapolates(self):
        # 2 transitions in half a day -> 4 per day
        assert _per_day(2, SECONDS_PER_DAY / 2) == pytest.approx(4.0)

    def test_per_day_requires_positive_duration(self):
        with pytest.raises(ValueError):
            _per_day(0, 0.0)

    def test_sub_day_extrapolation_scales_linearly(self):
        # 3 transitions in one hour -> 72/day; in one second -> 259200/day.
        assert _per_day(3, 3600.0) == pytest.approx(72.0)
        assert _per_day(3, 1.0) == pytest.approx(3 * SECONDS_PER_DAY)

    def test_zero_transitions_normalize_to_zero(self):
        assert _per_day(0, 5.0) == 0.0


class TestUtilization:
    def test_paper_definition(self):
        assert _utilization(25.0, 100.0) == pytest.approx(0.25)

    def test_clamped_at_one(self):
        assert _utilization(150.0, 100.0) == 1.0

    def test_zero_active(self):
        assert _utilization(0.0, 100.0) == 0.0

    def test_invalid_power_on_time(self):
        with pytest.raises(ValueError):
            _utilization(1.0, 0.0)

    def test_zero_power_on_time_rejected_even_when_idle(self):
        # A drive that never powered on has no defined utilization —
        # 0/0 must raise rather than silently return 0.
        with pytest.raises(ValueError):
            _utilization(0.0, 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            _utilization(-1.0, 100.0)
        with pytest.raises(ValueError):
            _utilization(1.0, -100.0)

    def test_tiny_power_on_time_is_valid(self):
        assert _utilization(1e-12, 1e-9) == pytest.approx(1e-3)
