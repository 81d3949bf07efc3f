"""Per-drive statistics: counting, day buckets, normalization.

The per-day and utilization normalizations are scored where the
simulator computes them, :meth:`PRESSModel.evaluate_array` over a
disk's closed ledger.
"""

import pytest

from repro.disk.energy import STATE_INDEX, DiskPowerState
from repro.disk.ledger import ClosedDiskLedger
from repro.disk.stats import DiskStats
from repro.press.model import PRESSModel
from repro.util.units import SECONDS_PER_DAY


def _factors(stats, horizon_s, active_s=0.0):
    """One disk's ESRRA factors from its counters over ``horizon_s``."""
    time_s = [0.0] * len(DiskPowerState)
    time_s[STATE_INDEX[DiskPowerState.ACTIVE_HIGH]] = active_s
    ledger = ClosedDiskLedger(
        disk_id=stats.disk_id, time_s=tuple(time_s),
        energy_j=(0.0,) * len(DiskPowerState), temperature_c=40.0,
        integral_c_s=0.0, elapsed_s=0.0,
        requests_served=stats.requests_served,
        internal_jobs_served=stats.internal_jobs_served,
        mb_served=stats.mb_served,
        transitions_total=stats.speed_transitions_total,
        transitions_by_day=tuple(sorted(stats.transitions_by_day.items())))
    _, (factors,) = PRESSModel().evaluate_array([ledger], horizon_s)
    return factors


def _per_day(stats, horizon_s):
    return _factors(stats, horizon_s).transitions_per_day


def _utilization(active_s, horizon_s):
    return _factors(DiskStats(0), horizon_s, active_s).utilization_percent / 100.0


class TestServiceCounting:
    def test_user_vs_internal(self):
        s = DiskStats(0)
        s.record_service(2.0, internal=False)
        s.record_service(3.0, internal=True)
        assert s.requests_served == 1
        assert s.internal_jobs_served == 1
        assert s.mb_served == pytest.approx(5.0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            DiskStats(0).record_service(0.0, internal=False)


class TestTransitionCounting:
    def test_day_bucketing(self):
        s = DiskStats(0)
        s.record_transition(10.0)
        s.record_transition(SECONDS_PER_DAY - 1)
        s.record_transition(SECONDS_PER_DAY + 1)
        assert s.speed_transitions_total == 3
        assert s.transitions_on_day(0) == 2
        assert s.transitions_on_day(1) == 1
        assert s.transitions_on_day(7) == 0

    def test_max_transitions_per_day(self):
        s = DiskStats(0)
        assert s.max_transitions_per_day() == 0
        for t in (1.0, 2.0, 3.0, SECONDS_PER_DAY + 5):
            s.record_transition(t)
        assert s.max_transitions_per_day() == 3

    def test_per_day_normalization_extrapolates(self):
        s = DiskStats(0)
        for t in (1.0, 2.0):
            s.record_transition(t)
        # 2 transitions in half a day -> 4 per day
        assert _per_day(s, SECONDS_PER_DAY / 2) == pytest.approx(4.0)

    def test_per_day_requires_positive_duration(self):
        with pytest.raises(ValueError):
            _per_day(DiskStats(0), 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            DiskStats(0).record_transition(-1.0)

    def test_midnight_boundary_belongs_to_the_new_day(self):
        # t == k * 86400 opens day k: the bucketing is floor(t / day),
        # so midnight itself is the first instant of the next day.
        s = DiskStats(0)
        s.record_transition(SECONDS_PER_DAY)
        s.record_transition(2 * SECONDS_PER_DAY)
        assert s.transitions_on_day(0) == 0
        assert s.transitions_on_day(1) == 1
        assert s.transitions_on_day(2) == 1

    def test_instant_before_midnight_stays_on_the_old_day(self):
        s = DiskStats(0)
        s.record_transition(SECONDS_PER_DAY - 1e-9)
        assert s.transitions_on_day(0) == 1
        assert s.transitions_on_day(1) == 0

    def test_time_zero_counts_on_day_zero(self):
        s = DiskStats(0)
        s.record_transition(0.0)
        assert s.transitions_on_day(0) == 1

    def test_sub_day_extrapolation_scales_linearly(self):
        # 3 transitions in one hour -> 72/day; in one second -> 259200/day.
        s = DiskStats(0)
        for t in (0.1, 0.2, 0.3):
            s.record_transition(t)
        assert _per_day(s, 3600.0) == pytest.approx(72.0)
        assert _per_day(s, 1.0) == pytest.approx(3 * SECONDS_PER_DAY)

    def test_zero_transitions_normalize_to_zero(self):
        assert _per_day(DiskStats(0), 5.0) == 0.0


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
