"""Shared policy machinery: TransitionBudget and SpeedController."""

import numpy as np
import pytest

from repro.disk.array import DiskArray
from repro.disk.drive import Job
from repro.disk.parameters import DiskSpeed
from repro.policies.base import (
    Policy,
    PolicyError,
    SpeedControlConfig,
    SpeedController,
    TransitionBudget,
)
from repro.sim.engine import Simulator
from repro.util.units import SECONDS_PER_DAY
from repro.workload.files import FileSet


@pytest.fixture
def array(sim, params, tiny_fileset):
    arr = DiskArray(sim, params, 3, tiny_fileset)
    arr.place_all(np.array([0, 1, 2, 0, 1, 2, 0, 1]))
    return arr


class TestTransitionBudget:
    def test_spend_until_exhausted(self, sim):
        budget = TransitionBudget(sim, limit_per_day=3)
        assert [budget.spend(0) for _ in range(4)] == [True, True, True, False]
        assert budget.spent_today(0) == 3
        assert not budget.available(0)

    def test_budgets_are_per_disk(self, sim):
        budget = TransitionBudget(sim, limit_per_day=1)
        assert budget.spend(0)
        assert budget.spend(1)
        assert not budget.spend(0)

    def test_budget_resets_next_day(self, sim):
        budget = TransitionBudget(sim, limit_per_day=1)
        assert budget.spend(0)
        assert not budget.spend(0)
        sim.schedule(SECONDS_PER_DAY + 1, lambda: None)
        sim.run()
        assert budget.spend(0)

    def test_half_spent_hook_fires_once_per_day(self, sim):
        fired = []
        budget = TransitionBudget(sim, limit_per_day=4,
                                  on_half_spent=lambda d: fired.append(d))
        budget.spend(0)
        assert fired == []
        budget.spend(0)  # 2/4 = half
        assert fired == [0]
        budget.spend(0)
        assert fired == [0]  # not re-fired

    def test_half_hook_with_odd_limit(self, sim):
        fired = []
        budget = TransitionBudget(sim, limit_per_day=3,
                                  on_half_spent=lambda d: fired.append(d))
        budget.spend(0)
        budget.spend(0)  # 2*2 >= 3 -> fires
        assert fired == [0]

    def test_invalid_limit_rejected(self, sim):
        with pytest.raises(ValueError):
            TransitionBudget(sim, limit_per_day=0)


class TestSpeedControllerSpinDown:
    def test_idle_timer_spins_down_after_threshold(self, sim, array):
        ctl = SpeedController(sim, array, SpeedControlConfig(idle_threshold_s=10.0))
        ctl.on_disk_idle(0)
        sim.run()
        assert array.drive(0).speed is DiskSpeed.LOW
        assert array.drive(0).stats.speed_transitions_total == 1

    def test_activity_cancels_spin_down(self, sim, array):
        ctl = SpeedController(sim, array, SpeedControlConfig(idle_threshold_s=10.0))
        ctl.on_disk_idle(0)
        sim.schedule(5.0, lambda: ctl.on_disk_busy(0))
        sim.run()
        assert array.drive(0).speed is DiskSpeed.HIGH

    def test_shrunk_threshold_rearm_spins_down_once_at_the_earlier_time(self, sim,
                                                                        array):
        ctl = SpeedController(sim, array, SpeedControlConfig(idle_threshold_s=10.0))
        drive = array.drive(0)
        ctl.on_disk_idle(0)  # due at 10

        def shrink():
            ctl.set_idle_threshold(0, 2.0)
            ctl.on_disk_idle(0)  # re-armed: due at 3

        sim.schedule(1.0, shrink)
        sim.run(until=2.999)
        assert drive.speed is DiskSpeed.HIGH and drive.is_idle
        sim.run(until=3.0)
        assert drive.effective_target_speed is DiskSpeed.LOW
        sim.run()
        assert drive.speed is DiskSpeed.LOW
        assert drive.stats.speed_transitions_total == 1
        # shrink, the timer at 3, the transition end: the entry left at
        # 10 is no event
        assert sim.events_executed == 3

    def test_ineligible_disk_never_spins_down(self, sim, array):
        ctl = SpeedController(sim, array, SpeedControlConfig(idle_threshold_s=10.0),
                              eligible=lambda d: d != 0)
        ctl.on_disk_idle(0)
        ctl.on_disk_idle(1)
        sim.run()
        assert array.drive(0).speed is DiskSpeed.HIGH
        assert array.drive(1).speed is DiskSpeed.LOW

    def test_low_disk_idle_does_not_rearm(self, sim, array):
        array.drive(0).force_speed(DiskSpeed.LOW)
        ctl = SpeedController(sim, array, SpeedControlConfig(idle_threshold_s=10.0))
        ctl.on_disk_idle(0)
        sim.run()
        assert array.drive(0).stats.speed_transitions_total == 0

    def test_budget_blocks_spin_down(self, sim, array):
        budget = TransitionBudget(sim, limit_per_day=1)
        budget.spend(0)  # exhaust
        ctl = SpeedController(sim, array, SpeedControlConfig(idle_threshold_s=10.0),
                              budget=budget)
        ctl.on_disk_idle(0)
        sim.run()
        assert array.drive(0).speed is DiskSpeed.HIGH

    def test_shutdown_cancels_all_timers(self, sim, array):
        ctl = SpeedController(sim, array, SpeedControlConfig(idle_threshold_s=10.0))
        for d in range(3):
            ctl.on_disk_idle(d)
        ctl.shutdown()
        sim.run()
        assert all(d.speed is DiskSpeed.HIGH for d in array.drives)


class TestSpeedControllerSpinUp:
    def _low_disk_with_backlog(self, sim, array, n_jobs):
        drive = array.drive(0)
        drive.force_speed(DiskSpeed.LOW)
        for _ in range(n_jobs):
            drive.submit(Job.internal_transfer(1.0))
        return drive

    def test_queue_threshold_triggers_spin_up(self, sim, array):
        cfg = SpeedControlConfig(idle_threshold_s=10.0, spin_up_queue_len=3,
                                 spin_up_wait_s=1e9)
        ctl = SpeedController(sim, array, cfg)
        drive = self._low_disk_with_backlog(sim, array, 3)  # 1 serving + 2 queued
        ctl.check_spin_up(0)  # backlog = 2 + 1 incoming = 3 >= 3
        assert drive.effective_target_speed is DiskSpeed.HIGH

    def test_below_threshold_stays_low(self, sim, array):
        cfg = SpeedControlConfig(idle_threshold_s=10.0, spin_up_queue_len=5,
                                 spin_up_wait_s=1e9)
        ctl = SpeedController(sim, array, cfg)
        drive = self._low_disk_with_backlog(sim, array, 2)
        ctl.check_spin_up(0)
        assert drive.effective_target_speed is DiskSpeed.LOW

    def test_wait_bound_triggers_spin_up(self, sim, array):
        cfg = SpeedControlConfig(idle_threshold_s=10.0, spin_up_queue_len=100,
                                 spin_up_wait_s=0.1)
        ctl = SpeedController(sim, array, cfg)
        drive = array.drive(0)
        drive.force_speed(DiskSpeed.LOW)
        for _ in range(4):
            drive.submit(Job.internal_transfer(8.0))  # ~0.44s each at low
        ctl.check_spin_up(0)
        assert drive.effective_target_speed is DiskSpeed.HIGH

    def test_spin_up_on_any_arrival_when_threshold_one(self, sim, array):
        cfg = SpeedControlConfig(idle_threshold_s=10.0, spin_up_queue_len=1,
                                 spin_up_wait_s=1e9)
        ctl = SpeedController(sim, array, cfg)
        drive = array.drive(0)
        drive.force_speed(DiskSpeed.LOW)
        ctl.check_spin_up(0)  # empty disk, 1 incoming
        assert drive.effective_target_speed is DiskSpeed.HIGH

    def test_budget_blocks_spin_up(self, sim, array):
        budget = TransitionBudget(sim, limit_per_day=1)
        budget.spend(0)
        cfg = SpeedControlConfig(idle_threshold_s=10.0, spin_up_queue_len=1)
        ctl = SpeedController(sim, array, cfg, budget=budget)
        drive = array.drive(0)
        drive.force_speed(DiskSpeed.LOW)
        ctl.check_spin_up(0)
        assert drive.effective_target_speed is DiskSpeed.LOW

    def test_high_disk_needs_no_spin_up(self, sim, array):
        ctl = SpeedController(sim, array, SpeedControlConfig())
        ctl.check_spin_up(0)
        assert array.drive(0).stats.speed_transitions_total == 0

    def test_adaptive_threshold_setter(self, sim, array):
        ctl = SpeedController(sim, array, SpeedControlConfig(idle_threshold_s=10.0))
        ctl.set_idle_threshold(1, 40.0)
        assert ctl.idle_threshold(1) == 40.0
        assert ctl.idle_threshold(0) == 10.0
        with pytest.raises(ValueError):
            ctl.set_idle_threshold(1, 0.0)


class TestPolicyBase:
    def test_unbound_policy_raises(self):
        class Dummy(Policy):
            name = "dummy"

            def initial_layout(self):
                self._require_bound()

            def route(self, request):
                self._require_bound()

        with pytest.raises(PolicyError):
            Dummy().initial_layout()

    def test_describe_default(self):
        class Dummy(Policy):
            name = "dummy"

            def initial_layout(self):
                pass

            def route(self, request):
                pass

        assert Dummy().describe() == {"name": "dummy"}

    def test_speed_config_validation(self):
        with pytest.raises(ValueError):
            SpeedControlConfig(idle_threshold_s=0.0)
        with pytest.raises(ValueError):
            SpeedControlConfig(spin_up_queue_len=0)
