"""ResettableTimer and PeriodicTask behaviour."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask, ResettableTimer


class TestResettableTimer:
    def test_fires_after_interval(self):
        sim = Simulator()
        fired = []
        timer = ResettableTimer(sim, 10.0, lambda: fired.append(sim.now))
        timer.arm()
        sim.run()
        assert fired == [10.0]

    def test_not_armed_never_fires(self):
        sim = Simulator()
        fired = []
        ResettableTimer(sim, 10.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == []

    def test_reset_restarts_countdown(self):
        sim = Simulator()
        fired = []
        timer = ResettableTimer(sim, 10.0, lambda: fired.append(sim.now))
        timer.arm()
        sim.schedule(7.0, timer.reset)
        sim.run()
        assert fired == [17.0]

    def test_cancel_stops_countdown(self):
        sim = Simulator()
        fired = []
        timer = ResettableTimer(sim, 10.0, lambda: fired.append(sim.now))
        timer.arm()
        sim.schedule(5.0, timer.cancel)
        sim.run()
        assert fired == []

    def test_cancel_unarmed_is_noop(self):
        sim = Simulator()
        ResettableTimer(sim, 10.0, lambda: None).cancel()

    def test_armed_property(self):
        sim = Simulator()
        timer = ResettableTimer(sim, 10.0, lambda: None)
        assert not timer.armed
        timer.arm()
        assert timer.armed
        timer.cancel()
        assert not timer.armed

    def test_interval_change_applies_to_next_arm(self):
        sim = Simulator()
        fired = []
        timer = ResettableTimer(sim, 10.0, lambda: fired.append(sim.now))
        timer.interval = 3.0  # READ's adaptive-H path rewrites this
        timer.arm()
        sim.run()
        assert fired == [3.0]

    def test_rearm_after_fire(self):
        sim = Simulator()
        fired = []

        def action():
            fired.append(sim.now)
            if len(fired) < 2:
                timer.arm()

        timer = ResettableTimer(sim, 4.0, action)
        timer.arm()
        sim.run()
        assert fired == [4.0, 8.0]

    def test_armed_after_fire_cancel_and_rearm(self):
        sim = Simulator()
        seen = []
        timer = ResettableTimer(sim, 2.0, lambda: seen.append(timer.armed))
        timer.arm()
        sim.run()
        assert seen == [False]  # not armed while its own action runs
        assert not timer.armed
        timer.arm()
        assert timer.armed
        timer.cancel()
        assert not timer.armed
        timer.arm()
        assert timer.armed
        sim.run()
        assert seen == [False, False]

    def test_rearm_to_an_earlier_deadline_fires_once_there(self):
        sim = Simulator()
        fired = []
        timer = ResettableTimer(sim, 10.0, lambda: fired.append(sim.now))
        timer.arm()  # due at 10

        def shrink():
            timer.interval = 2.0
            timer.arm()  # due at 3

        sim.schedule(1.0, shrink)
        sim.run()
        assert fired == [3.0]
        assert sim.events_executed == 2
        assert sim.pending_count == 0

    def test_rearm_later_keeps_one_pending_event(self):
        sim = Simulator()
        fired = []
        timer = ResettableTimer(sim, 4.0, lambda: fired.append(sim.now))
        for t in (0.0, 1.0, 2.5):
            sim.schedule(t, timer.arm)
        sim.run(until=3.0)
        assert sim.pending_count == 1
        sim.run()
        assert fired == [6.5]
        assert sim.events_executed == 4

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ResettableTimer(sim, 0.0, lambda: None)


class TestPeriodicTask:
    def test_ticks_at_period(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 5.0, lambda i: ticks.append((i, sim.now)))
        sim.run(until=17.0)
        task.stop()
        assert ticks == [(0, 5.0), (1, 10.0), (2, 15.0)]

    def test_start_offset(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 5.0, lambda i: ticks.append(sim.now), start_offset=1.0)
        sim.run(until=12.0)
        task.stop()
        assert ticks == [1.0, 6.0, 11.0]

    def test_stop_from_inside_action(self):
        sim = Simulator()
        ticks = []

        def action(i: int) -> None:
            ticks.append(i)
            if i == 1:
                task.stop()

        task = PeriodicTask(sim, 2.0, action)
        sim.run()
        assert ticks == [0, 1]

    def test_stop_outside_prevents_future_ticks(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 2.0, lambda i: ticks.append(i))
        sim.schedule(5.0, task.stop)
        sim.run()
        assert ticks == [0, 1]

    def test_period_change_repaces_future_ticks(self):
        sim = Simulator()
        ticks = []

        def action(i: int) -> None:
            ticks.append(sim.now)
            task.period = 10.0

        task = PeriodicTask(sim, 2.0, action)
        sim.run(until=25.0)
        task.stop()
        assert ticks == [2.0, 12.0, 22.0]

    def test_negative_offset_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda i: None, start_offset=-1.0)

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda i: None)
