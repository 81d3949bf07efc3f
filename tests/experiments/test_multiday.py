"""Multi-day horizons: budget resets, per-day transitions, diurnal workloads.

The transition budget is keyed to simulated calendar days; these tests
run the machinery across day boundaries (the regime the paper's
S = 40/day cap is defined in) and count each drive's transitions per
day from the ``disk.transition.begin`` trace records.
"""

from collections import Counter

import numpy as np
import pytest

from repro.disk.array import DiskArray
from repro.disk.parameters import DiskSpeed
from repro.experiments.runner import make_policy, run_simulation
from repro.obs import events as ev
from repro.policies.base import TransitionBudget
from repro.sim.engine import Simulator
from repro.util.units import SECONDS_PER_DAY
from repro.workload.arrival import diurnal_poisson_arrivals
from repro.workload.files import FileSet
from repro.workload.trace import Trace


class _TransitionDays:
    """A trace sink that counts transition starts per (disk, calendar day)."""

    def __init__(self) -> None:
        self.counts: Counter[tuple[int, int]] = Counter()

    def emit(self, etype, t, **data):
        if etype == ev.DISK_TRANSITION_BEGIN:
            self.counts[data["disk"], int(t // SECONDS_PER_DAY)] += 1

    def request_submit(self, *_args):
        pass

    def request_dispatch(self, *_args):
        pass

    def request_complete(self, *_args):
        pass


class TestBudgetAcrossDays:
    def test_budget_replenishes_each_day(self, sim):
        budget = TransitionBudget(sim, limit_per_day=2)
        for day in range(3):
            sim.schedule(day * SECONDS_PER_DAY + 1.0 - sim.now, lambda: None)
            sim.run(until=day * SECONDS_PER_DAY + 1.0)
            assert budget.spend(0)
            assert budget.spend(0)
            assert not budget.spend(0)

    def test_half_hook_refires_daily(self, sim):
        fired = []
        budget = TransitionBudget(sim, limit_per_day=2,
                                  on_half_spent=lambda d: fired.append(sim.now))
        budget.spend(0)
        sim.schedule(SECONDS_PER_DAY + 1.0, lambda: None)
        sim.run()
        budget.spend(0)
        assert len(fired) == 2


class TestPerDayDriveStats:
    def test_transition_days_bucketed_by_drive(self, sim, params, tiny_fileset):
        recorder = sim.trace = _TransitionDays()
        array = DiskArray(sim, params, 1, tiny_fileset)
        drive = array.drive(0)
        # a down/up pair on day 0, one more transition on day 1
        drive.request_speed(DiskSpeed.LOW)
        sim.run(until=100.0)
        drive.request_speed(DiskSpeed.HIGH)
        sim.run(until=SECONDS_PER_DAY + 100.0)
        drive.request_speed(DiskSpeed.LOW)
        sim.run(until=SECONDS_PER_DAY + 200.0)
        assert recorder.counts == {(0, 0): 2, (0, 1): 1}
        assert drive.transitions_total == 3


class TestDiurnalTwoDayRun:
    def test_two_day_diurnal_workload_end_to_end(self, params):
        """48 simulated hours with a day/night rate swing through READ."""
        rng = np.random.default_rng(0)
        n_req = 20_000
        times = diurnal_poisson_arrivals(n_req, 2 * SECONDS_PER_DAY / n_req,
                                         period_s=SECONDS_PER_DAY,
                                         amplitude=0.7, seed=1)
        fids = rng.integers(0, 50, n_req)
        fileset = FileSet(np.full(50, 0.5))
        trace = Trace(times, fids)

        result = run_simulation(make_policy("read", epoch_s=3600.0),
                                fileset, trace, n_disks=4, disk_params=params)
        assert result.duration_s > 1.5 * SECONDS_PER_DAY
        assert result.n_requests == n_req
        # over a multi-day horizon the run-average transitions/day can no
        # longer exceed the calendar-day cap
        for f in result.per_disk:
            assert f.transitions_per_day <= 40.0 + 1e-9

    def test_read_cap_is_per_calendar_day(self, params):
        """A drive may spend its budget on day 0 and again on day 1."""
        rng = np.random.default_rng(2)
        fileset = FileSet(np.full(8, 0.5))
        # sparse pings over two days force repeated idle->low->high churn
        times = np.sort(np.concatenate([
            rng.uniform(0, SECONDS_PER_DAY, 60),
            rng.uniform(SECONDS_PER_DAY, 2 * SECONDS_PER_DAY, 60),
        ]))
        fids = rng.integers(0, 8, 120)
        trace = Trace(times, fids)
        from repro.policies.base import SpeedControlConfig
        policy = make_policy("read", max_transitions_per_day=4,
                             speed=SpeedControlConfig(idle_threshold_s=30.0,
                                                      spin_up_queue_len=1,
                                                      spin_up_wait_s=0.5))
        result = run_simulation(policy, fileset, trace, n_disks=2,
                                disk_params=params)
        assert result.total_transitions > 0
        # verify per-calendar-day caps through the transition records
        # (re-run with direct access to the array)
        sim = Simulator()
        recorder = sim.trace = _TransitionDays()
        array = DiskArray(sim, params, 2, fileset)
        policy2 = make_policy("read", max_transitions_per_day=4,
                              speed=SpeedControlConfig(idle_threshold_s=30.0,
                                                       spin_up_queue_len=1,
                                                       spin_up_wait_s=0.5))
        policy2.bind(sim, array, fileset)
        policy2.initial_layout()
        for t, fid in zip(times, fids):
            from repro.workload.request import Request
            sim.schedule(float(t), (lambda r=Request(float(t), int(fid), 0.5):
                                    policy2.route(r)))
        sim.run(until=2 * SECONDS_PER_DAY)
        policy2.shutdown()
        assert recorder.counts
        # both days saw transitions, and no disk exceeded the cap on any day
        assert {day for _disk, day in recorder.counts} == {0, 1}
        for (disk, day), count in recorder.counts.items():
            assert count <= 4, f"disk {disk} day {day}: {count} > cap"
        assert (sum(recorder.counts.values())
                == sum(drive.transitions_total for drive in array.drives))
