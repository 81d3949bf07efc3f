"""TwoSpeedDrive state machine: service, transitions, accounting."""

import pytest

from repro.disk.drive import DrivePhase, Job, TwoSpeedDrive
from repro.disk.parameters import DiskSpeed
from repro.sim.engine import Simulator


@pytest.fixture
def drive(sim, params):
    return TwoSpeedDrive(sim, params, disk_id=0, initial_speed=DiskSpeed.HIGH)


def service_time(params, speed, size_mb):
    return params.mode(speed).service_time_s(size_mb)


class TestService:
    def test_single_job_timing(self, sim, params, drive):
        done = []
        drive.submit(Job.internal_transfer(10.0, on_complete=lambda j: done.append(j)))
        sim.run()
        assert len(done) == 1
        assert done[0].completion_time == pytest.approx(
            service_time(params, DiskSpeed.HIGH, 10.0))
        assert drive.is_idle

    def test_fcfs_order(self, sim, params, drive):
        completed = []
        for tag in range(3):
            drive.submit(Job.internal_transfer(1.0, on_complete=(
                lambda j, t=tag: completed.append(t))))
        sim.run()
        assert completed == [0, 1, 2]

    def test_fcfs_is_submission_order(self, sim, params, drive):
        """Queued jobs run in submission order whatever their sizes."""
        done = []
        for size, tag in [(10.0, "big"), (0.1, "small"), (5.0, "mid")]:
            drive.submit(Job.internal_transfer(size, on_complete=(
                lambda j, t=tag: done.append(t))))
        sim.run()
        assert done == ["big", "small", "mid"]

    def test_queueing_delay(self, sim, params, drive):
        jobs = [Job.internal_transfer(10.0) for _ in range(2)]
        for j in jobs:
            drive.submit(j)
        sim.run()
        st = service_time(params, DiskSpeed.HIGH, 10.0)
        assert jobs[0].completion_time == pytest.approx(st)
        assert jobs[1].service_start == pytest.approx(st)
        assert jobs[1].completion_time == pytest.approx(2 * st)

    def test_low_speed_service_slower(self, sim, params):
        slow = TwoSpeedDrive(sim, params, 0, initial_speed=DiskSpeed.LOW)
        job = Job.internal_transfer(10.0)
        slow.submit(job)
        sim.run()
        assert job.completion_time == pytest.approx(
            service_time(params, DiskSpeed.LOW, 10.0))
        assert job.completion_time > service_time(params, DiskSpeed.HIGH, 10.0)

    def test_request_fields_stamped(self, sim, params, drive):
        from repro.workload.request import Request
        req = Request(arrival_time=0.0, file_id=3, size_mb=2.0)
        drive.submit(Job.for_request(req))
        sim.run()
        assert req.served_by == 0
        assert req.completed
        assert req.response_time == pytest.approx(
            service_time(params, DiskSpeed.HIGH, 2.0))

    def test_stats_count_user_vs_internal(self, sim, params, drive):
        from repro.workload.request import Request
        drive.submit(Job.for_request(Request(0.0, 0, 1.0)))
        drive.submit(Job.internal_transfer(1.0))
        sim.run()
        assert drive.stats.requests_served == 1
        assert drive.stats.internal_jobs_served == 1


class TestTransitions:
    def test_idle_transition_timing_and_count(self, sim, params, drive):
        assert drive.request_speed(DiskSpeed.LOW) is True
        assert drive.phase is DrivePhase.TRANSITIONING
        sim.run()
        assert drive.speed is DiskSpeed.LOW
        assert drive.phase is DrivePhase.IDLE
        assert sim.now == pytest.approx(params.transition_time_s)
        assert drive.stats.speed_transitions_total == 1

    def test_same_speed_request_is_noop(self, sim, drive):
        assert drive.request_speed(DiskSpeed.HIGH) is False
        assert drive.stats.speed_transitions_total == 0

    def test_no_service_during_transition(self, sim, params, drive):
        drive.request_speed(DiskSpeed.LOW)
        job = Job.internal_transfer(1.0)
        drive.submit(job)
        sim.run()
        # service could only start after the transition completed
        assert job.service_start == pytest.approx(params.transition_time_s)
        assert job.completion_time == pytest.approx(
            params.transition_time_s + service_time(params, DiskSpeed.LOW, 1.0))

    def test_transition_deferred_while_busy(self, sim, params, drive):
        job = Job.internal_transfer(10.0)
        drive.submit(job)
        assert drive.request_speed(DiskSpeed.LOW) is True
        assert drive.phase is DrivePhase.BUSY  # transition waits for drain
        sim.run()
        st = service_time(params, DiskSpeed.HIGH, 10.0)
        assert job.completion_time == pytest.approx(st)
        assert drive.speed is DiskSpeed.LOW
        assert sim.now == pytest.approx(st + params.transition_time_s)

    def test_queued_jobs_serve_at_new_speed_after_deferred_transition(self, sim, params, drive):
        first = Job.internal_transfer(10.0)
        second = Job.internal_transfer(10.0)
        drive.submit(first)
        drive.request_speed(DiskSpeed.LOW)
        drive.submit(second)
        sim.run()
        st_high = service_time(params, DiskSpeed.HIGH, 10.0)
        st_low = service_time(params, DiskSpeed.LOW, 10.0)
        assert second.completion_time == pytest.approx(
            st_high + params.transition_time_s + st_low)

    def test_duplicate_request_while_transitioning_ignored(self, sim, drive):
        drive.request_speed(DiskSpeed.LOW)
        assert drive.request_speed(DiskSpeed.LOW) is False
        sim.run()
        assert drive.stats.speed_transitions_total == 1

    def test_reversal_mid_transition_queues_second_transition(self, sim, params, drive):
        drive.request_speed(DiskSpeed.LOW)
        assert drive.request_speed(DiskSpeed.HIGH) is True
        sim.run()
        assert drive.speed is DiskSpeed.HIGH
        assert drive.stats.speed_transitions_total == 2
        assert sim.now == pytest.approx(2 * params.transition_time_s)

    def test_pending_cancelled_by_opposite_request(self, sim, params, drive):
        job = Job.internal_transfer(10.0)
        drive.submit(job)
        drive.request_speed(DiskSpeed.LOW)   # deferred
        drive.request_speed(DiskSpeed.HIGH)  # cancels the pending LOW
        sim.run()
        assert drive.speed is DiskSpeed.HIGH
        assert drive.stats.speed_transitions_total == 0

    def test_effective_target_speed(self, sim, drive):
        assert drive.effective_target_speed is DiskSpeed.HIGH
        drive.request_speed(DiskSpeed.LOW)
        assert drive.effective_target_speed is DiskSpeed.LOW
        sim.run()
        assert drive.effective_target_speed is DiskSpeed.LOW


class TestForceSpeed:
    def test_force_speed_free_and_instant(self, sim, params, drive):
        drive.force_speed(DiskSpeed.LOW)
        assert drive.speed is DiskSpeed.LOW
        assert drive.stats.speed_transitions_total == 0
        assert drive.energy.total_energy_j == 0.0
        assert sim.now == 0.0

    def test_force_speed_at_t0_resets_temperature(self, sim, params, drive):
        drive.force_speed(DiskSpeed.LOW)
        assert drive.thermal.temperature_c == params.low.steady_temp_c

    def test_force_speed_rejected_when_busy(self, sim, drive):
        drive.submit(Job.internal_transfer(1.0))
        with pytest.raises(RuntimeError):
            drive.force_speed(DiskSpeed.LOW)


class TestHooks:
    def test_idle_and_busy_hooks_fire(self, sim, params):
        events = []
        drive = TwoSpeedDrive(sim, params, 3,
                              on_idle=lambda d: events.append(("idle", d, sim.now)),
                              on_busy=lambda d: events.append(("busy", d, sim.now)))
        drive.submit(Job.internal_transfer(10.0))
        sim.run()
        st = service_time(params, DiskSpeed.HIGH, 10.0)
        assert events == [("busy", 3, 0.0), ("idle", 3, pytest.approx(st))]

    def test_idle_hook_fires_after_transition_with_empty_queue(self, sim, params):
        events = []
        drive = TwoSpeedDrive(sim, params, 0,
                              on_idle=lambda d: events.append(sim.now))
        drive.request_speed(DiskSpeed.LOW)
        sim.run()
        assert events == [pytest.approx(params.transition_time_s)]


class TestAccounting:
    def test_energy_matches_hand_computation(self, sim, params, drive):
        """idle 10s -> serve 10 MB -> idle to t=30: exact energy."""
        st = service_time(params, DiskSpeed.HIGH, 10.0)
        sim.schedule(10.0, lambda: drive.submit(Job.internal_transfer(10.0)))
        sim.run(until=30.0)
        drive.finalize()
        expected = (params.high.idle_w * (30.0 - st)
                    + params.high.active_w * st)
        assert drive.energy.total_energy_j == pytest.approx(expected)

    def test_transition_energy_accounted(self, sim, params, drive):
        from repro.disk.energy import DiskPowerState
        drive.request_speed(DiskSpeed.LOW)
        sim.run()
        drive.finalize()
        assert drive.energy.energy_j(DiskPowerState.TRANSITION) == pytest.approx(
            params.transition_energy_j)

    def test_total_time_equals_wall_clock(self, sim, params, drive):
        drive.submit(Job.internal_transfer(5.0))
        drive.request_speed(DiskSpeed.LOW)
        sim.run(until=100.0)
        drive.finalize()
        assert drive.energy.total_time_s == pytest.approx(100.0)
        assert drive.power_on_time_s() == pytest.approx(100.0)

    def test_utilization_matches_active_fraction(self, sim, params, drive):
        st = service_time(params, DiskSpeed.HIGH, 10.0)
        drive.submit(Job.internal_transfer(10.0))
        sim.run(until=100.0)
        drive.finalize()
        assert drive.utilization() == pytest.approx(st / 100.0)

    def test_finalize_idempotent(self, sim, params, drive):
        drive.submit(Job.internal_transfer(1.0))
        sim.run(until=50.0)
        drive.finalize()
        first = drive.energy.total_energy_j
        drive.finalize()
        assert drive.energy.total_energy_j == first

    def test_estimated_wait_counts_backlog(self, sim, params, drive):
        drive.submit(Job.internal_transfer(10.0))  # in service, not counted
        drive.submit(Job.internal_transfer(10.0))  # queued
        assert drive.estimated_wait_s() == pytest.approx(
            service_time(params, DiskSpeed.HIGH, 10.0))
