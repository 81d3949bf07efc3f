"""Drive/array fault mechanics: fail, fast-fail serving, replacement."""

import numpy as np
import pytest

from repro.disk.array import DiskArray
from repro.disk.drive import DrivePhase, Job, TwoSpeedDrive
from repro.disk.parameters import DiskSpeed
from repro.workload.request import Request


def user_job(done, size_mb=8.0, t=0.0):
    req = Request(arrival_time=t, file_id=0, size_mb=size_mb)
    return Job.for_request(req, on_complete=done.append)


class TestDriveFail:
    def test_fail_drops_in_flight_and_queued_jobs(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        done = []
        for _ in range(3):
            drive.submit(user_job(done))
        sim.schedule(0.001, lambda: drive.fail())
        sim.run_until_drained()
        assert len(done) == 3
        assert all(job.failed for job in done)
        assert drive.is_failed
        assert drive.phase is DrivePhase.FAILED

    def test_fail_returns_dropped_jobs_served_first(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        done = []
        jobs = [user_job(done) for _ in range(2)]
        for job in jobs:
            drive.submit(job)
        dropped = drive.fail()
        assert dropped == jobs

    def test_fail_is_idempotent(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        done = []
        drive.submit(user_job(done))
        assert len(drive.fail()) == 1
        assert drive.fail() == []  # second call is a no-op

    def test_submit_to_failed_drive_fails_fast(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        drive.fail()
        done = []
        job = user_job(done)
        drive.submit(job)
        assert job.failed
        assert done == [job]

    def test_failed_drive_refuses_speed_requests(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        drive.fail()
        assert drive.request_speed(DiskSpeed.LOW) is False

    def test_no_energy_accrues_while_failed(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        snapshots = []
        sim.schedule(1.0, drive.fail)
        sim.schedule(1.0, lambda: snapshots.append(drive.energy.total_energy_j),
                     priority=1)
        sim.schedule(101.0, drive.finalize)
        sim.schedule(101.0, lambda: snapshots.append(drive.energy.total_energy_j),
                     priority=1)
        sim.run_until_drained()
        at_failure, much_later = snapshots
        assert at_failure > 0.0  # idle energy up to the failure
        assert much_later == at_failure  # a dead spindle draws nothing


class TestReplacement:
    def test_replace_requires_failed(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        with pytest.raises(RuntimeError, match="requires a failed drive"):
            drive.replace_with_new_spindle()

    def test_replacement_boots_idle_at_requested_speed(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        drive.fail()
        transitions_before = drive.stats.speed_transitions_total
        drive.replace_with_new_spindle(speed=DiskSpeed.LOW)
        assert not drive.is_failed
        assert drive.phase is DrivePhase.IDLE
        assert drive.speed is DiskSpeed.LOW
        # booting outside the array charges no transition
        assert drive.stats.speed_transitions_total == transitions_before

    def test_replacement_serves_again(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0)
        drive.fail()
        drive.replace_with_new_spindle()
        done = []
        drive.submit(user_job(done))
        sim.run_until_drained()
        assert len(done) == 1
        assert not done[0].failed


    @pytest.mark.parametrize("size_mb", [0.5, 64.0])
    def test_failed_mid_service_completes_once_at_the_new_time(self, sim, params,
                                                               size_mb):
        """The completion event ``fail()`` cancelled is revived by the next
        dispatch, before (0.5 MB) or after (64 MB) its stale time, and
        fires once, at the new time."""
        drive = TwoSpeedDrive(sim, params, 0)
        done = []
        drive.submit(user_job(done))  # 8 MB, in service from t = 0
        high = params.mode(DiskSpeed.HIGH)
        stale_s = high.service_time_s(8.0)
        replaced_s = stale_s / 2

        def fail_and_replace():
            drive.fail()
            drive.replace_with_new_spindle()
            drive.submit(user_job(done, size_mb))

        sim.schedule(replaced_s, fail_and_replace)
        sim.run_until_drained()
        due_s = replaced_s + high.service_time_s(size_mb)
        assert (due_s < stale_s) == (size_mb < 8.0)
        first, second = done
        assert first.failed and not second.failed
        assert second.completion_time == pytest.approx(due_s, rel=1e-15)
        assert drive.stats.requests_served == 1
        assert sim.events_executed == 2  # fail_and_replace, one completion
        assert sim.pending_count == 0

    def test_transition_cancelled_by_fail_ends_once_at_the_new_time(self, sim,
                                                                    params):
        drive = TwoSpeedDrive(sim, params, 0)
        idle_at = []
        drive.on_idle = lambda _d: idle_at.append(sim.now)
        drive.request_speed(DiskSpeed.LOW)  # transition due at T
        transition_s = params.transition_time_s

        def fail_and_replace():
            drive.fail()
            drive.replace_with_new_spindle(speed=DiskSpeed.HIGH)
            drive.request_speed(DiskSpeed.LOW)  # due at 1.5 T

        sim.schedule(transition_s / 2, fail_and_replace)
        sim.run_until_drained()
        assert idle_at == [pytest.approx(1.5 * transition_s, rel=1e-15)]
        assert drive.speed is DiskSpeed.LOW
        assert drive.stats.speed_transitions_total == 2
        assert sim.events_executed == 2  # fail_and_replace, one transition end
        assert sim.pending_count == 0


class TestArrayFaultSurface:
    @pytest.fixture
    def array(self, sim, params, tiny_fileset):
        arr = DiskArray(sim, params, 3, tiny_fileset)
        arr.place_all(np.array([0, 1, 2, 0, 1, 2, 0, 1]))
        return arr

    def test_disk_is_up_tracks_failures(self, array):
        assert all(array.disk_is_up(d) for d in range(3))
        array.fail_disk(1)
        assert array.disk_is_up(0)
        assert not array.disk_is_up(1)
        array.replace_disk(1)
        assert array.disk_is_up(1)

    def test_placement_survives_failure(self, array):
        before = list(array.files_on(2))
        array.fail_disk(2)
        assert list(array.files_on(2)) == before
        assert array.location_of(2) == 2

    def test_submit_request_to_failed_primary_fails(self, sim, array):
        array.fail_disk(0)
        done = []
        req = Request(arrival_time=0.0, file_id=0, size_mb=1.0)
        job = array.submit_request(req, on_complete=done.append)
        assert job.failed
        assert done == [job]
