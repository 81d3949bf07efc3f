"""FaultInjector: lifecycle, degraded serving, retries, determinism."""

import numpy as np
import pytest

from repro.disk.array import DiskArray
from repro.faults import DiskLifecycle, FaultConfig, FaultInjector
from repro.policies.base import Policy
from repro.press.hazard import annual_failure_rate_to_rate
from repro.sim.engine import Simulator
from repro.workload.request import Request


class StubPolicy(Policy):
    """Minimal policy: direct placement routing plus scriptable alternates."""

    name = "stub"

    def __init__(self, alternates=None):
        super().__init__()
        self.alternates = dict(alternates or {})
        self.failed_disks = []
        self.restored_disks = []

    def initial_layout(self):
        pass

    def route(self, request):
        self.submit(request)

    def alternate_targets(self, file_id):
        return self.alternates.get(file_id, ())

    def on_disk_failed(self, disk_id):
        self.failed_disks.append(disk_id)

    def on_disk_restored(self, disk_id):
        self.restored_disks.append(disk_id)


@pytest.fixture
def harness(sim, params, press, tiny_fileset):
    """Array + stub policy + installed injector, with result collectors."""
    def build(config=None, alternates=None, n_disks=3):
        array = DiskArray(sim, params, n_disks, tiny_fileset)
        array.place_all(np.array([0, 1, 2, 0, 1, 2, 0, 1]) % n_disks)
        policy = StubPolicy(alternates)
        policy.bind(sim, array, tiny_fileset)
        ok, dead = [], []
        injector = FaultInjector(sim, array, policy, press,
                                 config or FaultConfig(),
                                 on_success=ok.append,
                                 on_permanent_failure=dead.append)
        injector.install()
        policy.completion_callback = injector.on_user_job_complete
        return sim, array, policy, injector, ok, dead
    return build


def make_request(t, file_id, fileset):
    return Request(arrival_time=t, file_id=file_id,
                   size_mb=fileset.size_of(file_id))


class TestLifecycle:
    def test_fail_then_rebuild_returns_to_up(self, harness, tiny_fileset):
        cfg = FaultConfig(repair_delay_s=10.0)
        sim, array, policy, injector, ok, dead = harness(cfg)
        sim.schedule(5.0, lambda: injector._fail(0))
        sim.run(until=5.1)
        assert injector.lifecycle_of(0) is DiskLifecycle.FAILED
        assert not array.disk_is_up(0)
        assert policy.failed_disks == [0]
        sim.run(until=16.0)
        # repair delay elapsed: replacement installed, rebuild job running
        assert array.disk_is_up(0)
        injector.shutdown()
        sim.run_until_drained()
        assert injector.lifecycle_of(0) is DiskLifecycle.UP
        assert policy.restored_disks == [0]
        assert injector.tracker.rebuilds_completed == 1
        assert injector.tracker.rebuild_energy_j > 0.0

    def test_downtime_measures_failure_to_rebuild_complete(self, harness):
        cfg = FaultConfig(repair_delay_s=10.0)
        sim, array, policy, injector, ok, dead = harness(cfg)
        sim.schedule(5.0, lambda: injector._fail(1))
        sim.run(until=40.0)
        injector.shutdown()
        sim.run_until_drained()
        summary = injector.tracker.summarize(n_disks=3, duration_s=sim.now)
        assert summary.disk_failures == 1
        # downtime covers at least the repair delay, and availability
        # accounts it against 3 disk-lifetimes
        assert summary.downtime_s >= 10.0
        assert 0.0 < summary.availability < 1.0
        expected = 1.0 - summary.downtime_s / (3 * sim.now)
        assert summary.availability == pytest.approx(expected)

    def test_data_loss_census_counts_unprotected_files(self, harness, tiny_fileset):
        sim, array, policy, injector, ok, dead = harness()
        n_on_disk0 = len(array.files_on(0))
        sim.schedule(1.0, lambda: injector._fail(0))
        sim.run(until=2.0)
        assert injector.tracker.data_loss_events == 1
        assert injector.tracker.files_lost == n_on_disk0
        injector.shutdown()

    def test_no_data_loss_when_alternates_cover(self, harness, tiny_fileset):
        # every file on disk 0 has a live copy on disk 1
        alternates = {fid: (1,) for fid in range(len(tiny_fileset))}
        sim, array, policy, injector, ok, dead = harness(alternates=alternates)
        sim.schedule(1.0, lambda: injector._fail(0))
        sim.run(until=2.0)
        assert injector.tracker.data_loss_events == 0
        assert injector.tracker.files_lost == 0
        injector.shutdown()


class TestDegradedServing:
    def test_up_primary_serves_directly(self, harness, tiny_fileset):
        sim, array, policy, injector, ok, dead = harness()
        sim.schedule(0.0, lambda: policy.route(make_request(0.0, 0, tiny_fileset)))
        injector.shutdown()
        sim.run_until_drained()
        assert len(ok) == 1 and not dead
        assert injector.tracker.requests_redirected == 0

    def test_redirect_to_alternate_when_primary_down(self, harness, tiny_fileset):
        # file 0 lives on disk 0, replica on disk 1
        sim, array, policy, injector, ok, dead = harness(alternates={0: (1,)})
        sim.schedule(1.0, lambda: injector._fail(0))
        sim.schedule(2.0, lambda: policy.route(make_request(2.0, 0, tiny_fileset)))
        sim.schedule(3.0, injector.shutdown)
        sim.run_until_drained()
        assert len(ok) == 1 and not dead
        assert ok[0].request.served_by == 1
        assert injector.tracker.requests_redirected == 1

    def test_dead_alternate_falls_back_to_primary(self, harness, tiny_fileset):
        sim, array, policy, injector, ok, dead = harness()
        # explicit submit to a failed non-primary target (a cache disk)
        sim.schedule(1.0, lambda: injector._fail(1))
        sim.schedule(2.0, lambda: injector.submit_user_request(
            make_request(2.0, 0, tiny_fileset), 1))
        sim.schedule(3.0, injector.shutdown)
        sim.run_until_drained()
        assert len(ok) == 1 and not dead
        assert ok[0].request.served_by == 0  # primary of file 0
        assert injector.tracker.requests_redirected == 1

    def test_no_live_copy_enters_retry_then_fails(self, harness, tiny_fileset):
        cfg = FaultConfig(repair_delay_s=1e6, max_retries=2,
                          retry_backoff_s=0.5, retry_timeout_s=100.0)
        sim, array, policy, injector, ok, dead = harness(cfg)
        sim.schedule(1.0, lambda: injector._fail(0))
        sim.schedule(2.0, lambda: policy.route(make_request(2.0, 0, tiny_fileset)))
        sim.run(until=50.0)
        injector.shutdown()
        sim.run_until_drained()
        assert not ok
        assert len(dead) == 1
        assert injector.tracker.requests_retried == 2
        assert injector.tracker.requests_failed == 1
        assert dead[0].request.retries == 2

    def test_retry_succeeds_after_rebuild(self, harness, tiny_fileset):
        # disk comes back inside the retry window: the request survives
        cfg = FaultConfig(repair_delay_s=2.0, max_retries=5,
                          retry_backoff_s=5.0, retry_timeout_s=1000.0)
        sim, array, policy, injector, ok, dead = harness(cfg)
        sim.schedule(1.0, lambda: injector._fail(0))
        sim.schedule(2.0, lambda: policy.route(make_request(2.0, 0, tiny_fileset)))
        sim.run(until=60.0)
        injector.shutdown()
        sim.run_until_drained()
        assert len(ok) == 1 and not dead
        assert ok[0].request.retries >= 1
        assert injector.tracker.requests_failed == 0

    def test_zero_retries_fails_immediately(self, harness, tiny_fileset):
        cfg = FaultConfig(repair_delay_s=1e6, max_retries=0)
        sim, array, policy, injector, ok, dead = harness(cfg)
        sim.schedule(1.0, lambda: injector._fail(0))
        sim.schedule(2.0, lambda: policy.route(make_request(2.0, 0, tiny_fileset)))
        sim.run(until=5.0)
        injector.shutdown()
        sim.run_until_drained()
        assert len(dead) == 1
        assert injector.tracker.requests_retried == 0


class PerDriveRefreshInjector(FaultInjector):
    """The hazard refresh scoring each up drive on its own, through
    ``PRESSModel.factors_of`` — the reference the batched refresh must
    reproduce."""

    def _refresh(self, _tick):
        now = self._sim.now
        period = self.config.hazard_refresh_s
        for d, drive in enumerate(self._array.drives):
            if (self._lifecycle[d] is not DiskLifecycle.UP
                    or self._pending_failure[d] is not None):
                continue
            drive.finalize()
            factors = self._press.factors_of(drive, now)
            rate = annual_failure_rate_to_rate(factors.afr_percent) * self._rate_scale
            if rate <= 0.0:
                continue
            gap = self._budget[d] - self._hazard[d]
            if rate * period >= gap:
                self._hazard[d] = self._budget[d]
                self._pending_failure[d] = self._sim.schedule(
                    gap / rate, (lambda disk=d: self._fail(disk)),
                    priority=self._PRIO_FAIL)
            else:
                self._hazard[d] += rate * period


class TestHazardRefresh:
    @staticmethod
    def _run(injector_cls, params, press, fileset):
        """Drive one injector through failures and rebuilds; return the
        hazard and pending-failure state seen after every refresh."""
        sim = Simulator()
        array = DiskArray(sim, params, 4, fileset)
        array.place_all(np.arange(8) % 4)
        policy = StubPolicy()
        policy.bind(sim, array, fileset)
        cfg = FaultConfig(seed=3, accel=2e7, hazard_refresh_s=5.0,
                          repair_delay_s=20.0)
        seen = []

        class Recording(injector_cls):
            def _refresh(self, tick):
                super()._refresh(tick)
                seen.append((sim.now, list(self._hazard),
                             [None if h is None else (h.time, h.seq)
                              for h in self._pending_failure]))

        injector = Recording(sim, array, policy, press, cfg,
                             on_success=lambda job: None,
                             on_permanent_failure=lambda job: None)
        injector.install()
        policy.completion_callback = injector.on_user_job_complete
        # skewed load: disks see different utilization, so different AFRs
        for i in range(400):
            fid = (0, 0, 1, 3, 4, 0, 5, 7)[i % 8]
            t = 0.5 * i
            sim.schedule(t, lambda t=t, fid=fid: policy.route(
                Request(arrival_time=t, file_id=fid,
                        size_mb=fileset.size_of(fid))))
        sim.run(until=400.0)
        injector.shutdown()
        return seen, injector.tracker.failure_schedule

    def test_batched_refresh_matches_per_drive_scoring(self, params, press,
                                                       tiny_fileset):
        batched, batched_failures = self._run(FaultInjector, params, press,
                                              tiny_fileset)
        reference, reference_failures = self._run(
            PerDriveRefreshInjector, params, press, tiny_fileset)
        assert batched == reference
        assert batched_failures == reference_failures
        # the scenario exercises the interesting paths: failures fire,
        # and refreshes run with some disks down or already doomed
        assert len(batched_failures) >= 2
        assert any(None in pending and any(h is not None for h in pending)
                   for _, _, pending in batched)
