"""Fault path under a redundancy-group layout: reconstruction fan-in,
rebuild fan-out, group health, the loss census, and domain outages."""

import numpy as np
import pytest

from repro.disk.array import DiskArray
from repro.faults import DiskLifecycle, FaultConfig, FaultInjector
from repro.policies.base import Policy
from repro.redundancy import GroupHealth, RedundancyGroups, SCHEME_PRESETS
from repro.redundancy.scheme import mirror_scheme
from repro.workload.request import Request


class StubPolicy(Policy):
    name = "stub"

    def initial_layout(self):
        pass

    def route(self, request):
        self.submit(request)

    def alternate_targets(self, file_id):
        return ()


@pytest.fixture
def harness(sim, params, press, tiny_fileset):
    """Array + injector with a redundancy layout attached."""
    def build(scheme, n_disks, config=None):
        array = DiskArray(sim, params, n_disks, tiny_fileset)
        array.place_all(np.arange(len(tiny_fileset)) % n_disks)
        policy = StubPolicy()
        policy.bind(sim, array, tiny_fileset)
        ok, dead = [], []
        injector = FaultInjector(
            sim, array, policy, press, config or FaultConfig(),
            on_success=ok.append, on_permanent_failure=dead.append,
            redundancy=RedundancyGroups(scheme, n_disks))
        injector.install()
        policy.completion_callback = injector.on_user_job_complete
        return sim, array, policy, injector, ok, dead
    return build


def make_request(t, file_id, fileset):
    return Request(arrival_time=t, file_id=file_id,
                   size_mb=fileset.size_of(file_id))


class TestReconstructFanIn:
    def test_parity_read_fans_k_legs_across_survivors(self, harness, tiny_fileset):
        sim, array, policy, injector, ok, dead = harness(
            SCHEME_PRESETS["block4-2"], 8)
        injector._fail(0)
        req = make_request(sim.now, 0, tiny_fileset)  # file 0 lives on disk 0
        policy.route(req)
        injector.shutdown()
        sim.run_until_drained()
        assert len(ok) == 1 and not dead
        assert req.completion_time > req.arrival_time
        assert injector.rtracker.reconstruct_reads == 1
        assert injector.rtracker.reconstruct_legs == 6
        assert injector.tracker.requests_redirected == 1
        # each leg is a shard-sized internal read on one survivor
        served = [d.internal_jobs_served for d in array.drives]
        assert served == [0, 1, 1, 1, 1, 1, 1, 0]

    def test_mirror_read_redirects_to_live_copy(self, harness, tiny_fileset):
        sim, array, policy, injector, ok, dead = harness(mirror_scheme(2), 2)
        injector._fail(0)
        req = make_request(sim.now, 0, tiny_fileset)
        policy.route(req)
        injector.shutdown()
        sim.run_until_drained()
        assert len(ok) == 1 and not dead
        assert injector.rtracker.reconstruct_reads == 1
        assert injector.rtracker.reconstruct_legs == 1
        assert req.served_by == 1  # the mirror copy served it

    def test_pierced_group_fails_requests_fast(self, harness, tiny_fileset):
        cfg = FaultConfig(max_retries=0, repair_delay_s=1e6)
        sim, array, policy, injector, ok, dead = harness(
            SCHEME_PRESETS["block4-2"], 8, cfg)
        for d in (0, 1, 2):  # three down: fewer than k=6 survivors
            injector._fail(d)
        req = make_request(sim.now, 0, tiny_fileset)
        policy.route(req)
        injector.shutdown()
        sim.run_until_drained()
        assert not ok and len(dead) == 1
        assert injector.rtracker.reconstruct_reads == 0
        assert injector.tracker.requests_failed == 1

    def test_up_target_serves_normally(self, harness, tiny_fileset):
        sim, array, policy, injector, ok, dead = harness(
            SCHEME_PRESETS["block4-2"], 8)
        policy.route(make_request(sim.now, 3, tiny_fileset))
        injector.shutdown()
        sim.run_until_drained()
        assert len(ok) == 1
        assert injector.rtracker.reconstruct_reads == 0
        assert sum(d.internal_jobs_served for d in array.drives) == 0


class TestRebuildFanOut:
    def test_parity_rebuild_reads_k_sources(self, harness):
        cfg = FaultConfig(repair_delay_s=5.0)
        sim, array, policy, injector, ok, dead = harness(
            SCHEME_PRESETS["block4-2"], 8, cfg)
        injector._fail(0)
        sim.run(until=6.0)  # repair delay elapsed, rebuild streaming
        assert injector.rtracker.rebuild_read_legs == 6
        injector.shutdown()
        sim.run_until_drained()
        assert injector.lifecycle_of(0) is DiskLifecycle.UP
        assert injector.rtracker.mean_rebuild_s() > 5.0  # includes the delay

    def test_mirror_rebuild_streams_from_the_copy(self, harness):
        cfg = FaultConfig(repair_delay_s=5.0)
        sim, array, policy, injector, ok, dead = harness(mirror_scheme(2), 2, cfg)
        injector._fail(0)
        sim.run(until=6.0)  # repair delay elapsed, copy stream running
        injector.shutdown()
        sim.run_until_drained()
        assert injector.rtracker.rebuild_read_legs == 1

    def test_lost_group_rebuild_is_a_cold_restore(self, harness):
        cfg = FaultConfig(repair_delay_s=5.0)
        sim, array, policy, injector, ok, dead = harness(mirror_scheme(2), 2, cfg)
        injector._fail(0)
        injector._fail(1)  # both copies down: the group is lost
        sim.run(until=6.0)  # repair delay elapsed for both
        injector.shutdown()
        sim.run_until_drained()
        # the first restoration has no surviving source (cold restore
        # from backup, 0 legs); the second reads its single leg from the
        # first replacement — queued behind that disk's own restore
        # stream, so the copy chain serializes correctly
        assert injector.rtracker.rebuild_read_legs == 1
        assert injector.tracker.rebuilds_completed == 2
        assert injector.rtracker.groups_lost_events == 1


class TestGroupHealthAndCensus:
    def test_health_ladder_is_recorded(self, harness):
        cfg = FaultConfig(repair_delay_s=2.0)
        sim, array, policy, injector, ok, dead = harness(
            SCHEME_PRESETS["block4-2"], 8, cfg)
        injector._fail(0)
        assert injector._group_health[0] is GroupHealth.DEGRADED
        injector._fail(1)
        assert injector._group_health[0] is GroupHealth.CRITICAL
        sim.run(until=3.0)  # repair delay elapsed, restore streams running
        injector.shutdown()
        sim.run_until_drained()
        assert injector._group_health[0] is GroupHealth.HEALTHY
        transitions = [(old, new) for _, _, old, new
                       in injector.rtracker.state_changes]
        assert transitions == [("healthy", "degraded"),
                               ("degraded", "critical"),
                               ("critical", "degraded"),
                               ("degraded", "healthy")]

    def test_no_data_loss_while_group_survives(self, harness):
        sim, array, policy, injector, ok, dead = harness(
            SCHEME_PRESETS["block4-2"], 8, FaultConfig(repair_delay_s=1e6))
        injector._fail(0)
        injector._fail(1)
        assert injector.tracker.data_loss_events == 0
        assert injector.tracker.files_lost == 0

    def test_census_charges_loss_when_group_pierced(self, harness, tiny_fileset):
        sim, array, policy, injector, ok, dead = harness(
            SCHEME_PRESETS["block4-2"], 8, FaultConfig(repair_delay_s=1e6))
        for d in (0, 1, 2):
            injector._fail(d)
        # the third failure had < k survivors: its files are lost
        assert injector.tracker.data_loss_events == 1
        assert injector.tracker.files_lost == len(array.files_on(2))
        assert injector.rtracker.groups_lost_events == 1


class TestDomainOutages:
    def test_outage_fails_the_whole_domain_at_once(self, harness):
        # mirror2 on 4 disks: domains {0, 2} and {1, 3}; a hot outage
        # rate guarantees a hit well inside the observation window
        cfg = FaultConfig(seed=11, accel=1.0, repair_delay_s=1e9,
                          domain_outage_per_year=2e8)
        sim, array, policy, injector, ok, dead = harness(mirror_scheme(2), 4, cfg)
        sim.run(until=100.0)
        injector.shutdown()
        assert injector.rtracker.domain_outages >= 1
        by_time = {}
        for disk, t in injector.tracker.failure_schedule:
            by_time.setdefault(t, []).append(disk)
        groups = injector._groups
        correlated = [sorted(disks) for disks in by_time.values()
                      if len(disks) > 1]
        assert correlated, "expected at least one multi-disk instant"
        for disks in correlated:
            domains = {groups.domain_of(d) for d in disks}
            assert len(domains) == 1  # all victims share one domain

    def test_outages_are_deterministic(self, sim, params, press, tiny_fileset):
        def run_once():
            from repro.sim.engine import Simulator

            local = Simulator()
            array = DiskArray(local, params, 4, tiny_fileset)
            array.place_all(np.arange(len(tiny_fileset)) % 4)
            policy = StubPolicy()
            policy.bind(local, array, tiny_fileset)
            injector = FaultInjector(
                local, array, policy, press,
                FaultConfig(seed=11, accel=1.0, repair_delay_s=1e9,
                            domain_outage_per_year=2e8),
                on_success=lambda job: None,
                on_permanent_failure=lambda job: None,
                redundancy=RedundancyGroups(mirror_scheme(2), 4))
            injector.install()
            policy.completion_callback = injector.on_user_job_complete
            local.run(until=100.0)
            injector.shutdown()
            return (injector.tracker.failure_schedule,
                    tuple(injector.rtracker.state_changes))
        assert run_once() == run_once()

    def test_budgets_unperturbed_by_redundancy(self, params, press, tiny_fileset):
        """Attaching a layout must not move the per-disk failure draws:
        the domain streams come from their own label family."""
        from repro.sim.engine import Simulator

        def budgets(redundancy, config):
            local = Simulator()
            array = DiskArray(local, params, 4, tiny_fileset)
            array.place_all(np.arange(len(tiny_fileset)) % 4)
            policy = StubPolicy()
            policy.bind(local, array, tiny_fileset)
            injector = FaultInjector(
                local, array, policy, press, config,
                on_success=lambda job: None,
                on_permanent_failure=lambda job: None,
                redundancy=redundancy)
            return list(injector._budget)

        plain = budgets(None, FaultConfig(seed=5))
        with_groups = budgets(RedundancyGroups(mirror_scheme(2), 4),
                              FaultConfig(seed=5, domain_outage_per_year=1e8))
        assert plain == with_groups
