"""Degraded-mode serving through the real policies.

The injector unit tests use a scripted stub; these check that the
shipping policies' redundancy actually carries traffic around failures —
READ-replicate's replicas, MAID's cache copies — and that every policy
survives an accelerated-failure run deterministically.
"""

import pytest

from repro.experiments.runner import make_policy, run_simulation
from repro.faults import FaultConfig, FaultInjector
from repro.policies.maid import MAIDPolicy
from repro.workload.request import Request
from repro.workload.stream import materialize
from repro.workload.synthetic import SyntheticWorkloadConfig

#: Aggressive acceleration sized so a ~100 s, 4-disk run sees failures.
FAULTS = FaultConfig(seed=3, accel=2e6, hazard_refresh_s=5.0,
                     repair_delay_s=20.0)


@pytest.fixture(scope="module")
def workload():
    cfg = SyntheticWorkloadConfig(n_files=120, n_requests=5_000, seed=42,
                                  mean_interarrival_s=0.02)
    return materialize(cfg)


class TestCrossPolicySurvival:
    @pytest.mark.parametrize("name", ["read", "maid", "pdc", "static-high",
                                      "striped-static", "read-replicate"])
    def test_policy_survives_accelerated_failures(self, workload, name):
        fileset, trace = workload
        result = run_simulation(make_policy(name), fileset, trace,
                                n_disks=4, faults=FAULTS)
        f = result.faults
        assert f is not None
        assert f.disk_failures >= 1  # the acceleration actually bites
        assert 0.0 < f.availability < 1.0
        assert f.requests_failed + f.requests_retried > 0
        assert result.total_energy_j > 0.0

    def test_same_seed_same_outcome(self, workload):
        fileset, trace = workload
        runs = [run_simulation(make_policy("pdc"), fileset, trace,
                               n_disks=4, faults=FAULTS) for _ in range(2)]
        assert runs[0].faults == runs[1].faults
        assert runs[0].total_energy_j == runs[1].total_energy_j
        assert runs[0].mean_response_s == runs[1].mean_response_s

    def test_different_seed_different_schedule(self, workload):
        fileset, trace = workload
        a = run_simulation(make_policy("pdc"), fileset, trace, n_disks=4,
                           faults=FAULTS)
        b = run_simulation(make_policy("pdc"), fileset, trace, n_disks=4,
                           faults=FaultConfig(seed=99, accel=2e6,
                                              hazard_refresh_s=5.0,
                                              repair_delay_s=20.0))
        assert a.faults.failure_schedule != b.faults.failure_schedule


class TestReplicaRedirect:
    def test_replicas_carry_reads_around_failures(self, workload):
        # a short epoch lets replicas materialize inside the run
        fileset, trace = workload
        policy = make_policy("read-replicate", epoch_s=10.0)
        result = run_simulation(policy, fileset, trace, n_disks=4,
                                faults=FAULTS)
        assert policy.replicas_created > 0
        assert result.faults.requests_redirected > 0


class TestMaidCacheServing:
    def test_cached_file_served_after_primary_fails(self, sim, params, press,
                                                    tiny_fileset):
        from repro.disk.array import DiskArray

        array = DiskArray(sim, params, 3, tiny_fileset)
        policy = MAIDPolicy()
        policy.bind(sim, array, tiny_fileset)
        policy.initial_layout()  # disk 0 = cache, 1..2 = passive
        ok, dead = [], []
        injector = FaultInjector(sim, array, policy, press, FaultConfig(),
                                 on_success=ok.append,
                                 on_permanent_failure=dead.append)
        injector.install()
        policy.completion_callback = injector.on_user_job_complete

        fid = int(array.files_on(1)[0])

        def first_request():
            policy.route(Request(arrival_time=sim.now, file_id=fid,
                                 size_mb=tiny_fileset.size_of(fid)))

        def after_warmup():
            # miss served from the primary; the cache copy completed
            assert policy._cache.get(fid) == 0
            injector._fail(1)
            policy.route(Request(arrival_time=sim.now, file_id=fid,
                                 size_mb=tiny_fileset.size_of(fid)))

        sim.schedule(0.0, first_request)
        sim.schedule(30.0, after_warmup)
        sim.schedule(31.0, injector.shutdown)
        sim.run_until_drained()
        # both requests served, the second one from the cache disk while
        # the primary was down
        assert len(ok) == 2 and not dead
        assert ok[1].request.served_by == 0
