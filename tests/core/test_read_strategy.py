"""READ policy end to end: zones, budget, adaptive H, FRD epochs."""

import numpy as np
import pytest

from repro.core.read_strategy import READConfig, READPolicy
from repro.disk.array import DiskArray
from repro.disk.parameters import DiskSpeed
from repro.experiments.runner import run_simulation
from repro.policies.base import SpeedControlConfig
from repro.workload.files import FileSet
from repro.workload.request import Request


def bound_read(sim, params, fileset, n_disks=4, **cfg):
    policy = READPolicy(READConfig(**cfg)) if cfg else READPolicy()
    array = DiskArray(sim, params, n_disks, fileset)
    policy.bind(sim, array, fileset)
    policy.initial_layout()
    return policy, array


@pytest.fixture
def uniform_files():
    return FileSet(np.full(24, 1.0))


class TestInitialRound:
    def test_zones_configured(self, sim, params, uniform_files):
        policy, array = bound_read(sim, params, uniform_files)
        layout = policy.layout
        assert layout is not None
        for d in range(array.n_disks):
            expected = DiskSpeed.HIGH if layout.is_hot(d) else DiskSpeed.LOW
            assert array.drive(d).speed is expected

    def test_initial_config_costs_nothing(self, sim, params, uniform_files):
        _, array = bound_read(sim, params, uniform_files)
        assert all(d.transitions_total == 0 for d in array.drives)
        assert all(sum(d.energies_j) == 0.0 for d in array.drives)

    def test_every_file_placed(self, sim, params, uniform_files):
        _, array = bound_read(sim, params, uniform_files)
        assert np.all(array.placement >= 0)

    def test_smallest_files_go_hot(self, sim, params):
        sizes = np.concatenate([np.full(12, 0.1), np.full(12, 5.0)])
        fileset = FileSet(sizes)
        policy, array = bound_read(sim, params, fileset)
        small_disks = set(array.placement[:12].tolist())
        assert all(policy.layout.is_hot(d) for d in small_disks)

    def test_describe_reports_zones(self, sim, params, uniform_files):
        policy, _ = bound_read(sim, params, uniform_files)
        info = policy.describe()
        assert info["name"] == "read"
        assert info["n_hot"] == policy.layout.n_hot
        assert info["transition_cap_per_day"] == 40


class TestRoutingAndSpeed:
    def test_requests_served_from_placed_disk(self, sim, params, uniform_files):
        policy, array = bound_read(sim, params, uniform_files)
        req = Request(0.0, 0, 1.0)
        policy.route(req)
        sim.run(until=5.0)
        assert req.served_by == array.location_of(0)

    def test_cold_disk_serves_at_low_without_spin_up(self, sim, params, uniform_files):
        policy, array = bound_read(sim, params, uniform_files)
        cold_file = int(np.flatnonzero(
            ~policy.layout.is_hot(array.placement) if False else
            np.array([not policy.layout.is_hot(int(d)) for d in array.placement]))[0])
        req = Request(0.0, cold_file, 1.0)
        policy.route(req)
        sim.run(until=5.0)
        disk = array.drive(req.served_by)
        assert disk.speed is DiskSpeed.LOW
        assert disk.transitions_total == 0

    def test_sustained_backlog_spins_cold_disk_up(self, sim, params, uniform_files):
        policy, array = bound_read(
            sim, params, uniform_files,
            speed=SpeedControlConfig(idle_threshold_s=60.0, spin_up_queue_len=3,
                                     spin_up_wait_s=1e9))
        cold_disk = int(policy.layout.cold_ids[0])
        cold_files = array.files_on(cold_disk)
        for i in range(4):
            policy.route(Request(0.0, int(cold_files[i % len(cold_files)]), 1.0))
        assert array.drive(cold_disk).effective_target_speed is DiskSpeed.HIGH


class TestTransitionBudget:
    def test_transitions_capped_at_s(self, sim, params, uniform_files):
        cfg = dict(max_transitions_per_day=2,
                   speed=SpeedControlConfig(idle_threshold_s=1.0,
                                            spin_up_queue_len=1,
                                            spin_up_wait_s=0.01))
        policy, array = bound_read(sim, params, uniform_files, **cfg)
        hot_disk = int(policy.layout.hot_ids[0])
        hot_files = array.files_on(hot_disk)
        # ping the disk periodically with long gaps: each gap spins down
        # (budget permitting), each arrival spins up
        t = 0.0
        for i in range(12):
            policy.route(Request(t, int(hot_files[0]), 1.0))
            t += 10.0
            sim.run(until=t)
        policy.shutdown()
        assert array.drive(hot_disk).transitions_total <= 2

    def test_adaptive_threshold_doubles_h(self, sim, params, uniform_files):
        cfg = dict(max_transitions_per_day=4, adaptive_threshold=True,
                   speed=SpeedControlConfig(idle_threshold_s=1.0,
                                            spin_up_queue_len=1,
                                            spin_up_wait_s=0.01))
        policy, array = bound_read(sim, params, uniform_files, **cfg)
        hot_disk = int(policy.layout.hot_ids[0])
        hot_files = array.files_on(hot_disk)
        t = 0.0
        for i in range(8):
            policy.route(Request(t, int(hot_files[0]), 1.0))
            t += 30.0
            sim.run(until=t)
        policy.shutdown()
        assert policy._controller.idle_threshold(hot_disk) > 1.0

    def test_fixed_threshold_when_adaptation_off(self, sim, params, uniform_files):
        cfg = dict(max_transitions_per_day=4, adaptive_threshold=False,
                   speed=SpeedControlConfig(idle_threshold_s=1.0,
                                            spin_up_queue_len=1,
                                            spin_up_wait_s=0.01))
        policy, array = bound_read(sim, params, uniform_files, **cfg)
        hot_disk = int(policy.layout.hot_ids[0])
        hot_files = array.files_on(hot_disk)
        t = 0.0
        for i in range(8):
            policy.route(Request(t, int(hot_files[0]), 1.0))
            t += 30.0
            sim.run(until=t)
        policy.shutdown()
        assert policy._controller.idle_threshold(hot_disk) == 1.0


class TestFRDEpochs:
    def test_newly_hot_file_migrates_to_hot_zone(self, sim, params, uniform_files):
        policy, array = bound_read(sim, params, uniform_files, epoch_s=50.0)
        cold_file = None
        for fid in range(len(uniform_files)):
            if not policy.layout.is_hot(array.location_of(fid)):
                cold_file = fid
                break
        assert cold_file is not None
        for i in range(200):
            policy.route(Request(i * 0.2, cold_file, 1.0))
        sim.run(until=120.0)
        policy.shutdown()
        assert policy.layout.is_hot(array.location_of(cold_file))
        assert policy.migrations_performed >= 1

    def test_theta_reestimated(self, sim, params, uniform_files):
        policy, array = bound_read(sim, params, uniform_files, epoch_s=50.0)
        initial_theta = policy.theta
        for i in range(300):
            policy.route(Request(i * 0.1, i % 3, 1.0))  # heavy 3-file skew
        sim.run(until=60.0)
        policy.shutdown()
        assert policy.theta != initial_theta

    def test_migration_cap_zero_disables_frd_moves(self, sim, params, uniform_files):
        policy, array = bound_read(sim, params, uniform_files, epoch_s=50.0,
                                   max_migrations_per_epoch=0)
        for i in range(200):
            policy.route(Request(i * 0.2, 23, 1.0))
        sim.run(until=120.0)
        policy.shutdown()
        assert policy.migrations_performed == 0


class TestEndToEnd:
    def test_full_run_few_transitions(self, small_workload, params):
        fileset, trace = small_workload
        policy = READPolicy(READConfig(epoch_s=20.0))
        result = run_simulation(policy, fileset, trace.head(3000), n_disks=6,
                                disk_params=params)
        assert result.policy_name == "read"
        # READ's defining property: transitions stay within the cap
        per_disk_cap = policy.config.max_transitions_per_day
        for drive_factors in result.per_disk:
            assert drive_factors.transitions_per_day * result.duration_s / 86400.0 \
                <= per_disk_cap + 1e-9
