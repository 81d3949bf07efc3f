"""MAID: cache behaviour, routing, eviction, passive spin-down."""

import numpy as np
import pytest

from repro.disk.array import DiskArray
from repro.disk.parameters import DiskSpeed
from repro.experiments.runner import run_simulation
from repro.policies.base import SpeedControlConfig
from repro.policies.maid import MAIDConfig, MAIDPolicy
from repro.sim.engine import Simulator
from repro.workload.files import FileSet
from repro.workload.request import Request


def bound_maid(sim, params, fileset, n_disks=4, **cfg):
    policy = MAIDPolicy(MAIDConfig(**cfg)) if cfg else MAIDPolicy()
    array = DiskArray(sim, params, n_disks, fileset)
    policy.bind(sim, array, fileset)
    policy.initial_layout()
    return policy, array


class TestLayout:
    def test_default_cache_disk_count(self, sim, params, tiny_fileset):
        policy, _ = bound_maid(sim, params, tiny_fileset, n_disks=8)
        assert policy._n_cache == 2
        assert policy.is_cache_disk(0) and policy.is_cache_disk(1)
        assert not policy.is_cache_disk(2)

    def test_explicit_cache_disks(self, sim, params, tiny_fileset):
        policy, _ = bound_maid(sim, params, tiny_fileset, n_cache_disks=3)
        assert policy._n_cache == 3

    def test_primaries_only_on_passive_disks(self, sim, params, tiny_fileset):
        _, array = bound_maid(sim, params, tiny_fileset, n_disks=4)
        assert set(np.unique(array.placement)) <= {1, 2, 3}

    def test_all_cache_rejected(self, sim, params, tiny_fileset):
        with pytest.raises(ValueError):
            bound_maid(sim, params, tiny_fileset, n_disks=2, n_cache_disks=2)


class TestCaching:
    def test_miss_then_hit(self, sim, params, tiny_fileset):
        policy, array = bound_maid(sim, params, tiny_fileset)
        r1 = Request(0.0, 0, tiny_fileset.size_of(0))
        policy.route(r1)
        sim.run()
        assert policy.cache_misses == 1
        assert r1.served_by != 0 or not policy.is_cache_disk(r1.served_by)
        # second access: now cached
        r2 = Request(sim.now, 0, tiny_fileset.size_of(0))
        policy.route(r2)
        sim.run()
        assert policy.cache_hits == 1
        assert policy.is_cache_disk(r2.served_by)

    def test_copy_costs_cache_write(self, sim, params, tiny_fileset):
        policy, array = bound_maid(sim, params, tiny_fileset)
        policy.route(Request(0.0, 0, tiny_fileset.size_of(0)))
        sim.run()
        cache_writes = sum(array.drive(d).internal_jobs_served
                           for d in range(policy._n_cache))
        assert cache_writes == 1

    def test_concurrent_misses_trigger_single_copy(self, sim, params, tiny_fileset):
        policy, array = bound_maid(sim, params, tiny_fileset)
        for _ in range(3):
            policy.route(Request(0.0, 0, tiny_fileset.size_of(0)))
        sim.run()
        assert policy.cache_misses == 3
        cache_writes = sum(array.drive(d).internal_jobs_served
                           for d in range(policy._n_cache))
        assert cache_writes == 1

    def test_second_access_hits_the_cache(self, sim, params, tiny_fileset):
        policy, _ = bound_maid(sim, params, tiny_fileset)
        policy.route(Request(0.0, 0, tiny_fileset.size_of(0)))
        sim.run()
        policy.route(Request(sim.now, 0, tiny_fileset.size_of(0)))
        sim.run()
        assert (policy.cache_hits, policy.cache_misses) == (1, 1)


class TestEviction:
    def test_lru_eviction_under_tiny_cache(self, sim, params):
        # files of 1 MB; cache budget = 25% of 8 MB = 2 MB per the single
        # cache disk -> at most 2 files cached at once
        fileset = FileSet(np.full(8, 1.0))
        policy, array = bound_maid(sim, params, fileset, n_disks=4,
                                   n_cache_disks=1, cache_fraction_of_data=0.25)
        t = 0.0
        for fid in range(4):
            policy.route(Request(t, fid, 1.0))
            sim.run()
            t = sim.now
        assert len(policy._cache) <= 2
        # oldest entries were evicted
        assert 0 not in policy._cache

    def test_file_larger_than_budget_never_cached(self, sim, params):
        fileset = FileSet(np.array([100.0, 1.0]))
        policy, _ = bound_maid(sim, params, fileset, n_disks=4,
                               n_cache_disks=1, cache_fraction_of_data=0.05)
        policy.route(Request(0.0, 0, 100.0))
        sim.run()
        assert 0 not in policy._cache
        assert not policy._copying


class TestSpeedControl:
    def test_cache_disks_never_spin_down(self, sim, params, tiny_fileset):
        policy, array = bound_maid(sim, params, tiny_fileset)
        policy.on_disk_idle(0)  # cache disk
        policy.on_disk_idle(3)  # passive disk
        sim.run()
        assert array.drive(0).speed is DiskSpeed.HIGH
        assert array.drive(3).speed is DiskSpeed.LOW

    def test_miss_spins_passive_disk_up(self, sim, params, tiny_fileset):
        policy, array = bound_maid(sim, params, tiny_fileset)
        # park the passive disk holding file 0
        primary = array.location_of(0)
        array.drive(primary).force_speed(DiskSpeed.LOW)
        policy.route(Request(0.0, 0, tiny_fileset.size_of(0)))
        assert array.drive(primary).effective_target_speed is DiskSpeed.HIGH


class TestEndToEnd:
    def test_full_run_metrics(self, small_workload, params):
        fileset, trace = small_workload
        policy = MAIDPolicy()
        result = run_simulation(policy, fileset, trace.head(2000), n_disks=5,
                                disk_params=params)
        assert result.policy_name == "maid"
        assert policy.cache_hits > 0 and policy.cache_misses > 0
        assert result.internal_jobs > 0  # copies happened
        assert result.policy_detail["n_cache_disks"] == policy._n_cache
