"""DiskArray: placement ledger, routing, migration cost, capacity."""

import dataclasses

import numpy as np
import pytest

from repro.disk.array import DiskArray
from repro.disk.parameters import DiskSpeed
from repro.experiments.runner import _reduce_ledgers
from repro.press.model import PRESSModel
from repro.sim.engine import Simulator
from repro.workload.files import FileSet
from repro.workload.request import Request


@pytest.fixture
def array(sim, params, tiny_fileset):
    return DiskArray(sim, params, 4, tiny_fileset)


class TestConstruction:
    def test_geometry(self, array):
        assert len(array) == 4
        assert array.n_disks == 4
        assert array.drive(2).disk_id == 2

    def test_all_unplaced_initially(self, array, tiny_fileset):
        assert np.all(array.placement == -1)
        assert array.location_of(0) == -1

    def test_oversized_fileset_rejected(self, sim, params):
        huge = FileSet(np.array([params.capacity_mb * 3]))
        with pytest.raises(ValueError):
            DiskArray(sim, params, 2, huge)

    def test_initial_speed_applies_to_all(self, sim, params, tiny_fileset):
        arr = DiskArray(sim, params, 2, tiny_fileset, initial_speed=DiskSpeed.LOW)
        assert all(d.speed is DiskSpeed.LOW for d in arr.drives)


class TestPlacement:
    def test_place_file_updates_ledgers(self, array, tiny_fileset):
        array.place_file(2, 1)
        assert array.location_of(2) == 1
        assert array.used_mb[1] == pytest.approx(4.0)
        assert array.free_mb(1) == pytest.approx(array.params.capacity_mb - 4.0)

    def test_double_place_rejected(self, array):
        array.place_file(0, 0)
        with pytest.raises(ValueError, match="already placed"):
            array.place_file(0, 1)

    def test_place_all_roundtrip(self, array, tiny_fileset):
        placement = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        array.place_all(placement)
        np.testing.assert_array_equal(array.placement, placement)
        np.testing.assert_array_equal(array.files_on(1), [1, 5])
        assert array.used_mb[3] == pytest.approx(16.0)

    def test_place_all_requires_unplaced(self, array):
        array.place_file(0, 0)
        with pytest.raises(ValueError):
            array.place_all(np.zeros(8, dtype=np.int64))

    def test_place_all_rejects_out_of_range(self, array):
        with pytest.raises(ValueError):
            array.place_all(np.full(8, 99))

    def test_placement_view_readonly(self, array):
        with pytest.raises(ValueError):
            array.placement[0] = 2


class TestRouting:
    def test_routes_to_placed_disk(self, sim, array):
        array.place_all(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        done = []
        req = Request(0.0, 5, array.fileset.size_of(5))
        array.submit_request(req, on_complete=lambda j: done.append(j))
        sim.run()
        assert req.served_by == 1
        assert len(done) == 1

    def test_explicit_disk_override(self, sim, array):
        array.place_all(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        req = Request(0.0, 5, array.fileset.size_of(5))
        array.submit_request(req, disk_id=3)
        sim.run()
        assert req.served_by == 3

    def test_unplaced_file_rejected(self, array):
        with pytest.raises(ValueError, match="not placed"):
            array.submit_request(Request(0.0, 0, 1.0))


class TestMigration:
    def test_migration_flips_placement_immediately(self, sim, array):
        array.place_all(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        assert array.migrate_file(0, 3) is True
        assert array.location_of(0) == 3
        # disk 0 held files {0, 4} = 2 MB; moving file 0 (1 MB) leaves 1 MB
        assert array.used_mb[0] == pytest.approx(1.0)
        # disk 3 held files {3, 7} = 16 MB; gains 1 MB
        assert array.used_mb[3] == pytest.approx(17.0)

    def test_migration_charges_read_then_write(self, sim, array):
        array.place_all(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        done = []
        array.migrate_file(0, 3, on_done=lambda f, s, d: done.append((f, s, d)))
        sim.run()
        assert done == [(0, 0, 3)]
        assert array.drive(0).internal_jobs_served == 1  # read leg
        assert array.drive(3).internal_jobs_served == 1  # write leg
        # write starts only after read completes
        read_t = array.params.high.service_time_s(1.0)
        assert sim.now == pytest.approx(2 * read_t)

    def test_migrate_to_same_disk_is_noop(self, sim, array):
        array.place_all(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        assert array.migrate_file(0, 0) is False
        sim.run()
        assert array.drive(0).internal_jobs_served == 0

    def test_migrate_over_capacity_refused(self, sim, params, tiny_fileset):
        small = dataclasses.replace(params, capacity_mb=16.0)
        arr = DiskArray(Simulator(), small, 4, tiny_fileset)
        arr.place_all(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        # disk 3 holds 16 MB already (ids 3 and 7): no room for 8 more
        assert arr.migrate_file(3, 3) is False
        assert arr.migrate_file(2, 3) is False
        assert arr.location_of(2) == 2

    def test_migrate_unplaced_rejected(self, array):
        with pytest.raises(ValueError):
            array.migrate_file(0, 1)


class TestEnergyAggregation:
    def test_total_energy_sums_drives(self, sim, array):
        array.place_all(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        array.submit_request(Request(0.0, 0, 1.0))
        sim.run(until=10.0)
        array.finalize()
        # a cell's total is the ledger reducer's, over the closed ledgers
        totals = _reduce_ledgers([d.open_ledger().close(10.0) for d in array.drives],
                                 horizon_s=10.0, press=PRESSModel())
        assert totals["total_energy_j"] == sum(sum(d.energies_j)
                                               for d in array.drives)
        assert totals["total_energy_j"] > 0.0

    def test_hooks_forwarded(self, sim, array):
        events = []
        array.set_idle_handler(lambda d: events.append(("idle", d)))
        array.set_busy_handler(lambda d: events.append(("busy", d)))
        array.place_all(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        array.submit_request(Request(0.0, 0, 1.0))
        sim.run()
        assert ("busy", 0) in events
        assert ("idle", 0) in events
