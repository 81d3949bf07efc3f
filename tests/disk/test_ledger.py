"""Open/closed disk ledgers: deferred close == live finalize, exactly.

The sharded runner (:mod:`repro.experiments.shard`) captures drives
*open* and performs the final accounting step in the merge process, at
the global end time.  These tests pin the contract that makes that
legal: ``drive.open_ledger().close(t)`` is bit-identical to
``drive.finalize()`` at ``t`` — same per-state times and energies, same
thermal integral, same counters.
"""

import math
import pickle

import pytest

from repro.disk.array import DiskArray
from repro.disk.drive import Job, TwoSpeedDrive
from repro.disk.energy import STATE_INDEX, DiskPowerState
from repro.disk.ledger import ClosedDiskLedger, OpenDiskLedger
from repro.disk.parameters import AMBIENT_TEMPERATURE_C, DiskSpeed
from repro.disk.thermal import DEFAULT_TAU_S
from repro.sim.engine import Simulator
from repro.workload.files import FileSet
from repro.workload.request import Request


def _drive_after_some_work():
    """A 2-disk array that served requests and switched speeds."""
    sim = Simulator()
    fileset = FileSet([1.0, 2.0, 4.0, 8.0])
    array = DiskArray(sim, _params(), 2, fileset,
                      initial_speed=DiskSpeed.HIGH)
    array.place_all([0, 1, 0, 1])
    for t, fid in [(0.0, 0), (0.5, 1), (1.0, 2), (1.5, 3)]:
        sim.schedule(t, lambda fid=fid, t=t: array.submit_request(
            Request.from_validated(t, fid, fileset.sizes_mb[fid])))
    sim.schedule(0.7, lambda: array.drives[0].request_speed(DiskSpeed.LOW))
    sim.run()
    return sim, array


def _params():
    from repro.disk.parameters import cheetah_two_speed
    return cheetah_two_speed()


def _assert_ledger_equals_finalized(drive: TwoSpeedDrive,
                                    closed: ClosedDiskLedger) -> None:
    """Every field of the closed ledger equals the finalized drive, exactly."""
    for state in DiskPowerState:
        i = STATE_INDEX[state]
        assert closed.time_s[i] == drive.times_s[i]
        assert closed.energy_j[i] == drive.energies_j[i]
    assert closed.total_energy_j == sum(drive.energies_j)
    assert closed.active_time_s == drive.active_time_s
    assert closed.breakdown() == {state.value: drive.energies_j[i]
                                  for state, i in STATE_INDEX.items()}
    assert closed.temperature_c == drive.temperature_c
    assert closed.integral_c_s == drive.integral_c_s
    assert closed.elapsed_s == drive.elapsed_s
    assert (closed.mean_temperature_c()
            == drive.integral_c_s / drive.elapsed_s)
    assert closed.internal_jobs_served == drive.internal_jobs_served
    assert closed.transitions_total == drive.transitions_total


class TestDeferredCloseEqualsFinalize:
    def test_close_matches_finalize_bit_for_bit(self):
        sim, array = _drive_after_some_work()
        end = sim.now + 3.0  # close strictly after the last event
        open_ledgers = [d.open_ledger() for d in array.drives]
        # advance the clock to `end` and do the live finalize there
        sim.run(until=end)
        array.finalize()
        for drive, ledger in zip(array.drives, open_ledgers):
            _assert_ledger_equals_finalized(drive, ledger.close(end))

    def test_zero_dt_close_is_the_captured_state(self):
        sim, array = _drive_after_some_work()
        drive = array.drives[0]
        ledger = drive.open_ledger()
        closed = ledger.close(ledger.last_account_s)
        assert closed.temperature_c == ledger.temp_c
        assert closed.integral_c_s == ledger.integral_c_s
        assert closed.time_s == ledger.time_s
        assert closed.energy_j == ledger.energy_j

    def test_close_before_capture_rejected(self):
        sim, array = _drive_after_some_work()
        ledger = array.drives[0].open_ledger()
        with pytest.raises(ValueError):
            ledger.close(ledger.last_account_s - 1.0)

    def test_failed_drive_accrues_no_energy_and_cools(self, sim, params):
        drive = TwoSpeedDrive(sim, params, 0, initial_speed=DiskSpeed.HIGH)
        drive.submit(Job.internal_transfer(4.0))
        sim.run()
        sim.schedule(10.0, drive.fail)
        sim.run()
        ledger = drive.open_ledger()
        assert ledger.state_index is None
        assert ledger.power_w == 0.0
        assert ledger.steady_c == AMBIENT_TEMPERATURE_C
        before = ledger.close(sim.now)
        after = ledger.close(sim.now + 3600.0)
        # no state accrues time or energy after the failure...
        assert after.time_s == before.time_s
        assert after.energy_j == before.energy_j
        # ...but the thermal trajectory keeps decaying toward ambient
        assert after.temperature_c < before.temperature_c
        assert after.temperature_c > AMBIENT_TEMPERATURE_C
        assert after.elapsed_s == before.elapsed_s + 3600.0

    def test_close_mirrors_thermal_integral_formula(self):
        sim, array = _drive_after_some_work()
        ledger = array.drives[1].open_ledger()
        dt = 123.456
        closed = ledger.close(ledger.last_account_s + dt)
        decay = math.exp(-dt / DEFAULT_TAU_S)
        expected_temp = ledger.steady_c + (ledger.temp_c - ledger.steady_c) * decay
        expected_integral = (ledger.integral_c_s + ledger.steady_c * dt
                             + (ledger.temp_c - ledger.steady_c)
                             * DEFAULT_TAU_S * (1.0 - decay))
        assert closed.temperature_c == expected_temp
        assert closed.integral_c_s == expected_integral


class TestLedgerTransport:
    def test_ledgers_pickle_round_trip(self):
        sim, array = _drive_after_some_work()
        for drive in array.drives:
            ledger = drive.open_ledger()
            clone = pickle.loads(pickle.dumps(ledger))
            assert clone == ledger
            end = ledger.last_account_s + 7.0
            assert clone.close(end) == ledger.close(end)

    def test_open_ledger_types(self):
        sim, array = _drive_after_some_work()
        ledger = array.drives[0].open_ledger()
        assert isinstance(ledger, OpenDiskLedger)
        assert isinstance(ledger.close(ledger.last_account_s), ClosedDiskLedger)
        assert len(ledger.time_s) == len(DiskPowerState)
