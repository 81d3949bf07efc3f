"""Finalize invariants: a cell with a broken ledger raises, naming the disk.

Each test plants one bad value in the ledger reducer's path — a drive's
captured ledger, a closed ledger, or the PRESS model's scores of them —
and drives it through :func:`run_simulation` or the shard merge.
"""

import math
from dataclasses import replace

import pytest

from repro.disk.drive import TwoSpeedDrive
from repro.disk.energy import STATE_INDEX, DiskPowerState
from repro.disk.ledger import OpenDiskLedger
from repro.experiments.runner import STATE_TIME_RTOL, make_policy, run_simulation
from repro.experiments.shard import run_sharded
from repro.faults import FaultConfig
from repro.press.model import PRESSModel
from repro.workload.synthetic import SyntheticWorkloadConfig

_IDLE_HIGH = STATE_INDEX[DiskPowerState.IDLE_HIGH]
_TRANSITION = STATE_INDEX[DiskPowerState.TRANSITION]


def _run(small_workload, press=None, faults=None):
    fileset, trace = small_workload
    return run_simulation(make_policy("static-high"), fileset, trace.head(300),
                          n_disks=4, press=press, faults=faults)


def _plant_ledger(monkeypatch, disk_id, plant):
    """Make ``disk_id``'s captured ledgers pass through ``plant`` first."""
    capture = TwoSpeedDrive.open_ledger

    def planted(self):
        ledger = capture(self)
        return plant(ledger) if self.disk_id == disk_id else ledger

    monkeypatch.setattr(TwoSpeedDrive, "open_ledger", planted)


def _add_time(ledger, state, seconds):
    time_s = list(ledger.time_s)
    time_s[state] += seconds
    return replace(ledger, time_s=tuple(time_s))


def _set_energy(ledger, state, joules):
    energy_j = list(ledger.energy_j)
    energy_j[state] = joules
    return replace(ledger, energy_j=tuple(energy_j))


def test_clean_run_passes(small_workload):
    assert _run(small_workload).n_requests == 300


def test_state_time_short_of_the_horizon_raises(small_workload, monkeypatch):
    _plant_ledger(monkeypatch, 2, lambda c: _add_time(c, _IDLE_HIGH, -1.0))
    with pytest.raises(RuntimeError, match=r"disk 2: state-times .* not the horizon"):
        _run(small_workload)


def test_negative_state_energy_raises(small_workload, monkeypatch):
    _plant_ledger(monkeypatch, 1, lambda c: _set_energy(c, _TRANSITION, -1.0))
    with pytest.raises(RuntimeError, match=r"disk 1: state energies .*-1\.0"):
        _run(small_workload)


class _PlantingPRESS(PRESSModel):
    """Scores the closed ledgers, then lets a test corrupt the scores."""

    def __init__(self, plant):
        super().__init__()
        self._plant = plant

    def evaluate_array(self, ledgers, duration_s):
        afr, factors = super().evaluate_array(ledgers, duration_s)
        return self._plant(afr, factors)


def test_non_finite_disk_afr_raises(small_workload):
    def plant(afr, factors):
        factors[3] = replace(factors[3], afr_percent=math.nan)
        return afr, factors

    with pytest.raises(RuntimeError, match=r"disk 3: AFR nan%"):
        _run(small_workload, press=_PlantingPRESS(plant))


def test_infinite_array_afr_raises(small_workload):
    with pytest.raises(RuntimeError, match=r"array AFR inf%"):
        _run(small_workload, press=_PlantingPRESS(lambda afr, factors: (math.inf, factors)))


def test_state_time_tolerance_is_relative(small_workload, monkeypatch):
    # the drive is finalized before capture, so last_account_s is the horizon
    def drift_by(multiple):
        return lambda c: _add_time(c, _IDLE_HIGH,
                                   multiple * STATE_TIME_RTOL * c.last_account_s)

    _plant_ledger(monkeypatch, 0, drift_by(0.5))
    _run(small_workload)
    monkeypatch.undo()
    _plant_ledger(monkeypatch, 0, drift_by(4.0))
    with pytest.raises(RuntimeError, match="disk 0"):
        _run(small_workload)


def test_failed_disk_is_exempt_from_the_time_check(small_workload, monkeypatch):
    # this seed fails disk 0 mid-run: its downtime is in no power state
    faults = FaultConfig(seed=3, accel=1e7, hazard_refresh_s=0.5)
    failed = {d for d, _ in _run(small_workload, faults=faults).faults.failure_schedule}
    assert failed == {0}
    _plant_ledger(monkeypatch, 0, lambda c: _add_time(c, _IDLE_HIGH, -1.0))
    _run(small_workload, faults=faults)
    monkeypatch.undo()
    _plant_ledger(monkeypatch, 1, lambda c: _add_time(c, _IDLE_HIGH, -1.0))
    with pytest.raises(RuntimeError, match=r"disk 1: state-times .* not the horizon"):
        _run(small_workload, faults=faults)


def test_overflowing_total_energy_raises(small_workload, monkeypatch):
    # each disk's energies are finite; only their array-wide sum is not
    capture = TwoSpeedDrive.open_ledger

    def huge(self):
        return _set_energy(capture(self), _IDLE_HIGH, 1e308)

    monkeypatch.setattr(TwoSpeedDrive, "open_ledger", huge)
    with pytest.raises(RuntimeError, match=r"array total energy inf J"):
        _run(small_workload)


def test_shard_merge_checks_the_closed_ledgers(monkeypatch):
    close = OpenDiskLedger.close

    def bad_close(self, at_s):
        closed = close(self, at_s)
        if self.disk_id != 0:
            return closed
        return replace(closed, time_s=(closed.time_s[0] + 5.0,) + closed.time_s[1:])

    monkeypatch.setattr(OpenDiskLedger, "close", bad_close)
    cfg = SyntheticWorkloadConfig(n_files=60, n_requests=400, seed=5)
    with pytest.raises(RuntimeError, match=r"disk \d+: state-times"):
        run_sharded("static-high", cfg, n_disks=4, n_shards=2)
