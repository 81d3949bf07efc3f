"""Finalize invariants: a cell with a broken ledger raises, naming the disk.

Each test plants one bad value between PRESS scoring and the result
(or hands the check a bad ledger directly) and expects the raise.
"""

import math
from dataclasses import replace

import pytest

from repro.disk.energy import DiskPowerState
from repro.disk.ledger import OpenDiskLedger
from repro.experiments.runner import (
    STATE_TIME_RTOL,
    _check_finalize_invariants,
    make_policy,
    run_simulation,
)
from repro.experiments.shard import run_sharded
from repro.press.model import DiskFactors, PRESSModel
from repro.workload.synthetic import SyntheticWorkloadConfig


class _PlantingPRESS(PRESSModel):
    """Scores the array, then lets a test corrupt the drives or factors."""

    def __init__(self, plant):
        super().__init__()
        self._plant = plant

    def evaluate_array(self, array, duration_s=None):
        afr, factors = super().evaluate_array(array, duration_s)
        return self._plant(array, afr, factors)


def _run(small_workload, plant):
    fileset, trace = small_workload
    return run_simulation(make_policy("static-high"), fileset, trace.head(300),
                          n_disks=4, press=_PlantingPRESS(plant))


def test_clean_run_passes(small_workload):
    result = _run(small_workload, lambda array, afr, factors: (afr, factors))
    assert result.n_requests == 300


def test_state_time_short_of_the_horizon_raises(small_workload):
    def plant(array, afr, factors):
        array.drives[2].energy._time_s[DiskPowerState.IDLE_HIGH] -= 1.0
        return afr, factors

    with pytest.raises(RuntimeError, match=r"disk 2: state-times .* not the horizon"):
        _run(small_workload, plant)


def test_negative_state_energy_raises(small_workload):
    def plant(array, afr, factors):
        array.drives[1].energy._energy_j[DiskPowerState.TRANSITION] = -1.0
        return afr, factors

    with pytest.raises(RuntimeError, match=r"disk 1: state energies .*-1\.0"):
        _run(small_workload, plant)


def test_non_finite_disk_afr_raises(small_workload):
    def plant(array, afr, factors):
        factors[3] = replace(factors[3], afr_percent=math.nan)
        return afr, factors

    with pytest.raises(RuntimeError, match=r"disk 3: AFR nan%"):
        _run(small_workload, plant)


def test_infinite_array_afr_raises(small_workload):
    with pytest.raises(RuntimeError, match=r"array AFR inf%"):
        _run(small_workload, lambda array, afr, factors: (math.inf, factors))


def _ledger(disk_id, times):
    return disk_id, times, [1.0] * len(times)


def _factors(n):
    return [DiskFactors(disk_id=i, mean_temperature_c=40.0, utilization_percent=10.0,
                        transitions_per_day=0.0, afr_percent=9.0) for i in range(n)]


def _check(ledgers, **overrides):
    kwargs = dict(horizon_s=100.0, total_energy_j=10.0, array_afr_percent=9.0,
                  factors=_factors(len(ledgers)))
    kwargs.update(overrides)
    _check_finalize_invariants(ledgers, **kwargs)


def test_state_time_tolerance_is_relative():
    drift = 100.0 * STATE_TIME_RTOL / 2
    _check([_ledger(0, [60.0, 40.0 + drift])])
    with pytest.raises(RuntimeError, match="disk 0"):
        _check([_ledger(0, [60.0, 40.0 + 4 * drift])])


def test_failed_disk_is_exempt_from_the_time_check():
    ledgers = [_ledger(0, [60.0, 40.0]), _ledger(1, [30.0, 0.0])]
    _check(ledgers, failed_disks={1})
    with pytest.raises(RuntimeError, match=r"disk 1: state-times \[30\.0, 0\.0\] s"):
        _check(ledgers)


def test_negative_total_energy_raises():
    with pytest.raises(RuntimeError, match=r"array total energy -5\.0 J"):
        _check([_ledger(0, [100.0])], total_energy_j=-5.0)


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
