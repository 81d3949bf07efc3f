"""The dispatcher's slice size changes nothing a cell produces.

``runner._execute_cell`` turns trace rows into Python lists
``_REPLAY_ROWS`` rows at a time.  A slice boundary must be invisible:
the same arrivals at the same instants, so every result field and every
trace byte match a run at the default slice size.  The trace lengths sit
on and just past a multiple of 7, so slices of 7 end exactly at the last
row once and leave a one-row tail once; slices of 1 cross a boundary at
every arrival.
"""

import pytest

from repro.experiments import runner
from repro.experiments.runner import make_policy, run_simulation
from repro.experiments.shard import run_sharded
from repro.faults import FaultConfig
from repro.obs import ObsConfig
from repro.redundancy import parse_redundancy_spec
from repro.workload.cache import cached_generate
from repro.workload.synthetic import SyntheticWorkloadConfig

LENGTHS = (14, 15)
ROWS = (1, 7)


def _config(n_requests):
    return SyntheticWorkloadConfig(n_files=40, n_requests=n_requests, seed=3,
                                   mean_interarrival_s=8.0)


def _read(cfg, trace_path):
    fileset, trace = cached_generate(cfg)
    return run_simulation(make_policy("read"), fileset, trace, n_disks=4,
                          obs=ObsConfig(trace_path=trace_path))


def _maid(cfg, trace_path):
    fileset, trace = cached_generate(cfg)
    return run_simulation(make_policy("maid"), fileset, trace, n_disks=6,
                          obs=ObsConfig(trace_path=trace_path))


def _faults_block42(cfg, trace_path):
    fileset, trace = cached_generate(cfg)
    return run_simulation(make_policy("read"), fileset, trace, n_disks=8,
                          faults=FaultConfig(seed=5, accel=2e7),
                          redundancy=parse_redundancy_spec("block4-2"),
                          obs=ObsConfig(trace_path=trace_path))


def _two_shards(cfg, trace_path):
    result, _ = run_sharded("static-high", cfg, n_disks=4, n_shards=2,
                            obs=ObsConfig(trace_path=trace_path))
    return result


CELLS = {"read": _read, "maid": _maid, "faults-block4-2": _faults_block42,
         "shard2": _two_shards}


def _run(cell, n_requests, directory):
    path = directory / "trace.jsonl"
    result = CELLS[cell](_config(n_requests), str(path))
    return result, path.read_bytes()


@pytest.mark.parametrize("n_requests", LENGTHS)
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_slice_size_changes_no_result_and_no_trace_byte(
        cell, n_requests, tmp_path, monkeypatch):
    (tmp_path / "default").mkdir()
    reference, reference_trace = _run(cell, n_requests, tmp_path / "default")
    assert reference.n_requests == n_requests
    assert reference_trace
    if reference.faults is not None:
        # disks fail and reads reconstruct, so the slices cross the
        # degraded path too (the trace outlasts the 60 s hazard refresh)
        assert reference.faults.failure_schedule
        assert reference.redundancy.reconstruct_reads > 0
    for rows in ROWS:
        monkeypatch.setattr(runner, "_REPLAY_ROWS", rows)
        (tmp_path / f"rows{rows}").mkdir()
        result, trace = _run(cell, n_requests, tmp_path / f"rows{rows}")
        assert result == reference, f"{cell}: {rows}-row slices"
        assert trace == reference_trace, f"{cell}: {rows}-row slices"

