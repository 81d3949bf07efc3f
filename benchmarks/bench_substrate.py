"""Substrate microbenchmarks: kernel, drive, workload generator.

Performance-regression guards for the hot paths (the project guides'
"measure first" rule) — these are the only benches where wall-clock is
the deliverable rather than a reproduction table.
"""

import numpy as np

from repro.disk.drive import Job, TwoSpeedDrive
from repro.disk.parameters import cheetah_two_speed
from repro.sim.engine import Simulator
from repro.workload.synthetic import SyntheticWorkloadConfig, WorldCupLikeWorkload
from repro.workload.zipf import zipf_sample_ranks


def test_event_loop_throughput(benchmark):
    """Dispatch rate of the bare kernel (schedule + run 50k events)."""

    def run_events():
        sim = Simulator()
        for i in range(50_000):
            sim.schedule(float(i) * 1e-3, lambda: None)
        sim.run()
        return sim.events_executed

    assert benchmark(run_events) == 50_000


def test_drive_service_throughput(benchmark):
    """Jobs/second through one drive's full state machine."""
    params = cheetah_two_speed()

    def run_jobs():
        sim = Simulator()
        drive = TwoSpeedDrive(sim, params, 0)
        for i in range(10_000):
            sim.schedule(float(i) * 0.05, (lambda d=drive: d.submit(
                Job.internal_transfer(0.5))))
        sim.run()
        drive.finalize()
        return drive.internal_jobs_served

    assert benchmark(run_jobs) == 10_000


def test_zipf_sampling_throughput(benchmark):
    out = benchmark(zipf_sample_ranks, 4079, 0.8, 100_000, 1)
    assert out.size == 100_000


def test_trace_generation_throughput(benchmark):
    cfg = SyntheticWorkloadConfig(n_files=4079, n_requests=100_000, seed=1)

    def generate():
        return WorldCupLikeWorkload(cfg).generate()

    fileset, trace = benchmark(generate)
    assert len(trace) == 100_000


def test_press_array_scoring(benchmark):
    """End-of-run PRESS scoring of a 16-disk array's closed ledgers."""
    from repro.disk.array import DiskArray
    from repro.press.model import PRESSModel
    from repro.workload.files import FileSet

    params = cheetah_two_speed()
    press = PRESSModel()
    sim = Simulator()
    array = DiskArray(sim, params, 16, FileSet(np.ones(100)))
    sim.schedule(1000.0, lambda: None)
    sim.run()
    array.finalize()
    ledgers = [d.open_ledger().close(1000.0) for d in array.drives]

    def score():
        return press.evaluate_array(ledgers, 1000.0)

    afr, factors = benchmark(score)
    assert len(factors) == 16
