"""Kernel and sweep throughput — the perf trajectory the ROADMAP tracks.

The measurements, fixed-scale regardless of ``REPRO_BENCH_SCALE`` so
the numbers stay comparable across commits:

* batched kernel events/sec — a 1024-disk :class:`~repro.disk.state.ArrayState`
  advanced by a :class:`~repro.sim.soa.BatchTicker`, counting per-disk
  lane updates per wall-clock second, best of three;
* object kernel events/sec — a self-rescheduling tick drained through
  :meth:`~repro.sim.engine.Simulator.run_until_drained`, best of three
  (the pre-SoA dispatch path, kept as its own regression metric);
* the 8-cell Fig. 7-style sweep (read, maid x 6..12 disks) through
  :func:`~repro.experiments.parallel.run_cells`, serial and ``jobs=4``;
* one sweep cell (read x 8 disks) with telemetry off and with full
  event tracing to a JSONL file, guarding both the obs-disabled hot
  path and the tracing-on overhead ratio;
* one sharded cell (16 disks / 4 shards) with telemetry off and with
  per-shard trace segments merged into one canonical trace, guarding
  the shard tracing-overhead ratio (the merge parses every segment
  line to validate it, so the sharded pair has its own cap);
* one fault-injected redundancy cell (read x 8 disks, ``block4-2``,
  accelerated hazard) exercising the degraded-read reconstruct fan-in
  and rebuild fan-out paths end to end, guarding the per-request cost
  of the redundancy-group machinery.

The committed reference numbers live in ``BENCH_throughput.json`` at the
repo root; each run writes its fresh measurement to
``benchmarks/results/throughput.json`` and ``check_regression.py``
compares the two (>20% events/sec drop fails, and the batched rate has
an absolute floor of 3x the object path's committed 1.07M).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from conftest import RESULTS_DIR, record_table
from check_regression import (BASELINE_PATH, compare, kernel_floor,
                              stream_floor, tracing_overhead)
from repro.disk.parameters import cheetah_two_speed
from repro.disk.state import ArrayState
from repro.experiments.parallel import RunSpec, run_cells
from repro.obs import ObsConfig
from repro.sim.engine import Simulator
from repro.sim.soa import BatchTicker
from repro.workload.synthetic import SyntheticWorkloadConfig

#: Event count for the kernel microbenchmark (large enough that the
#: per-run Simulator setup is noise).
KERNEL_EVENTS = 300_000
KERNEL_REPEATS = 3

#: Scale of the batched-kernel microbenchmark: a MAID-scale array
#: (the regime the SoA layout exists for — per-tick Python overhead
#: amortizes across lanes), enough ticks that per-run setup is noise
#: (1024 * 2_500 = 2.56M lane updates per repeat).
BATCH_DISKS = 1024
BATCH_TICKS = 2_500

#: The 8-cell sweep: two trace-driven policies across four array sizes,
#: one shared workload (exercises the cache + executor end to end).
SWEEP_POLICIES = ("read", "maid")
SWEEP_DISK_COUNTS = (6, 8, 10, 12)
SWEEP_WORKLOAD = SyntheticWorkloadConfig(n_files=1_000, n_requests=30_000,
                                         seed=7, bursty=True)

#: The streamed/sharded measurement: one 16-disk cell split into 4
#: shards, run serially over the chunked (never-materialized) workload.
STREAM_WORKLOAD = SyntheticWorkloadConfig(n_files=2_000, n_requests=100_000,
                                          seed=7, bursty=True)
STREAM_DISKS = 16
STREAM_SHARDS = 4

#: The merge measurement: fixed-order reduction of a 64-disk cell's 16
#: shard partials into one SimulationResult.
MERGE_DISKS = 64
MERGE_SHARDS = 16

#: The redundancy measurement: one fault-injected block4-2 cell whose
#: accelerated hazard drives many requests through degraded-read
#: reconstruction (k-leg fan-in) and rebuilds through survivor fan-out.
REBUILD_DISKS = 8
REBUILD_FAULTS_SPEC = "seed=3,accel=200000"
REBUILD_SCHEME = "block4-2"


def measure_batch_events_per_sec(n_disks: int = BATCH_DISKS,
                                 n_ticks: int = BATCH_TICKS,
                                 repeats: int = KERNEL_REPEATS) -> float:
    """Best-of-N per-disk lane updates/sec for the batched SoA kernel.

    Drives a fluid-approximation :meth:`ArrayState.batch_step` through a
    :class:`BatchTicker` with a fixed per-disk arrival field — the
    whole-array analogue of one service event per disk per tick, so the
    rate is directly comparable to the object kernel's events/sec.
    """
    params = cheetah_two_speed()
    rng = np.random.default_rng(7)
    arrivals = rng.random(n_disks) * 2.0
    best = 0.0
    for _ in range(repeats):
        sim = Simulator()
        state = ArrayState(n_disks, params)
        ticker = BatchTicker(sim, n_disks,
                             lambda dt: state.batch_step(dt, arrivals),
                             interval_s=1.0, max_ticks=n_ticks)
        ticker.start()
        start = perf_counter()
        sim.run_until_drained()
        rate = ticker.lane_updates / (perf_counter() - start)
        best = max(best, rate)
    return best


def measure_kernel_events_per_sec(n_events: int = KERNEL_EVENTS,
                                  repeats: int = KERNEL_REPEATS) -> float:
    """Best-of-N events/sec for a pure scheduling/dispatch workload."""
    best = 0.0
    for _ in range(repeats):
        sim = Simulator()
        remaining = n_events

        def tick() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                sim.schedule(1e-3, tick)

        sim.schedule(0.0, tick)
        start = perf_counter()
        sim.run_until_drained()
        rate = n_events / (perf_counter() - start)
        best = max(best, rate)
    return best


def sweep_specs() -> list[RunSpec]:
    return [RunSpec(policy=name, n_disks=n, workload=SWEEP_WORKLOAD)
            for name in SWEEP_POLICIES for n in SWEEP_DISK_COUNTS]


def measure_sweep_s(jobs: int, repeats: int = 2) -> float:
    """Best-of-N wall-clock for the 8-cell sweep at the given parallelism."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        run_cells(sweep_specs(), jobs=jobs)
        best = min(best, perf_counter() - start)
    return best


def measure_cell_s(obs: ObsConfig | None = None, repeats: int = 2) -> float:
    """Best-of-N wall-clock for one sweep cell (read x 8 disks)."""
    best = float("inf")
    for _ in range(repeats):
        spec = RunSpec(policy="read", n_disks=8, workload=SWEEP_WORKLOAD,
                       obs=obs)
        start = perf_counter()
        run_cells([spec], jobs=1)
        best = min(best, perf_counter() - start)
    return best


def measure_rebuild_cell_s(repeats: int = 2) -> float:
    """Best-of-N wall-clock for the fault-injected redundancy cell.

    The accelerated hazard fails several disks during the run, so a
    large fraction of the trace is served through the k-leg reconstruct
    fan-in while rebuild read legs stream across the survivors — the
    most expensive request path the fault layer has."""
    from repro.faults import parse_faults_spec
    from repro.redundancy import parse_redundancy_spec

    faults = parse_faults_spec(REBUILD_FAULTS_SPEC)
    scheme = parse_redundancy_spec(REBUILD_SCHEME)
    best = float("inf")
    for _ in range(repeats):
        spec = RunSpec(policy="read", n_disks=REBUILD_DISKS,
                       workload=SWEEP_WORKLOAD, faults=faults,
                       redundancy=scheme)
        start = perf_counter()
        run_cells([spec], jobs=1)
        best = min(best, perf_counter() - start)
    return best


def measure_stream_requests_per_sec(repeats: int = 2) -> float:
    """Best-of-N requests/sec through the streamed sharded path, end to
    end: chunked generation, filtered per-shard dispatch, SoA kernels,
    open-ledger capture, and the fixed-order merge — all serial."""
    from repro.experiments.shard import run_sharded

    best = 0.0
    for _ in range(repeats):
        start = perf_counter()
        result, _summary = run_sharded("static-high", STREAM_WORKLOAD,
                                       n_disks=STREAM_DISKS,
                                       n_shards=STREAM_SHARDS)
        rate = result.n_requests / (perf_counter() - start)
        best = max(best, rate)
    return best


def measure_shard_cell_s(traced: bool, repeats: int = 2) -> float:
    """Best-of-N wall-clock for one sharded cell (16 disks / 4 shards),
    with telemetry off or with per-shard trace segments plus the k-way
    merge into one canonical trace (end to end, like ``sweep --shards``
    with ``--trace-out``)."""
    from repro.experiments.shard import run_sharded

    best = float("inf")
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as td:
            obs = (ObsConfig(trace_path=str(Path(td) / "trace.jsonl"))
                   if traced else None)
            start = perf_counter()
            run_sharded("static-high", STREAM_WORKLOAD,
                        n_disks=STREAM_DISKS, n_shards=STREAM_SHARDS,
                        obs=obs)
            best = min(best, perf_counter() - start)
    return best


def measure_shard_merge_s(repeats: int = 3) -> float:
    """Best-of-N wall-clock for merging one 64-disk / 16-shard cell.

    The shard partials are produced once outside the timer; only
    :func:`~repro.experiments.shard.merge_shard_results` — ledger closes
    at the global horizon, PRESS re-scoring, fixed-order reductions —
    is measured."""
    from repro.experiments.parallel import run_cell
    from repro.experiments.shard import (ShardCellSpec, ShardPlan,
                                         merge_shard_results)

    plan = ShardPlan(n_disks=MERGE_DISKS, n_shards=MERGE_SHARDS)
    partials = [run_cell(RunSpec(policy="static-high", n_disks=MERGE_DISKS,
                                 workload=STREAM_WORKLOAD,
                                 shard=ShardCellSpec(plan, s)))
                for s in range(MERGE_SHARDS)]
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        merge_shard_results(partials)
        best = min(best, perf_counter() - start)
    return best


def _write_results(results: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "throughput.json"
    path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return path


def test_throughput(benchmark):
    batch_events_per_sec = measure_batch_events_per_sec()
    object_events_per_sec = measure_kernel_events_per_sec()
    serial_s = measure_sweep_s(jobs=1)
    jobs4_s = measure_sweep_s(jobs=4)
    cell_obs_off_s = measure_cell_s()
    with tempfile.TemporaryDirectory() as td:
        cell_traced_s = measure_cell_s(
            ObsConfig(trace_path=str(Path(td) / "trace.jsonl")))
    rebuild_cell_s = measure_rebuild_cell_s()
    stream_rps = measure_stream_requests_per_sec()
    shard_merge_s = measure_shard_merge_s()
    shard_obs_off_s = measure_shard_cell_s(traced=False)
    shard_traced_s = measure_shard_cell_s(traced=True)
    benchmark.pedantic(lambda: batch_events_per_sec, rounds=1, iterations=1)

    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    current = {
        "kernel_events_per_sec": round(batch_events_per_sec),
        "kernel_events_per_sec_object": round(object_events_per_sec),
        "sweep8_serial_s": round(serial_s, 3),
        "sweep8_jobs4_s": round(jobs4_s, 3),
        "cell_obs_off_s": round(cell_obs_off_s, 3),
        "cell_traced_s": round(cell_traced_s, 3),
        "rebuild_cell_s": round(rebuild_cell_s, 3),
        "stream_requests_per_sec": round(stream_rps),
        "shard_merge_s": round(shard_merge_s, 4),
        "shard_obs_off_s": round(shard_obs_off_s, 3),
        "shard_traced_s": round(shard_traced_s, 3),
    }
    _write_results(current)

    seed = baseline.get("seed", {})
    lines = [
        f"{'measurement':<28}{'current':>12}{'committed':>12}{'seed':>12}",
        f"{'batch kernel events/sec':<28}{batch_events_per_sec:>12,.0f}"
        f"{baseline['kernel_events_per_sec']:>12,.0f}"
        f"{seed.get('kernel_events_per_sec', float('nan')):>12,.0f}",
        f"{'object kernel events/sec':<28}{object_events_per_sec:>12,.0f}"
        f"{baseline.get('kernel_events_per_sec_object', float('nan')):>12,.0f}"
        f"{seed.get('kernel_events_per_sec_object', float('nan')):>12,.0f}",
        f"{'8-cell sweep, serial [s]':<28}{serial_s:>12.2f}"
        f"{baseline['sweep8_serial_s']:>12.2f}"
        f"{seed.get('sweep8_serial_s', float('nan')):>12.2f}",
        f"{'8-cell sweep, jobs=4 [s]':<28}{jobs4_s:>12.2f}"
        f"{baseline.get('sweep8_jobs4_s', float('nan')):>12.2f}"
        f"{'':>12}",
        f"{'1 cell, telemetry off [s]':<28}{cell_obs_off_s:>12.2f}"
        f"{baseline.get('cell_obs_off_s', float('nan')):>12.2f}"
        f"{'':>12}",
        f"{'1 cell, traced [s]':<28}{cell_traced_s:>12.2f}"
        f"{baseline.get('cell_traced_s', float('nan')):>12.2f}"
        f"{'':>12}",
        f"{'1 cell, block4-2 faults [s]':<28}{rebuild_cell_s:>12.2f}"
        f"{baseline.get('rebuild_cell_s', float('nan')):>12.2f}"
        f"{'':>12}",
        f"{'streamed shard req/sec':<28}{stream_rps:>12,.0f}"
        f"{baseline.get('stream_requests_per_sec', float('nan')):>12,.0f}"
        f"{'':>12}",
        f"{'64d/16s merge [ms]':<28}{shard_merge_s * 1e3:>12.2f}"
        f"{baseline.get('shard_merge_s', float('nan')) * 1e3:>12.2f}"
        f"{'':>12}",
        f"{'16d/4s cell, obs off [s]':<28}{shard_obs_off_s:>12.2f}"
        f"{baseline.get('shard_obs_off_s', float('nan')):>12.2f}"
        f"{'':>12}",
        f"{'16d/4s cell, traced [s]':<28}{shard_traced_s:>12.2f}"
        f"{baseline.get('shard_traced_s', float('nan')):>12.2f}"
        f"{'':>12}",
    ]
    record_table("Throughput: event kernel and 8-cell sweep", "\n".join(lines))

    regressions = (compare(current, baseline) + tracing_overhead(current)
                   + kernel_floor(current) + stream_floor(current))
    assert not regressions, "; ".join(regressions)
    # Acceptance (SoA kernel): the batched rate beats the object path's
    # committed rate by >= 3x on the same host, same run.
    assert batch_events_per_sec >= 3.0 * baseline["kernel_events_per_sec_object"]
    # Acceptance: the sweep beats the pre-optimization (seed) serial
    # wall-clock by >= 1.5x — on multi-core via the process pool, on a
    # single core via the kernel/hot-path work alone.  (The margin was
    # ~2.2x when first committed; the floor sits at 1.5x because the
    # reference host's speed swings ~20% between sessions and the seed
    # measurement cannot be re-taken at matched host speed.)
    if "sweep8_serial_s" in seed:
        assert min(serial_s, jobs4_s) <= seed["sweep8_serial_s"] / 1.5
