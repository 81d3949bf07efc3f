"""Sharded array execution: split, stream, simulate, merge — bit-identically.

A 256-disk, ten-million-request cell is too big for one event loop to
turn around quickly, but the workload-skew policies this repo studies
are *disk-local*: once data is laid out, a drive's event sequence is
driven solely by the requests routed to it.  This module exploits that
by splitting an N-disk array into ``n_shards`` independent groups, each
simulated by its own event kernel (one per shard) over the
*streamed* workload (:mod:`repro.workload.stream` — no shard ever holds
the full request list), and then merging the per-shard partial results
into one :class:`~repro.experiments.metrics.SimulationResult`.

Determinism contract (DESIGN.md Sec. 12)
----------------------------------------
The merge reduces in a *fixed order* — shards by index, disks by global
id, power states by definition order — and closes every disk's open
ledgers (:mod:`repro.disk.ledger`) at the **global** end time in a
single accounting step.  Consequences, all enforced by the test suite:

* merged results are bit-identical across ``--jobs`` values (the shard
  fan-out order never enters the reduction);
* for shard-decomposable policies (the static family, whose round-robin
  size-ordered placement the plan's file assignment reproduces
  shard-locally) a sharded run equals the ``n_shards=1`` run — and
  thereby the unsharded streamed run — bit-for-bit on every energy,
  thermal, PRESS, and counter field;
* response-time *sums* (hence the mean) reduce per-disk in global disk
  order, exactly associatively for the integer counters; the p95/p99
  come from a fixed log-spaced histogram (exact integer merge,
  quantized to ~0.9 % bin resolution — documented, deterministic).

Policies with cross-disk coupling (MAID's cache zone, READ/PDC
migration) still *run* sharded — each shard gets its own policy
instance over its disk group — but that changes semantics (a per-shard
cache zone is not a per-array cache zone), so sharding them is a
modeling choice, not a transparent optimization.

Each shard runs the same cell executor as a whole-array run
(:func:`repro.experiments.runner._execute_cell`), fed the shard's
filtered stream chunks, and the merge scores PRESS, energy and counters
with the same ledger reducer (``runner._reduce_ledgers``) over the
shards' ledgers closed at the global end.  Only the response reduction
differs: a histogram here, exact percentiles there.  What a sharded cell
cannot run — fault injection, whose schedule is array-global — is
refused in one place, :func:`require_shardable`.
A redundancy layout (faults off) is carried into the merge, which prices
the merged per-disk factors with the runner's CTMC assessment.

Telemetry under sharding (DESIGN.md Sec. 13)
--------------------------------------------
A sharded cell with an :class:`~repro.obs.ObsConfig` runs one full
telemetry stack *per shard*: a :class:`~repro.obs.JsonlTraceWriter`
whose ``remap`` — the shard's disk offset and local->global file table —
turns local disk/file ids into global ones at emission, streaming into
an atomic, untagged per-shard JSONL segment
(:func:`~repro.obs.shard_segment_path`); a
:class:`~repro.obs.DiskSampler` writing rows under global disk ids.
The merge then federates: a deterministic k-way trace merge ordered by
``(time, segment index, seq)`` with one synthesized global
``engine.start``/``engine.stop`` pair
(:func:`~repro.obs.merge_trace_files`), and a sampler-tick *replay* —
each shard's open ledgers are advanced through the global tick instants
it drained before (:meth:`~repro.disk.ledger.OpenDiskLedger.advance`)
so the merged time-series equals the unsharded *sampled* run
bit-for-bit for shard-decomposable policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence, Union, cast

import numpy as np

from repro.disk.drive import Job
from repro.disk.ledger import ClosedDiskLedger, OpenDiskLedger
from repro.disk.parameters import TwoSpeedDiskParams
from repro.experiments.metrics import SimulationResult
from repro.experiments.parallel import RunSpec
from repro.experiments.resilience import (
    ResilienceSummary,
    SweepCheckpoint,
    run_cells_resilient,
)
from repro.experiments.runner import (
    Chunk,
    _assess_redundancy,
    _default_disk_params,
    _default_press,
    _execute_cell,
    _reduce_ledgers,
    make_policy,
)
from repro.obs import (
    ObsConfig,
    TimeSeries,
    merge_trace_files,
    shard_segment_path,
    write_timeseries,
)
from repro.obs import events as obs_events
from repro.redundancy.groups import RedundancyGroups
from repro.redundancy.scheme import GroupScheme
from repro.util.validation import require
from repro.workload.files import FileSet
from repro.workload.stream import WorkloadLike, open_stream

__all__ = [
    "ShardPlan",
    "ShardCellSpec",
    "ShardCellResult",
    "require_shardable",
    "run_shard_cell",
    "merge_shard_results",
    "shard_specs",
    "merge_cell",
    "run_sharded",
    "N_RESPONSE_BINS",
    "response_bin",
    "response_bin_upper_s",
    "histogram_percentile_s",
]


# ----------------------------------------------------------------------
# response-time histogram (fixed bins => exactly associative merges)
# ----------------------------------------------------------------------
#: Log-spaced response-time bins covering 1 microsecond .. 100 seconds.
#: 256 bins/decade over 8 decades: adjacent bin edges differ by ~0.9 %,
#: which bounds the quantization of streamed percentiles.
N_RESPONSE_BINS = 2048
_LOG10_LO = -6.0
_LOG10_HI = 2.0
_BINS_PER_DECADE = N_RESPONSE_BINS / (_LOG10_HI - _LOG10_LO)


def response_bin(response_s: float) -> int:
    """Histogram bin of one response time (under/overflow clamp to the ends)."""
    if response_s <= 1e-6:
        return 0
    if response_s >= 1e2:
        return N_RESPONSE_BINS - 1
    idx = int((math.log10(response_s) - _LOG10_LO) * _BINS_PER_DECADE)
    # float round-off at an exact edge can land one past the end
    return min(idx, N_RESPONSE_BINS - 1)


def response_bin_upper_s(index: int) -> float:
    """Upper edge of one histogram bin, seconds."""
    return 10.0 ** (_LOG10_LO + (index + 1) / _BINS_PER_DECADE)


def histogram_percentile_s(counts: np.ndarray, q: float) -> float:
    """Percentile from a response histogram: upper edge of the covering bin.

    Deterministic and merge-order independent (the histogram is integer
    data); quantized to the bin resolution rather than interpolated.
    """
    require(0.0 <= q <= 100.0, f"q must be in [0, 100], got {q}")
    total = int(counts.sum())
    require(total > 0, "empty response histogram")
    target = math.ceil(q / 100.0 * total)
    target = max(target, 1)
    cum = np.cumsum(counts)
    index = int(np.searchsorted(cum, target))
    return response_bin_upper_s(index)


# ----------------------------------------------------------------------
# the plan: who owns which disks and which files
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShardPlan:
    """Partition of an N-disk array into independent contiguous groups.

    Shard ``s`` owns global disks ``[s*D, (s+1)*D)`` with
    ``D = n_disks // n_shards``.  Files are assigned by size affinity:
    in size-rank order they are dealt round-robin across the *global*
    disks, and each file follows its disk's shard.  This reproduces the
    static policies' ``placement[order] = rank % n_disks`` layout
    shard-locally: the k-th file (by size) of a shard lands on local disk
    ``k % D`` — the same physical disk the unsharded layout picks — which
    is what makes sharded static runs bit-identical to unsharded ones.
    """

    n_disks: int
    n_shards: int

    def __post_init__(self) -> None:
        require(self.n_disks >= 1, f"n_disks must be >= 1, got {self.n_disks}")
        require(self.n_shards >= 1, f"n_shards must be >= 1, got {self.n_shards}")
        require(self.n_disks % self.n_shards == 0,
                f"n_shards ({self.n_shards}) must divide n_disks "
                f"({self.n_disks}) so every shard gets equal disks")

    @property
    def disks_per_shard(self) -> int:
        """Disks owned by each shard."""
        return self.n_disks // self.n_shards

    def disk_offset(self, shard_index: int) -> int:
        """First global disk id of one shard's contiguous group."""
        require(0 <= shard_index < self.n_shards,
                f"shard_index out of range: {shard_index}")
        return shard_index * self.disks_per_shard

    def shard_of_files(self, fileset: FileSet) -> np.ndarray:
        """Owning shard per file id (int64, aligned with the fileset)."""
        n_files = len(fileset)
        # k-th file by size -> global disk k % n_disks -> its shard
        order = fileset.ids_sorted_by_size()
        shard_of = np.empty(n_files, dtype=np.int64)
        shard_of[order] = (np.arange(n_files, dtype=np.int64)
                           % self.n_disks) // self.disks_per_shard
        return shard_of


@dataclass(frozen=True, slots=True)
class ShardCellSpec:
    """The shard-specific half of a fan-out :class:`RunSpec`."""

    plan: ShardPlan
    index: int

    def __post_init__(self) -> None:
        require(0 <= self.index < self.plan.n_shards,
                f"shard index out of range: {self.index}")


# ----------------------------------------------------------------------
# per-shard partial result
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShardCellResult:
    """One shard's open partial result (picklable, checkpointable).

    Ledgers are *open* — accounted to each disk's last event, not to the
    shard's end — because the merge must perform the single final
    accounting step at the global end time (see :mod:`repro.disk.ledger`).
    Response sums are per *local* disk (completion order within a disk
    is shard-invariant); the histogram is shard-wide integer data.
    """

    shard_index: int
    plan: ShardPlan
    policy_name: str
    duration_s: float
    n_requests: int
    #: Per local disk, in local (== global, contiguous groups) order.
    ledgers: tuple[OpenDiskLedger, ...]
    #: Capacity used per local disk, MB (the CTMC's rebuild estimate).
    used_mb: tuple[float, ...]
    response_sum_s: tuple[float, ...]
    #: Fixed-bin response histogram counts (length N_RESPONSE_BINS).
    response_hist: tuple[int, ...]
    events_executed: int
    #: Wall-clock seconds of the shard's drain alone.
    wall_clock_s: float = field(compare=False, default=0.0)
    policy_detail: dict[str, object] = field(default_factory=dict)
    #: Per-shard JSONL trace segment (``None`` when tracing was off).
    #: Events inside carry global disk/file ids and no shard tag.
    trace_segment: Optional[str] = None
    #: Data events written to the segment — the merge's expected count.
    trace_events: int = 0
    #: Sampler rows captured at the shard's local ticks, already under
    #: global disk ids (``()`` when sampling was off).  The merge
    #: synthesizes the rows for ticks past this shard's local end.
    sample_rows: tuple[tuple, ...] = ()
    #: The sampler cadence this shard ran with (``None`` = sampling off;
    #: the merge requires it to agree across shards).
    sample_interval_s: Optional[float] = None
    #: ``(speed, phase, queue_depth)`` per local disk, frozen at the
    #: shard's end.  For shard-decomposable policies nothing moves a
    #: disk after its shard drains, so these are the values every
    #: synthesized post-end sample row reports.
    final_disk_state: tuple[tuple[str, str, int], ...] = ()


class _ShardMetrics:
    """Constant-memory response metrics for one shard's streamed dispatch.

    Replaces :class:`~repro.experiments.metrics.RequestMetrics` (which
    preallocates O(n) arrays) with per-disk response sums plus a fixed
    integer histogram, and owns the stream-aware stop condition: the
    run ends when dispatch has exhausted the stream *and* every
    dispatched request has completed.
    """

    def __init__(self, n_disks_local: int,
                 on_all_done: Callable[[], None]) -> None:
        self.response_sum_s = [0.0] * n_disks_local
        self.response_hist = np.zeros(N_RESPONSE_BINS, dtype=np.int64)
        self.completed = 0
        self.dispatched = 0
        self.dispatch_done = False
        self._on_all_done = on_all_done

    def on_complete(self, job: Job) -> None:
        req = job.request
        if req is None:
            return
        response = req.completion_time - req.arrival_time
        self.response_sum_s[req.served_by] += response
        self.response_hist[response_bin(response)] += 1
        self.completed += 1
        if self.dispatch_done and self.completed >= self.dispatched:
            self._on_all_done()

    def close_dispatch(self, dispatched: int) -> None:
        self.dispatched = dispatched
        self.dispatch_done = True

    @property
    def all_done(self) -> bool:
        return self.dispatch_done and self.completed >= self.dispatched


# ----------------------------------------------------------------------
# the capability check
# ----------------------------------------------------------------------
def require_shardable(faults: object) -> None:
    """Refuse, with the reason, what a sharded cell cannot run.

    The one statement of the sharding capability matrix: fault injection
    (any non-``None`` ``faults``) is refused; everything else — tracing,
    sampling, redundancy layouts with faults off — runs sharded.  Raises
    ``ValueError`` naming the CLI flags.
    """
    require(faults is None,
            "--faults cannot be combined with --shards: fault injection "
            "needs the whole-array view (hazard budgets, degraded-mode "
            "redirects and rebuild traffic couple disks across shard "
            "boundaries); run the cell unsharded")


# ----------------------------------------------------------------------
# the shard worker
# ----------------------------------------------------------------------
def run_shard_cell(spec: RunSpec) -> ShardCellResult:
    """Simulate one shard of one cell over the streamed workload.

    The shard keeps the files it owns, renumbered to local ids, and runs
    them through the cell executor shared with whole-array runs
    (:func:`repro.experiments.runner._execute_cell`) as filtered stream
    chunks.  What is shard-specific stays here: the constant-memory
    response metrics, a trace writer that maps local ids back to
    global ones, and the drives' ledgers captured *open* instead of
    finalized, so the merge can close them at the global end time.
    """
    shard = spec.shard
    require(shard is not None, "run_shard_cell needs a spec with shard set")
    assert shard is not None  # for the type checker
    require_shardable(spec.faults)
    plan = shard.plan
    require(spec.n_disks == plan.n_disks,
            f"spec.n_disks ({spec.n_disks}) != plan.n_disks ({plan.n_disks})")

    stream = open_stream(spec.workload)
    fileset = stream.fileset
    mine = plan.shard_of_files(fileset) == shard.index
    my_files = np.flatnonzero(mine)
    # A file-less shard can't even build its array (and policies act on
    # drives their fileset implies), so degenerate splits are rejected
    # rather than approximated.  The size-affinity assignment guarantees
    # every shard owns files whenever n_files >= n_disks.
    require(my_files.size > 0,
            f"shard {shard.index} owns no files "
            f"({len(fileset)} files across {plan.n_shards} shards); "
            f"use fewer shards or more files")
    # local file ids preserve global id order, so a shard-local stable
    # size sort equals the global sort restricted to this shard — the
    # keystone of the sharded-equals-unsharded proof
    local_id = np.full(len(fileset), -1, dtype=np.int64)
    local_id[my_files] = np.arange(my_files.size, dtype=np.int64)
    local_fileset = FileSet(fileset.sizes_mb[my_files])

    def filtered_chunks() -> Iterator[Chunk]:
        for chunk in stream.chunks():
            keep = mine[chunk.file_ids]
            yield (chunk.times_s[keep].tolist(),
                   local_id[chunk.file_ids[keep]].tolist())

    # The trace writer remaps local ids to global at emission — disk-
    # carrying fields shift by the shard's disk offset, file ids go
    # through the shard's local->global file table — so the segment needs
    # no rewrite pass.  Events carry no shard tag: the merge keys each
    # segment by its index.
    obs = spec.obs
    offset = plan.disk_offset(shard.index)
    file_table: Optional[list[int]] = None
    if obs is not None and obs.trace_path is not None:
        file_table = my_files.tolist()
        obs = replace(obs, trace_path=str(
            shard_segment_path(obs.trace_path, shard.index)))
    policy = make_policy(spec.policy, **dict(spec.policy_kwargs))
    cell, metrics = _execute_cell(
        policy, local_fileset, filtered_chunks(),
        lambda stop: _ShardMetrics(plan.disks_per_shard, on_all_done=stop),
        n_disks=plan.disks_per_shard,
        params=(spec.disk_params if spec.disk_params is not None
                else _default_disk_params()),
        obs=obs, disk_offset=offset, file_table=file_table)

    if cell.writer is not None:
        cell.writer.close()
    drives = cell.array.drives
    sampler = cell.sampler
    return ShardCellResult(
        shard_index=shard.index,
        plan=plan,
        policy_name=policy.name,
        duration_s=cell.sim.now,
        n_requests=metrics.completed,
        # captured OPEN (no array.finalize()): the final accounting step
        # belongs to the merge, at the global end time
        ledgers=tuple(drive.open_ledger() for drive in drives),
        used_mb=tuple(float(m) for m in cell.array.used_mb),
        response_sum_s=tuple(metrics.response_sum_s),
        response_hist=tuple(metrics.response_hist.tolist()),
        events_executed=cell.sim.events_executed,
        wall_clock_s=cell.wall_clock_s,
        policy_detail=policy.describe(),
        trace_segment=None if obs is None else obs.trace_path,
        trace_events=0 if cell.writer is None else cell.writer.events_written,
        # deliberately no closing sample_now(): the merge replays the
        # global ticks this shard drained before and closes the series
        # at the *global* end time
        sample_rows=() if sampler is None else sampler.series().rows,
        sample_interval_s=None if sampler is None else sampler.interval_s,
        final_disk_state=() if sampler is None else tuple(
            (drive.speed.name.lower(), drive.phase.value, drive.queue_length)
            for drive in drives),
    )


# ----------------------------------------------------------------------
# the merge: fixed reduction order => bit-identical across --jobs
# ----------------------------------------------------------------------
def _sampler_ticks(interval_s: float, end_s: float) -> list[float]:
    """Global sampler tick instants strictly before ``end_s``.

    Reproduces :class:`~repro.sim.timers.PeriodicTask`'s cumulative
    schedule arithmetic (each tick schedules the next at ``now +
    period``) rather than ``k * period`` — the two differ in float
    round-off, and the replayed accounting edges must land on exactly
    the instants the unsharded sampler fired at.  A tick at exactly
    ``end_s`` never fires: the final completion (priority 0) stops the
    kernel before that instant's priority-90 sample dispatches.
    """
    ticks: list[float] = []
    t = 0.0
    while True:
        t = t + interval_s
        if t >= end_s:
            return ticks
        ticks.append(t)


def merge_shard_results(results: Sequence[ShardCellResult],
                        *, obs: Optional[ObsConfig] = None,
                        redundancy: Optional[GroupScheme] = None,
                        disk_params: Optional[TwoSpeedDiskParams] = None,
                        ) -> SimulationResult:
    """Reduce per-shard partial results into one :class:`SimulationResult`.

    Reduction order is fixed — shards by index, disks by global id,
    power states by definition order — and the closed ledgers go through
    the unsharded runner's own reducer (``runner._reduce_ledgers``), so
    the merged result is independent of how (and how parallel) the
    shards were executed, and equals the ``n_shards=1`` reduction of the
    same stream exactly.

    Telemetry federates here too (``obs`` names the merged artifact
    paths): per-shard trace segments k-way merge into ``obs.trace_path``
    with one synthesized global ``engine.start``/``engine.stop`` pair;
    when sampling was on, the shards' open ledgers are *replayed*
    through the global tick instants each shard drained before
    (:meth:`~repro.disk.ledger.OpenDiskLedger.advance`), synthesizing
    the sample rows the unsharded sampler would have written.  For
    shard-decomposable policies the merged time-series equals the
    unsharded *sampled* run bit-for-bit.

    ``redundancy`` prices the merged factors with the runner's CTMC
    assessment, whose rebuild estimate reads ``disk_params``.
    """
    require(len(results) >= 1, "need at least one shard result")
    plan = results[0].plan
    ordered = sorted(results, key=lambda r: r.shard_index)
    require(tuple(r.shard_index for r in ordered) == tuple(range(plan.n_shards)),
            f"need exactly one result per shard 0..{plan.n_shards - 1}, got "
            f"{sorted(r.shard_index for r in results)}")
    for r in ordered:
        require(r.plan == plan, "shard results were produced under different plans")

    completed = sum(r.n_requests for r in ordered)
    require(completed >= 1, "merged run served no requests (empty stream?)")

    # the global horizon: the completion time of the last request in any
    # shard — exactly sim.now of the equivalent unsharded run
    duration = max(r.duration_s for r in ordered)
    require(duration > 0.0, "merged duration must be positive")

    interval = ordered[0].sample_interval_s
    for r in ordered:
        require(r.sample_interval_s == interval,
                "shard results carry mixed sampler cadences")

    # close every disk's open ledgers at the global end, global disk order
    closed: list[ClosedDiskLedger] = []
    merged_series: Optional[TimeSeries] = None
    if interval is None:
        for r in ordered:
            for ledger in r.ledgers:
                closed.append(ledger.close(duration))
    else:
        # Sampling splits the ledger accounting at every tick (the
        # sampler's documented last-ulp semantics), so to equal the
        # unsharded *sampled* run the merge replays the global ticks
        # each shard drained before: advance the open ledgers edge by
        # edge through the missed instants — synthesizing the rows the
        # unsharded sampler would have written, with speed/phase/queue
        # frozen at the shard's end (nothing moves a disk after its
        # shard drains under a shard-decomposable policy) — then close
        # at the global end for the final end-of-run sample row.
        ticks = _sampler_ticks(interval, duration)
        rows: list[tuple] = []
        for r in ordered:
            rows.extend(r.sample_rows)
            base = plan.disk_offset(r.shard_index)
            require(len(r.final_disk_state) == len(r.ledgers),
                    f"shard {r.shard_index} result lacks its final disk state")
            for local, ledger in enumerate(r.ledgers):
                g = base + local
                speed, phase, queue = r.final_disk_state[local]
                for t in ticks:
                    if t < r.duration_s:
                        continue  # the shard itself sampled this tick
                    ledger = ledger.advance(t)
                    rows.append((t, g,
                                 min(ledger.active_time_s / t, 1.0) * 100.0,
                                 ledger.temp_c, speed, phase, queue,
                                 ledger.total_energy_j))
                c = ledger.close(duration)
                util = min(c.active_time_s / duration, 1.0) * 100.0
                # the unsharded runner's end-of-run sample_now() row
                rows.append((duration, g, util, c.temperature_c, speed,
                             phase, queue, c.total_energy_j))
                closed.append(c)
        rows.sort(key=lambda row: (row[0], row[1]))
        merged_series = TimeSeries(interval_s=interval, rows=tuple(rows))

    if obs is not None and obs.metrics_path is not None:
        require(merged_series is not None,
                "obs.metrics_path set but shard results carry no samples")
        assert merged_series is not None
        write_timeseries(merged_series, obs.metrics_path)
    if obs is not None and obs.trace_path is not None:
        segments: list[str] = []
        for r in ordered:
            require(r.trace_segment is not None,
                    f"obs.trace_path set but shard {r.shard_index} "
                    f"carries no trace segment")
            segments.append(cast(str, r.trace_segment))
        data_events = sum(r.trace_events for r in ordered)
        lead = [(obs_events.ENGINE_START, 0.0,
                 {"policy": ordered[0].policy_name, "n_disks": plan.n_disks,
                  "n_requests": completed})]
        tail = [(obs_events.ENGINE_STOP, duration,
                 {"duration_s": duration, "events": data_events})]
        merged_count = merge_trace_files(segments, obs.trace_path,
                                         lead=lead, tail=tail)
        require(merged_count == data_events,
                f"trace merge saw {merged_count} data events but the "
                f"shards reported writing {data_events}")

    # ---- PRESS, energy and counters: the runner's ledger reducer
    totals = _reduce_ledgers(closed, horizon_s=duration, press=_default_press())

    # ---- response: per-disk sums in global disk order; exact-integer
    # histogram merge for the percentiles
    resp_total = 0.0
    for r in ordered:
        for disk_sum in r.response_sum_s:
            resp_total += disk_sum
    hist = np.zeros(N_RESPONSE_BINS, dtype=np.int64)
    for r in ordered:
        hist += np.asarray(r.response_hist, dtype=np.int64)
    mean_response = resp_total / completed
    p95 = histogram_percentile_s(hist, 95.0)
    p99 = histogram_percentile_s(hist, 99.0)

    detail: dict[str, object] = dict(ordered[0].policy_detail)
    detail["sharding"] = {
        "n_shards": plan.n_shards,
        "disks_per_shard": plan.disks_per_shard,
        "shard_durations_s": [r.duration_s for r in ordered],
        "shard_requests": [r.n_requests for r in ordered],
        "percentiles": "histogram",
    }

    return SimulationResult(
        policy_name=ordered[0].policy_name,
        n_disks=plan.n_disks,
        n_requests=completed,
        duration_s=duration,
        mean_response_s=mean_response,
        p95_response_s=p95,
        p99_response_s=p99,
        **totals,
        policy_detail=detail,
        faults=None,
        events_executed=sum(r.events_executed for r in ordered),
        wall_clock_s=sum(r.wall_clock_s for r in ordered),
        timeseries=merged_series,
        redundancy=_assess_redundancy(
            redundancy, totals["per_disk"],
            used_mb=[m for r in ordered for m in r.used_mb],
            params=(disk_params if disk_params is not None
                    else _default_disk_params())),
    )


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def shard_specs(cell: RunSpec, n_shards: int) -> list[RunSpec]:
    """Expand one whole-array cell into its ``n_shards`` shard sub-cells.

    Every refusal happens here, before any shard runs: the capability
    check (:func:`require_shardable`), the plan's divisibility, and a
    redundancy scheme's group size.
    """
    require_shardable(cell.faults)
    plan = ShardPlan(n_disks=cell.n_disks, n_shards=n_shards)
    if cell.redundancy is not None:
        RedundancyGroups(cell.redundancy, cell.n_disks)  # group-size check
    return [replace(cell, shard=ShardCellSpec(plan, s))
            for s in range(n_shards)]


def merge_cell(cell: RunSpec, results: Sequence[ShardCellResult]) -> SimulationResult:
    """Merge the shard results of one cell expanded by :func:`shard_specs`.

    The device model, telemetry paths and redundancy scheme come from
    ``cell``.
    """
    return merge_shard_results(results, obs=cell.obs,
                               redundancy=cell.redundancy,
                               disk_params=cell.disk_params)


def run_sharded(policy: str, workload: WorkloadLike, *,
                n_disks: int, n_shards: int,
                jobs: int = 1,
                checkpoint: Union[SweepCheckpoint, str, None] = None,
                obs: Optional[ObsConfig] = None,
                ) -> tuple[SimulationResult, ResilienceSummary]:
    """Run one (policy, workload) cell sharded, returning the merged result.

    Fans one :class:`RunSpec` per shard through the sweep executor
    (:func:`~repro.experiments.resilience.run_cells_resilient`, so
    ``jobs`` workers and checkpointing apply per shard) and merges.
    The cell runs with the default device and policy configuration;
    every shard streams its workload at the stream layer's default
    chunk size.  Returns ``(SimulationResult, ResilienceSummary)``.

    ``obs`` rides into every shard sub-cell (per-shard trace segments and
    samplers — see the module docstring) and names the merged artifact
    paths.
    """
    cell = RunSpec(policy=policy, n_disks=n_disks, workload=workload, obs=obs)
    raw, summary = run_cells_resilient(shard_specs(cell, n_shards), jobs=jobs,
                                       checkpoint=checkpoint)
    return merge_cell(cell, cast("list[ShardCellResult]", raw)), summary
