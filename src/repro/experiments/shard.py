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
  size-ordered placement the ``"affinity"`` assignment reproduces
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
modeling choice, not a transparent optimization.  Fault injection is
not supported under sharding (the fault schedule is array-global).

Telemetry under sharding (DESIGN.md Sec. 13)
--------------------------------------------
A sharded cell with an :class:`~repro.obs.ObsConfig` runs one full
telemetry stack *per shard*: a :class:`~repro.obs.TraceBus` whose
``id_maps`` remap local disk/file ids to global ones at emission (and
whose ``tags`` stamp the shard index), streaming into an atomic
per-shard JSONL segment (:func:`~repro.obs.shard_segment_path`); a
:class:`~repro.obs.DiskSampler` writing rows and registry gauges under
global disk ids.  The merge then federates: a deterministic k-way trace
merge ordered by ``(time, shard, seq)`` with one synthesized global
``engine.start``/``engine.stop`` pair
(:func:`~repro.obs.merge_trace_files`), a typed registry merge
(:func:`~repro.obs.federate_registries`), and a sampler-tick *replay* —
each shard's open ledgers are advanced through the global tick instants
it drained before (:meth:`~repro.disk.ledger.OpenDiskLedger.advance`)
so the merged time-series and federated registry equal the unsharded
*sampled* run bit-for-bit for shard-decomposable policies.  Kernel
profiling stays per-kernel wall timing and is not supported under
sharding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
    cast,
)

import numpy as np

from repro.disk.array import DiskArray
from repro.disk.drive import Job, QueueDiscipline
from repro.disk.ledger import ClosedDiskLedger, OpenDiskLedger
from repro.disk.parameters import DiskSpeed, TwoSpeedDiskParams
from repro.experiments.metrics import SimulationResult
from repro.experiments.parallel import RunSpec, run_cells
from repro.experiments.runner import (
    _default_disk_params,
    _default_press,
    make_policy,
)
from repro.obs import (
    DiskSampler,
    JsonlTraceWriter,
    MetricsRegistry,
    ObsConfig,
    TimeSeries,
    TraceBus,
    federate_registries,
    merge_trace_files,
    shard_segment_path,
    write_timeseries,
)
from repro.obs import events as obs_events
from repro.press.model import DiskFactors, PRESSModel
from repro.sim.engine import Simulator
from repro.util.units import SECONDS_PER_DAY
from repro.util.validation import require
from repro.workload.files import FileSet
from repro.workload.request import Request
from repro.workload.stream import DEFAULT_CHUNK_SIZE, WorkloadLike, open_stream

if TYPE_CHECKING:
    from repro.experiments.resilience import (
        ResilienceConfig,
        ResilienceSummary,
        SweepCheckpoint,
    )

__all__ = [
    "ShardPlan",
    "ShardCellSpec",
    "ShardCellResult",
    "run_shard_cell",
    "merge_shard_results",
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
    ``D = n_disks // n_shards``.  File assignment decides which shard
    *serves* each file:

    ``"affinity"``
        Files in size-rank order are dealt round-robin across the
        *global* disks, and each file follows its disk's shard.  This
        reproduces the static policies' ``placement[order] = rank %
        n_disks`` layout shard-locally: the k-th file (by size) of a
        shard lands on local disk ``k % D`` — the same physical disk the
        unsharded layout picks — which is what makes sharded static runs
        bit-identical to unsharded ones.

    ``"round-robin"``
        File id modulo ``n_shards``; ignores sizes.  A plain spreading
        rule for policies whose placement is not size-ranked (no
        unsharded-equality guarantee).
    """

    n_disks: int
    n_shards: int
    assignment: str = "affinity"

    def __post_init__(self) -> None:
        require(self.n_disks >= 1, f"n_disks must be >= 1, got {self.n_disks}")
        require(self.n_shards >= 1, f"n_shards must be >= 1, got {self.n_shards}")
        require(self.n_disks % self.n_shards == 0,
                f"n_shards ({self.n_shards}) must divide n_disks "
                f"({self.n_disks}) so every shard gets equal disks")
        require(self.assignment in ("affinity", "round-robin"),
                f"assignment must be 'affinity' or 'round-robin', "
                f"got {self.assignment!r}")

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
        if self.assignment == "round-robin":
            return np.arange(n_files, dtype=np.int64) % self.n_shards
        # affinity: k-th file by size -> global disk k % n_disks -> its shard
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
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        require(0 <= self.index < self.plan.n_shards,
                f"shard index out of range: {self.index}")
        require(self.chunk_size >= 1,
                f"chunk_size must be >= 1, got {self.chunk_size}")


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
    response_sum_s: tuple[float, ...]
    wait_sum_s: tuple[float, ...]
    response_count: tuple[int, ...]
    #: Fixed-bin response histogram counts (length N_RESPONSE_BINS).
    response_hist: tuple[int, ...]
    events_executed: int
    wall_clock_s: float = field(compare=False, default=0.0)
    policy_detail: dict[str, object] = field(default_factory=dict)
    #: Per-shard JSONL trace segment (``None`` when tracing was off).
    #: Events inside carry global disk/file ids and a ``shard`` tag.
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
    #: Registry snapshot at shard end (``None`` when sampling was off).
    metrics: Optional[dict[str, dict[str, object]]] = None
    #: ``(speed, phase, queue_depth)`` per local disk, frozen at the
    #: shard's end.  For shard-decomposable policies nothing moves a
    #: disk after its shard drains, so these are the values every
    #: synthesized post-end sample row reports.
    final_disk_state: tuple[tuple[str, str, int], ...] = ()


class _ShardMetrics:
    """Constant-memory response metrics for one shard's streamed dispatch.

    Replaces :class:`~repro.experiments.metrics.RequestMetrics` (which
    preallocates O(n) arrays) with per-disk float sums plus a fixed
    integer histogram, and owns the stream-aware stop condition: the
    run ends when dispatch has exhausted the stream *and* every
    dispatched request has completed.
    """

    def __init__(self, n_disks_local: int,
                 on_all_done: Callable[[], None]) -> None:
        self._resp_sum = [0.0] * n_disks_local
        self._wait_sum = [0.0] * n_disks_local
        self._count = [0] * n_disks_local
        self._hist = np.zeros(N_RESPONSE_BINS, dtype=np.int64)
        self.completed = 0
        self.dispatched = 0
        self.dispatch_done = False
        self._on_all_done = on_all_done

    def on_complete(self, job: Job) -> None:
        req = job.request
        if req is None:
            return
        disk = req.served_by
        response = req.completion_time - req.arrival_time
        self._resp_sum[disk] += response
        self._wait_sum[disk] += req.service_start - req.arrival_time
        self._count[disk] += 1
        self._hist[response_bin(response)] += 1
        self.completed += 1
        if self.dispatch_done and self.completed >= self.dispatched:
            self._on_all_done()

    @property
    def all_done(self) -> bool:
        return self.dispatch_done and self.completed >= self.dispatched

    def snapshot(self) -> tuple[tuple[float, ...], tuple[float, ...],
                                tuple[int, ...], tuple[int, ...]]:
        return (tuple(self._resp_sum), tuple(self._wait_sum),
                tuple(self._count), tuple(int(c) for c in self._hist.tolist()))


# ----------------------------------------------------------------------
# the shard worker
# ----------------------------------------------------------------------
def run_shard_cell(spec: RunSpec) -> ShardCellResult:
    """Simulate one shard of one cell over the streamed workload.

    Mirrors :func:`repro.experiments.runner.run_simulation` — same array
    construction, same arrival-chained dispatch, same shutdown sequence
    — except that (a) requests come from filtered stream chunks instead
    of a materialized trace, (b) metrics are constant-memory, and (c)
    the drives' ledgers are captured *open* instead of finalized, so the
    merge can close them at the global end time.
    """
    shard = spec.shard
    require(shard is not None, "run_shard_cell needs a spec with shard set")
    assert shard is not None  # for the type checker
    require(spec.faults is None,
            "fault injection is not supported under sharding "
            "(the failure schedule is array-global: hazard budgets, "
            "degraded-mode redirects, and rebuild traffic couple disks "
            "across shard boundaries, so no shard can reproduce its "
            "slice independently; run the cell unsharded — drop "
            "--shards — to combine --faults with this workload)")
    require(spec.redundancy is None,
            "redundancy groups are not supported under sharding "
            "(group geometry spans shard boundaries: reconstruct reads "
            "and rebuild fan-out touch disks in other shards; run the "
            "cell unsharded — drop --shards — to combine --redundancy "
            "with this workload)")
    obs = spec.obs
    require(obs is None or not obs.profile,
            "kernel profiling is not supported under sharding "
            "(profiles are per-kernel wall timings; profile the "
            "unsharded run instead)")
    plan = shard.plan
    require(spec.n_disks == plan.n_disks,
            f"spec.n_disks ({spec.n_disks}) != plan.n_disks ({plan.n_disks})")

    wall_start = perf_counter()
    stream = open_stream(spec.workload)
    fileset = stream.fileset
    shard_of = plan.shard_of_files(fileset)
    mine = shard_of == shard.index
    my_files = np.flatnonzero(mine)
    # A file-less shard can't even build its array (and policies act on
    # drives their fileset implies), so degenerate splits are rejected
    # rather than approximated.  Affinity assignment guarantees every
    # shard owns files whenever n_files >= n_disks.
    require(my_files.size > 0,
            f"shard {shard.index} owns no files "
            f"({len(fileset)} files across {plan.n_shards} shards); "
            f"use fewer shards or more files")
    # local file ids preserve global id order, so a shard-local stable
    # size sort equals the global sort restricted to this shard — the
    # keystone of the affinity assignment's unsharded-equality proof
    local_id = np.full(len(fileset), -1, dtype=np.int64)
    local_id[my_files] = np.arange(my_files.size, dtype=np.int64)
    local_fileset = FileSet(fileset.sizes_mb[my_files])

    params = spec.disk_params if spec.disk_params is not None else _default_disk_params()
    tracing_on = obs is not None and obs.trace_path is not None
    offset = plan.disk_offset(shard.index)
    sim = Simulator()
    # Telemetry attaches before the array is built (drives cache the bus
    # at construction).  The bus remaps local ids to global at emission
    # — disk-carrying fields shift by the shard's disk offset, file ids
    # go through the shard's local->global file table — and tags every
    # event with the shard index, so the segment needs no rewrite pass.
    bus: Optional[TraceBus] = None
    writer: Optional[JsonlTraceWriter] = None
    segment: Optional[str] = None
    if tracing_on:
        assert obs is not None and obs.trace_path is not None
        my_files_py = my_files.tolist()
        shift: Callable[[int], int] = lambda v, _o=offset: v + _o  # noqa: E731
        bus = TraceBus(
            tags={"shard": shard.index},
            id_maps={"disk": shift, "src": shift, "dst": shift,
                     "file": lambda v, _f=my_files_py: _f[v]})
        segment = str(shard_segment_path(obs.trace_path, shard.index))
        writer = JsonlTraceWriter(segment)
        bus.subscribe(writer)
        sim.trace = bus
    array = DiskArray(sim, params, plan.disks_per_shard, local_fileset,
                      initial_speed=spec.initial_speed,
                      queue_discipline=spec.queue_discipline)
    registry: Optional[MetricsRegistry] = None
    sampler: Optional[DiskSampler] = None
    sample_interval: Optional[float] = None
    if obs is not None and obs.wants_sampler:
        sample_interval = obs.effective_sample_interval_s
        registry = MetricsRegistry()
        sampler = DiskSampler(sim, array, sample_interval,
                              registry=registry, disk_offset=offset)
        sampler.install()
    policy = make_policy(spec.policy, **dict(spec.policy_kwargs))
    metrics = _ShardMetrics(plan.disks_per_shard, on_all_done=sim.request_stop)
    policy.bind(sim, array, local_fileset)
    policy.completion_callback = metrics.on_complete
    policy.initial_layout()

    # ---- streamed dispatch: hold one filtered chunk at a time --------
    def filtered_chunks() -> Iterator[tuple[list[float], list[int]]]:
        for chunk in stream.chunks(shard.chunk_size):
            keep = mine[chunk.file_ids]
            if not keep.any():
                continue
            yield (chunk.times_s[keep].tolist(),
                   local_id[chunk.file_ids[keep]].tolist())

    chunk_iter = filtered_chunks()
    sizes = local_fileset.sizes_mb.tolist()
    route = policy.route
    schedule_at = sim.schedule_at
    new_request = Request.from_validated
    times: list[float] = []
    ids: list[int] = []
    i = 0

    def load_next() -> bool:
        nonlocal times, ids, i
        nxt = next(chunk_iter, None)
        if nxt is None:
            return False
        times, ids = nxt
        i = 0
        return True

    def dispatch_next() -> None:
        nonlocal i
        fid = ids[i]
        metrics.dispatched += 1
        route(new_request(sim.now, fid, sizes[fid]))
        i += 1
        if i >= len(times) and not load_next():
            metrics.dispatch_done = True
            return
        schedule_at(times[i], dispatch_next, priority=-1)

    try:
        if load_next():
            schedule_at(times[0], dispatch_next, priority=-1)
            sim.run_until_drained()
            if not metrics.all_done:
                raise RuntimeError(
                    f"shard {shard.index}: event queue drained with "
                    f"{metrics.completed}/{metrics.dispatched} requests done")
        else:
            # a shard no request ever targets: its disks idle from t=0 to
            # the global end; the merge's ledger close accounts all of it
            metrics.dispatch_done = True
    except BaseException:
        # never leave a torn segment where the merge expects a whole one
        if writer is not None:
            writer.abort()
        raise

    duration = sim.now
    policy.shutdown()
    if sampler is not None:
        # stop the periodic tick; deliberately NO final sample_now():
        # the merge replays the global ticks this shard drained before
        # and closes the series at the *global* end time
        sampler.shutdown()
    if writer is not None:
        writer.close()
    # capture the ledgers OPEN (no array.finalize()): the final
    # accounting step belongs to the merge, at the global end time
    ledgers = tuple(drive.open_ledger() for drive in array.drives)
    final_state: tuple[tuple[str, str, int], ...] = ()
    if sampler is not None:
        final_state = tuple(
            (drive.speed.name.lower(), drive.phase.value, drive.queue_length)
            for drive in array.drives)
    resp_sum, wait_sum, counts, hist = metrics.snapshot()
    return ShardCellResult(
        shard_index=shard.index,
        plan=plan,
        policy_name=policy.name,
        duration_s=duration,
        n_requests=metrics.completed,
        ledgers=ledgers,
        response_sum_s=resp_sum,
        wait_sum_s=wait_sum,
        response_count=counts,
        response_hist=hist,
        events_executed=sim.events_executed,
        wall_clock_s=perf_counter() - wall_start,
        policy_detail=policy.describe(),
        trace_segment=segment,
        trace_events=writer.events_written if writer is not None else 0,
        sample_rows=sampler.series().rows if sampler is not None else (),
        sample_interval_s=sample_interval,
        metrics=registry.as_dict() if registry is not None else None,
        final_disk_state=final_state,
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
                        *, press: PRESSModel | None = None,
                        obs: Optional[ObsConfig] = None) -> SimulationResult:
    """Reduce per-shard partial results into one :class:`SimulationResult`.

    Reduction order is fixed — shards by index, disks by global id,
    power states by definition order — and every floating-point
    reduction mirrors the unsharded runner's expression shape, so the
    merged result is independent of how (and how parallel) the shards
    were executed, and equals the ``n_shards=1`` reduction of the same
    stream exactly.

    Telemetry federates here too (``obs`` names the merged artifact
    paths): per-shard trace segments k-way merge into ``obs.trace_path``
    with one synthesized global ``engine.start``/``engine.stop`` pair;
    when sampling was on, the shards' open ledgers are *replayed*
    through the global tick instants each shard drained before
    (:meth:`~repro.disk.ledger.OpenDiskLedger.advance`), synthesizing
    the sample rows the unsharded sampler would have written, and the
    registry snapshots federate typed (counters sum, gauges
    last-at-max-time, histograms bin-exact) with the sampler-owned
    entries rebuilt from the global final sample.  For
    shard-decomposable policies the merged time-series and registry
    equal the unsharded *sampled* run bit-for-bit.
    """
    require(len(results) >= 1, "need at least one shard result")
    plan = results[0].plan
    ordered = sorted(results, key=lambda r: r.shard_index)
    require(tuple(r.shard_index for r in ordered) == tuple(range(plan.n_shards)),
            f"need exactly one result per shard 0..{plan.n_shards - 1}, got "
            f"{sorted(r.shard_index for r in results)}")
    for r in ordered:
        require(r.plan == plan, "shard results were produced under different plans")
    model = press if press is not None else _default_press()

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
    federated: Optional[dict[str, dict[str, object]]] = None
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
        final_gauges: list[tuple[int, float, float, int, float]] = []
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
                final_gauges.append((g, util, c.temperature_c, queue,
                                     c.total_energy_j))
                closed.append(c)
        rows.sort(key=lambda row: (row[0], row[1]))
        merged_series = TimeSeries(interval_s=interval, rows=tuple(rows))

        snapshots = [r.metrics if r.metrics is not None else {}
                     for r in ordered]
        federated = federate_registries(
            snapshots, at=[r.duration_s for r in ordered])
        # Sampler-owned entries must reflect the *global* final sample,
        # not any shard's local last tick: rebuild them exactly as the
        # unsharded sample_now() would have written them.
        for g, util, temp, queue, energy in sorted(final_gauges):
            federated[f"disk{g}.utilization_pct"] = {"type": "gauge",
                                                     "value": util}
            federated[f"disk{g}.temperature_c"] = {"type": "gauge",
                                                   "value": temp}
            federated[f"disk{g}.queue_depth"] = {"type": "gauge",
                                                 "value": float(queue)}
            federated[f"disk{g}.energy_j"] = {"type": "gauge",
                                              "value": energy}
        federated["array.energy_j"] = {
            "type": "gauge",
            "value": float(sum(c.total_energy_j for c in closed))}
        federated["sampler.ticks"] = {"type": "counter",
                                      "value": float(len(ticks) + 1)}
        federated = {name: federated[name] for name in sorted(federated)}

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

    # ---- PRESS: same factor arithmetic as PRESSModel.factors_of
    temps = [c.mean_temperature_c() for c in closed]
    utils = [100.0 * min(c.active_time_s / duration, 1.0) for c in closed]
    freqs = [c.transitions_total * SECONDS_PER_DAY / duration for c in closed]
    afrs = model.disk_afr_batch(temps, utils, freqs)
    factors = tuple(
        DiskFactors(disk_id=i, mean_temperature_c=t, utilization_percent=u,
                    transitions_per_day=f, afr_percent=a)
        for i, (t, u, f, a) in enumerate(zip(temps, utils, freqs, afrs.tolist()))
    )
    array_afr = model.integrator.array_afr(f.afr_percent for f in factors)

    # ---- energy: per-disk state sums first (as EnergyMeter does), then
    # across disks in global order (as DiskArray.total_energy_j does)
    total_energy = sum(c.total_energy_j for c in closed)
    breakdown: dict[str, float] = {}
    for c in closed:
        for state, joules in c.breakdown().items():
            breakdown[state] = breakdown.get(state, 0.0) + joules

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
        "assignment": plan.assignment,
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
        total_energy_j=total_energy,
        array_afr_percent=array_afr,
        per_disk=factors,
        total_transitions=sum(c.transitions_total for c in closed),
        internal_jobs=sum(c.internal_jobs_served for c in closed),
        energy_breakdown_j=breakdown,
        policy_detail=detail,
        faults=None,
        events_executed=sum(r.events_executed for r in ordered),
        wall_clock_s=sum(r.wall_clock_s for r in ordered),
        timeseries=merged_series,
        metrics=federated,
    )


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def run_sharded(policy: str, workload: WorkloadLike, *,
                n_disks: int, n_shards: int,
                assignment: str = "affinity",
                chunk_size: int = DEFAULT_CHUNK_SIZE,
                policy_kwargs: Optional[Mapping[str, object]] = None,
                disk_params: Optional[TwoSpeedDiskParams] = None,
                press: Optional[PRESSModel] = None,
                initial_speed: Optional[DiskSpeed] = None,
                queue_discipline: Optional[QueueDiscipline] = None,
                jobs: int = 1,
                resilience: "Optional[ResilienceConfig]" = None,
                checkpoint: "Union[SweepCheckpoint, str, None]" = None,
                bus: "Optional[TraceBus]" = None,
                obs: Optional[ObsConfig] = None,
                ) -> tuple[SimulationResult, "Optional[ResilienceSummary]"]:
    """Run one (policy, workload) cell sharded, returning the merged result.

    Fans one :class:`RunSpec` per shard over the standard cell machinery
    — :func:`~repro.experiments.parallel.run_cells` (so ``jobs`` workers,
    checkpointing, retries/timeouts via ``resilience`` all apply
    per-shard) — and merges.  Returns ``(SimulationResult,
    ResilienceSummary | None)``; the summary is ``None`` when neither
    ``resilience`` nor ``checkpoint`` was given.

    ``obs`` rides into every shard sub-cell (per-shard trace segments,
    samplers, registries — see the module docstring) and names the
    merged artifact paths; ``bus`` is the *harness* bus, which receives
    a ``harness.shard.merge`` span when the partials are reduced.
    """
    plan = ShardPlan(n_disks=n_disks, n_shards=n_shards, assignment=assignment)
    require(obs is None or not obs.profile,
            "kernel profiling is not supported under sharding "
            "(profiles are per-kernel wall timings; profile the "
            "unsharded run instead)")
    base_kwargs: dict[str, object] = dict(policy_kwargs) if policy_kwargs else {}
    speed = initial_speed if initial_speed is not None else DiskSpeed.HIGH
    discipline = (queue_discipline if queue_discipline is not None
                  else QueueDiscipline.FCFS)
    specs = [
        RunSpec(policy=policy, n_disks=n_disks, workload=workload,
                policy_kwargs=base_kwargs, disk_params=disk_params,
                press=press, initial_speed=speed, queue_discipline=discipline,
                obs=obs, shard=ShardCellSpec(plan, s, chunk_size))
        for s in range(plan.n_shards)
    ]
    summary: "Optional[ResilienceSummary]" = None
    if resilience is not None or checkpoint is not None:
        from repro.experiments.resilience import run_cells_resilient

        raw, summary = run_cells_resilient(specs, jobs=jobs, config=resilience,
                                           checkpoint=checkpoint, bus=bus)
    else:
        raw = run_cells(specs, jobs=jobs)
    shard_results = cast("list[ShardCellResult]", raw)
    merge_start = perf_counter()
    merged = merge_shard_results(shard_results, press=press, obs=obs)
    if bus is not None:
        # outside simulated time, like every harness event: t=0.0
        bus.emit(obs_events.HARNESS_SHARD_MERGE, 0.0,
                 policy=merged.policy_name, n_disks=n_disks, shards=n_shards,
                 wall_s=perf_counter() - merge_start)
    return merged, summary
