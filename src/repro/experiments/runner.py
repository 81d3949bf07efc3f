"""The trace-driven simulation runner (the paper's Sec. 5.1 methodology).

One call to :func:`run_simulation` evaluates one (policy, array size)
cell: it builds a fresh kernel + array, lets the policy lay data out,
streams the trace's arrivals through the policy's router, runs until the
last user request completes, then freezes metrics, energy, and the PRESS
reliability assessment into a :class:`SimulationResult`.

Arrivals are streamed (each arrival hands the kernel's arrival slot the
next) rather than pre-loaded, and become Python values one bounded slice
at a time, so multi-million-request traces balloon neither the event
heap nor the dispatcher.  End-of-run semantics: the measured horizon is
the completion time of the last user request; the policy is then shut
down (periodic tasks and timers cancelled) and any still-queued
*internal* work is abandoned — its already-elapsed disk time is
accounted, matching how the paper's "process of serving the entire
request set" frames energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from time import perf_counter
from typing import Any, Callable, Container, Iterable, Mapping, Protocol, Sequence, TypeVar, cast

import numpy as np

from repro.core.extensions import (
    ReplicatingREADConfig,
    ReplicatingREADPolicy,
    RotatingREADConfig,
    RotatingREADPolicy,
)
from repro.core.read_strategy import READConfig, READPolicy
from repro.disk.array import DiskArray
from repro.disk.drive import Job
from repro.disk.ledger import ClosedDiskLedger
from repro.disk.parameters import DiskSpeed, TwoSpeedDiskParams, cheetah_two_speed
from repro.experiments.metrics import RequestMetrics, SimulationResult
from repro.faults import FaultConfig, FaultInjector
from repro.obs import DiskSampler, JsonlTraceWriter, ObsConfig, write_timeseries
from repro.obs import events as obs_events
from repro.policies.base import Policy
from repro.policies.maid import MAIDConfig, MAIDPolicy
from repro.policies.drpm import DRPMConfig, DRPMPolicy
from repro.policies.hibernator import HibernatorConfig, HibernatorPolicy
from repro.policies.pdc import PDCConfig, PDCPolicy
from repro.policies.static import StaticHighPolicy, StaticLowPolicy
from repro.policies.striped import StripedPolicyConfig, StripedStaticPolicy
from repro.press.model import DiskFactors, PRESSModel
from repro.redundancy.ctmc import CtmcResult, assess_scheme
from repro.redundancy.groups import RedundancyGroups
from repro.redundancy.metrics import RedundancySummary, RedundancyTracker
from repro.redundancy.scheme import GroupScheme
from repro.sim.engine import Simulator
from repro.util.validation import require
from repro.workload.files import FileSet
from repro.workload.request import Request
from repro.workload.cache import cached_generate
from repro.workload.stream import Chunk
from repro.workload.synthetic import SyntheticWorkloadConfig
from repro.workload.trace import Trace

__all__ = ["ExperimentConfig", "make_policy", "run_simulation"]


@lru_cache(maxsize=1)
def _default_disk_params() -> TwoSpeedDiskParams:
    """Shared default device model (immutable, so one instance is safe)."""
    return cheetah_two_speed()


@lru_cache(maxsize=1)
def _default_press() -> PRESSModel:
    """Shared default PRESS model (stateless between evaluations)."""
    return PRESSModel()

PolicyFactory = Callable[[], Policy]

_POLICY_REGISTRY: dict[str, PolicyFactory] = {
    "read": READPolicy,
    "read-rotate": RotatingREADPolicy,
    "read-replicate": ReplicatingREADPolicy,
    "maid": MAIDPolicy,
    "pdc": PDCPolicy,
    "drpm": DRPMPolicy,
    "hibernator": HibernatorPolicy,
    "static-high": StaticHighPolicy,
    "static-low": StaticLowPolicy,
    "striped-static": StripedStaticPolicy,
}


def make_policy(name: str, **config_kwargs) -> Policy:
    """Instantiate a policy by registry name.

    Keyword arguments are forwarded into the policy's config dataclass
    (``READConfig``/``MAIDConfig``/``PDCConfig``); the static baselines
    accept none.
    """
    require(name in _POLICY_REGISTRY,
            f"unknown policy {name!r}; known: {sorted(_POLICY_REGISTRY)}")
    if not config_kwargs:
        return _POLICY_REGISTRY[name]()
    if name == "read":
        return READPolicy(READConfig(**config_kwargs))
    if name == "read-rotate":
        return RotatingREADPolicy(RotatingREADConfig(**config_kwargs))
    if name == "read-replicate":
        return ReplicatingREADPolicy(ReplicatingREADConfig(**config_kwargs))
    if name == "maid":
        return MAIDPolicy(MAIDConfig(**config_kwargs))
    if name == "pdc":
        return PDCPolicy(PDCConfig(**config_kwargs))
    if name == "drpm":
        return DRPMPolicy(DRPMConfig(**config_kwargs))
    if name == "hibernator":
        return HibernatorPolicy(HibernatorConfig(**config_kwargs))
    if name == "striped-static":
        return StripedStaticPolicy(StripedPolicyConfig(**config_kwargs))
    raise ValueError(f"policy {name!r} takes no configuration")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """A reusable bundle: workload + device + model for a family of runs."""

    workload: SyntheticWorkloadConfig = field(default_factory=SyntheticWorkloadConfig)
    disk_params: TwoSpeedDiskParams = field(default_factory=cheetah_two_speed)

    def with_heavy_load(self, compression: float = 8.0) -> "ExperimentConfig":
        """The paper's heavy condition: same stream, time-compressed."""
        return replace(self, workload=self.workload.heavy(compression))

    def generate(self) -> tuple[FileSet, Trace]:
        """Materialize the (deterministic) workload.

        Served through the process-wide content-keyed cache, so repeated
        sweeps over the same config share one materialization.
        """
        return cached_generate(self.workload)


#: Trace rows the dispatcher converts to Python lists at a time: about
#: 0.3 MB of lists, so a cell's replay memory does not grow with its
#: trace.  Slicing never changes an arrival, so this is not a knob.
_REPLAY_ROWS = 4096


class _Tally(Protocol):
    """What the cell executor needs of a cell's response metrics."""

    @property
    def completed(self) -> int: ...

    @property
    def all_done(self) -> bool: ...

    def on_complete(self, job: Job) -> None: ...

    def close_dispatch(self, dispatched: int) -> None: ...


_T = TypeVar("_T", bound=_Tally)


@dataclass(slots=True)
class _Cell:
    """A drained and shut-down cell, handed to its caller's finalize."""

    sim: Simulator
    array: DiskArray
    injector: FaultInjector | None
    sampler: DiskSampler | None
    #: The trace sink producers emit to (``sim.trace``), or ``None``.
    writer: JsonlTraceWriter | None
    #: Wall-clock seconds of the drain alone.
    wall_clock_s: float


def _execute_cell(policy: Policy, fileset: FileSet, chunks: Iterable[Chunk],
                  make_tally: Callable[[Callable[[], None]], _T], *,
                  n_disks: int, params: TwoSpeedDiskParams,
                  obs: ObsConfig | None,
                  faults: FaultConfig | None = None,
                  press: PRESSModel | None = None,
                  groups: RedundancyGroups | None = None,
                  disk_offset: int = 0,
                  file_table: Sequence[int] | None = None,
                  engine_start: Mapping[str, object] | None = None,
                  ) -> tuple[_Cell, _T]:
    """Build one cell, dispatch its arrivals, drain it and shut it down.

    The one place a cell's kernel, array, telemetry and policy are wired
    together: :func:`run_simulation` feeds it the whole trace as one
    chunk, and :func:`~repro.experiments.shard.run_shard_cell` feeds it
    one shard's filtered stream chunks.  ``chunks`` yields ``(times,
    ids)`` numpy array pairs in arrival order.  This is the one place
    trace rows become Python lists, ``_REPLAY_ROWS`` rows at a time, so
    the dispatcher holds one bounded slice whatever the trace's length.
    What still grows with the trace is the caller's: its arrays (16 B
    per request) and, unsharded, the response times the tally keeps.

    ``make_tally`` builds the response metrics from the kernel's stop
    function.  They own the stop condition, and hear the dispatched
    total through ``close_dispatch`` once ``chunks`` is exhausted.
    A shard passes its ``disk_offset`` (for the sampler and the trace)
    and its local->global ``file_table`` (for the trace), so it speaks
    global ids.
    ``engine_start`` is the payload of the ``engine.start`` event a
    whole-array trace opens with; the shard merge synthesizes its own.

    Finalizing is the caller's: ledgers are left where the drain left
    them, the sampler is stopped without a closing sample, and the trace
    writer is still open.  A failed drain aborts the writer instead.
    """
    sim = Simulator()
    # Telemetry attaches before anything observes sim.trace: drives cache
    # the sink at construction, policies at bind, the injector at init.
    writer: JsonlTraceWriter | None = None
    if obs is not None and obs.trace_path is not None:
        writer = JsonlTraceWriter(
            obs.trace_path,
            remap=None if file_table is None else (disk_offset, file_table))
        sim.trace = writer
    array = DiskArray(sim, params, n_disks, fileset)
    sampler: DiskSampler | None = None
    if obs is not None and obs.wants_sampler:
        sampler = DiskSampler(sim, array, obs.effective_sample_interval_s,
                              disk_offset=disk_offset)
        sampler.install()
    tally = make_tally(sim.request_stop)

    policy.bind(sim, array, fileset)
    injector: FaultInjector | None = None
    if faults is None:
        policy.completion_callback = tally.on_complete
    else:
        injector = FaultInjector(sim, array, policy,
                                 press if press is not None else _default_press(),
                                 faults, on_success=tally.on_complete,
                                 on_permanent_failure=cast(RequestMetrics, tally).on_failed,
                                 redundancy=groups)
        injector.install()
        policy.completion_callback = injector.on_user_job_complete
    policy.initial_layout()

    # Arrivals are chained (each dispatch hands the kernel's arrival slot
    # the next) over one slice of plain lists at a time: list indexing
    # returns ready-made floats/ints instead of numpy scalars needing
    # coercion.  Requests are counted per slice, never per request.
    sizes = fileset.sizes_mb.tolist()
    rows = _REPLAY_ROWS
    pending = iter(chunks)
    chunk_times = chunk_ids = np.empty(0)
    times: list[float] = []
    ids: list[int] = []
    start = i = n = dispatched = 0

    def load_next() -> bool:
        nonlocal chunk_times, chunk_ids, times, ids, start, i, n, dispatched
        while start >= len(chunk_times):  # also skips empty chunks
            chunk = next(pending, None)
            if chunk is None:
                # the last arrival is handed over: drop the last slice
                chunk_times = chunk_ids = np.empty(0)
                times, ids = [], []
                tally.close_dispatch(dispatched)
                return False
            (chunk_times, chunk_ids), start = chunk, 0
        stop = start + rows
        times = chunk_times[start:stop].tolist()
        ids = chunk_ids[start:stop].tolist()
        start = stop
        i, n = 0, len(times)
        dispatched += n
        return True

    route = policy.route
    set_arrival = sim.set_arrival
    new_request = Request.from_validated

    def dispatch_next() -> None:
        nonlocal i
        fid = ids[i]
        route(new_request(sim.now, fid, sizes[fid]))
        i += 1
        if i < n or load_next():
            set_arrival(times[i], dispatch_next)

    if writer is not None and engine_start is not None:
        writer.emit(obs_events.ENGINE_START, sim.now, **engine_start)

    # Run until every request has completed: the tally stops the kernel
    # from inside the last completion callback.  Policies' periodic tasks
    # keep the queue non-empty, so completion — not queue exhaustion — is
    # the intended stop condition.  A cell no request reaches (a shard
    # whose files are never read) does not run at all.
    wall_clock_s = 0.0
    try:
        if load_next():
            set_arrival(times[0], dispatch_next)
            wall_start = perf_counter()
            sim.run_until_drained()
            wall_clock_s = perf_counter() - wall_start
        if not tally.all_done:
            raise RuntimeError(f"event queue drained with "
                               f"{tally.completed}/{dispatched} requests done")
    except BaseException:
        # a dying run must not leave a half-written trace where a whole
        # one is expected: set it aside as <path>.partial
        if writer is not None:
            writer.abort()
        raise

    if injector is not None:
        injector.shutdown()
    policy.shutdown()
    if sampler is not None:
        sampler.shutdown()
    return _Cell(sim=sim, array=array, injector=injector, sampler=sampler,
                 writer=writer, wall_clock_s=wall_clock_s), tally


def run_simulation(policy: Policy, fileset: FileSet, trace: Trace, *,
                   n_disks: int, disk_params: TwoSpeedDiskParams | None = None,
                   press: PRESSModel | None = None,
                   faults: FaultConfig | None = None,
                   obs: ObsConfig | None = None,
                   redundancy: GroupScheme | None = None) -> SimulationResult:
    """Run one policy over one trace on an ``n_disks`` array.

    The same (fileset, trace) pair should be passed to every competing
    policy — that is the paper's fairness protocol (Sec. 3.5: "all
    algorithms are evaluated ... under the same conditions").  Every
    drive boots at high speed and serves its queue first-come
    first-served (Sec. 5.1).  ``press`` is the reliability model that
    scores the run and, with faults on, sets the injector's hazard
    (``None`` = the paper's calibration).

    ``faults`` enables in-simulation fault injection (see
    :mod:`repro.faults`); ``None`` keeps the fault-free fast path, whose
    results are bit-identical to runs predating the fault subsystem.

    ``obs`` enables the telemetry layer (see :mod:`repro.obs`): event
    tracing to JSONL and periodic per-disk sampling.
    ``None`` (and the all-off ``ObsConfig()``) attach nothing, keeping
    the hot path and the results bit-identical to an untraced run.

    ``redundancy`` attaches a :class:`~repro.redundancy.scheme.GroupScheme`
    layout (``n_disks`` must be a multiple of its group size).  With
    faults on, the group geometry drives degraded reads, the data-loss
    census, rebuild fan-out, and (when ``domain_outage_per_year`` is
    set) correlated domain failures; with faults off the run itself is
    untouched and only the CTMC reliability assessment is computed from
    the run's PRESS factors.  ``None`` and the ``"none"`` scheme keep
    every path bit-identical to a redundancy-free run.
    """
    require(len(trace) >= 1, "trace must contain at least one request")
    params = disk_params if disk_params is not None else _default_disk_params()
    model = press if press is not None else _default_press()
    scheme = (None if redundancy is None or not redundancy.is_redundant
              else redundancy)
    groups = (None if scheme is None
              else RedundancyGroups(scheme, n_disks))
    n = len(trace)

    cell, metrics = _execute_cell(
        policy, fileset, [(trace.times_s, trace.file_ids)],
        lambda stop: RequestMetrics(expected=n, on_all_done=stop),
        n_disks=n_disks, params=params, obs=obs, faults=faults,
        press=model, groups=groups,
        engine_start={"policy": policy.name, "n_disks": n_disks,
                      "n_requests": n})
    sim, array, injector = cell.sim, cell.array, cell.injector
    duration = sim.now
    array.finalize()

    timeseries = None
    if cell.sampler is not None:
        cell.sampler.sample_now()  # close the series with the final state
        timeseries = cell.sampler.series()
        if obs is not None and obs.metrics_path is not None:
            write_timeseries(timeseries, obs.metrics_path)
    if cell.writer is not None:
        cell.writer.emit(obs_events.ENGINE_STOP, duration,
                         events=sim.events_executed, duration_s=duration)
        cell.writer.close()

    totals = _reduce_ledgers(
        [d.open_ledger().close(duration) for d in array.drives],
        horizon_s=duration, press=model,
        failed_disks=(() if injector is None else
                      {d for d, _ in injector.tracker.failure_schedule}))

    # under heavy fault injection every request can fail; response-time
    # stats are then undefined rather than an error
    no_served = metrics.completed == 0

    return SimulationResult(
        policy_name=policy.name,
        n_disks=n_disks,
        n_requests=n,
        duration_s=duration,
        mean_response_s=float("nan") if no_served else metrics.mean_response_s(),
        p95_response_s=float("nan") if no_served else metrics.percentile_response_s(95.0),
        p99_response_s=float("nan") if no_served else metrics.percentile_response_s(99.0),
        **totals,
        policy_detail=policy.describe(),
        faults=(None if injector is None else
                injector.tracker.summarize(n_disks=n_disks, duration_s=duration)),
        events_executed=sim.events_executed,
        wall_clock_s=cell.wall_clock_s,
        timeseries=timeseries,
        redundancy=_assess_redundancy(scheme, totals["per_disk"], used_mb=array.used_mb,
                                      params=params, faults=faults,
                                      injector=injector),
    )


def _reduce_ledgers(ledgers: Sequence[ClosedDiskLedger], *, horizon_s: float,
                    press: PRESSModel, failed_disks: Container[int] = (),
                    ) -> dict[str, Any]:
    """Score and total a cell's closed ledgers, then check conservation.

    The ledger half of both finalizes: :func:`run_simulation` closes its
    drives' ledgers at the horizon, the shard merge closes the shards'
    open ledgers at the global end.  ``ledgers`` are in global disk
    order, keyed by position (a shard's ledgers carry shard-local ids).
    Energy sums states first, in definition order, then disks.  Returns
    the :class:`SimulationResult` fields the ledgers determine.
    """
    afr, factors = press.evaluate_array(ledgers, horizon_s)
    total_energy = sum(c.total_energy_j for c in ledgers)
    breakdown: dict[str, float] = {}
    for c in ledgers:
        for state, joules in c.breakdown().items():
            breakdown[state] = breakdown.get(state, 0.0) + joules
    _check_finalize_invariants(
        ledgers, horizon_s=horizon_s, total_energy_j=total_energy,
        array_afr_percent=afr, factors=factors, failed_disks=failed_disks)
    return {"per_disk": tuple(factors), "array_afr_percent": afr,
            "total_energy_j": total_energy, "energy_breakdown_j": breakdown,
            "total_transitions": sum(c.transitions_total for c in ledgers),
            "internal_jobs": sum(c.internal_jobs_served for c in ledgers)}


#: Relative tolerance of a never-failed disk's state-time sum against the
#: horizon.  The worst drift measured over six policies and a faulted
#: ``block4-2`` cell is about 2e-16.
STATE_TIME_RTOL = 1e-9


def _check_finalize_invariants(
        ledgers: Sequence[ClosedDiskLedger], *,
        horizon_s: float, total_energy_j: float, array_afr_percent: float,
        factors: Sequence[DiskFactors], failed_disks: Container[int] = (),
) -> None:
    """Raise ``RuntimeError`` if a finalized cell breaks a conservation law.

    ``ledgers`` are in global disk order; a disk is named by its
    position.  Every energy and AFR must be finite and non-negative, and
    the state-times of a disk that never failed must sum to ``horizon_s``
    within :data:`STATE_TIME_RTOL`.  A failed disk spends its downtime in
    no power state, so it is exempt from the time check.  O(disks);
    reads the result, never changes it.
    """
    def bad(value: float) -> bool:
        return not 0.0 <= value < math.inf  # NaN fails too

    for disk_id, c in enumerate(ledgers):
        if any(bad(j) for j in c.energy_j):
            raise RuntimeError(f"disk {disk_id}: state energies {list(c.energy_j)} J "
                               f"are not all finite and >= 0")
        if disk_id in failed_disks:
            continue
        total_s = sum(c.time_s)
        if not abs(total_s - horizon_s) <= STATE_TIME_RTOL * horizon_s:
            raise RuntimeError(f"disk {disk_id}: state-times {list(c.time_s)} s sum to "
                               f"{total_s!r} s, not the horizon {horizon_s!r} s")
    for f in factors:
        if bad(f.afr_percent):
            raise RuntimeError(f"disk {f.disk_id}: AFR {f.afr_percent!r}% is not "
                               f"finite and >= 0")
    if bad(total_energy_j):
        raise RuntimeError(f"array total energy {total_energy_j!r} J is not finite and >= 0")
    if bad(array_afr_percent):
        raise RuntimeError(f"array AFR {array_afr_percent!r}% is not finite and >= 0")


def _assess_redundancy(scheme: GroupScheme | None,
                       factors: Sequence[DiskFactors], *,
                       used_mb: Iterable[float], params: TwoSpeedDiskParams,
                       faults: FaultConfig | None = None,
                       injector: FaultInjector | None = None,
                       ) -> RedundancySummary | None:
    """Price a redundancy layout with the CTMC over a run's PRESS factors.

    ``None`` without a redundant scheme.  The rebuild time is the run's
    measured mean rebuild when one completed; otherwise (no rebuild, or
    faults off) it is estimated as the operator delay plus a copy of the
    fullest disk (``used_mb``) at high speed.  The whole-array finalize
    and the shard merge both call this, with the same factors and
    capacities, so a sharded cell is priced exactly like an unsharded one.
    """
    if scheme is None or not scheme.is_redundant:
        return None
    measured_s = (injector.rtracker.mean_rebuild_s()
                  if injector is not None and injector.rtracker is not None
                  else None)
    if measured_s is not None:
        rebuild_hours = max(measured_s / 3600.0, 1e-3)
    else:
        delay_s = (faults if faults is not None else FaultConfig()).repair_delay_s
        used = max((float(m) for m in used_mb), default=0.0)
        transfer = params.mode(DiskSpeed.HIGH).transfer_mb_s
        rebuild_hours = max((delay_s + used / transfer) / 3600.0, 1e-3)
    ctmc: CtmcResult = assess_scheme(
        scheme, [f.afr_percent for f in factors], rebuild_hours=rebuild_hours)
    if injector is not None:
        return injector.redundancy_summary(ctmc)
    n_groups = len(factors) // scheme.group_size
    return RedundancyTracker().summarize(
        scheme=scheme.name, n_groups=n_groups,
        final_states=("healthy",) * n_groups, ctmc=ctmc)
