"""The trace-driven simulation runner (the paper's Sec. 5.1 methodology).

One call to :func:`run_simulation` evaluates one (policy, array size)
cell: it builds a fresh kernel + array, lets the policy lay data out,
streams the trace's arrivals through the policy's router, runs until the
last user request completes, then freezes metrics, energy, and the PRESS
reliability assessment into a :class:`SimulationResult`.

Arrivals are streamed (each arrival event schedules the next) rather
than pre-loaded, so multi-million-request traces don't balloon the event
heap.  End-of-run semantics: the measured horizon is the completion time
of the last user request; the policy is then shut down (periodic tasks
and timers cancelled) and any still-queued *internal* work is abandoned
— its already-elapsed disk time is accounted, matching how the paper's
"process of serving the entire request set" frames energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from time import perf_counter
from typing import Callable

from repro.core.extensions import (
    ReplicatingREADConfig,
    ReplicatingREADPolicy,
    RotatingREADConfig,
    RotatingREADPolicy,
)
from repro.core.read_strategy import READConfig, READPolicy
from repro.disk.array import DiskArray
from repro.disk.drive import QueueDiscipline
from repro.disk.parameters import DiskSpeed, TwoSpeedDiskParams, cheetah_two_speed
from repro.experiments.metrics import RequestMetrics, SimulationResult
from repro.faults import FaultConfig, FaultInjector
from repro.obs import (
    DiskSampler,
    JsonlTraceWriter,
    KernelProfiler,
    MetricsRegistry,
    ObsConfig,
    TraceBus,
    write_timeseries,
)
from repro.obs import events as obs_events
from repro.policies.base import Policy
from repro.policies.maid import MAIDConfig, MAIDPolicy
from repro.policies.drpm import DRPMConfig, DRPMPolicy
from repro.policies.hibernator import HibernatorConfig, HibernatorPolicy
from repro.policies.pdc import PDCConfig, PDCPolicy
from repro.policies.static import StaticHighPolicy, StaticLowPolicy
from repro.policies.striped import StripedPolicyConfig, StripedStaticPolicy
from repro.press.model import PRESSModel
from repro.redundancy.ctmc import CtmcResult, assess_scheme
from repro.redundancy.groups import RedundancyGroups
from repro.redundancy.metrics import RedundancySummary, RedundancyTracker
from repro.redundancy.scheme import GroupScheme
from repro.sim.engine import Simulator
from repro.util.validation import require
from repro.workload.files import FileSet
from repro.workload.request import Request
from repro.workload.cache import cached_generate
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


def run_simulation(policy: Policy, fileset: FileSet, trace: Trace, *,
                   n_disks: int, disk_params: TwoSpeedDiskParams | None = None,
                   press: PRESSModel | None = None,
                   initial_speed: DiskSpeed = DiskSpeed.HIGH,
                   queue_discipline: QueueDiscipline = QueueDiscipline.FCFS,
                   faults: FaultConfig | None = None,
                   obs: ObsConfig | None = None,
                   redundancy: GroupScheme | None = None) -> SimulationResult:
    """Run one policy over one trace on an ``n_disks`` array.

    The same (fileset, trace) pair should be passed to every competing
    policy — that is the paper's fairness protocol (Sec. 3.5: "all
    algorithms are evaluated ... under the same conditions").

    ``faults`` enables in-simulation fault injection (see
    :mod:`repro.faults`); ``None`` keeps the fault-free fast path, whose
    results are bit-identical to runs predating the fault subsystem.

    ``obs`` enables the telemetry layer (see :mod:`repro.obs`): event
    tracing to JSONL, periodic per-disk sampling, and kernel profiling.
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

    sim = Simulator()
    # Telemetry attaches before anything observes sim.trace: drives cache
    # the bus at construction, policies at bind, the injector at init.
    bus: TraceBus | None = None
    writer: JsonlTraceWriter | None = None
    profiler: KernelProfiler | None = None
    if obs is not None:
        if obs.trace_path is not None:
            bus = TraceBus()
            writer = JsonlTraceWriter(obs.trace_path)
            bus.subscribe(writer)
            sim.trace = bus
        if obs.profile:
            profiler = KernelProfiler()
            sim.set_profiler(profiler)
    array = DiskArray(sim, params, n_disks, fileset, initial_speed=initial_speed,
                      queue_discipline=queue_discipline)
    registry: MetricsRegistry | None = None
    sampler: DiskSampler | None = None
    if obs is not None and obs.wants_sampler:
        registry = MetricsRegistry()
        sampler = DiskSampler(sim, array, obs.effective_sample_interval_s,
                              registry=registry)
        sampler.install()
    metrics = RequestMetrics(expected=len(trace), on_all_done=sim.request_stop)

    policy.bind(sim, array, fileset)
    injector: FaultInjector | None = None
    if faults is None:
        policy.completion_callback = metrics.on_complete
    else:
        injector = FaultInjector(sim, array, policy, model, faults,
                                 on_success=metrics.on_complete,
                                 on_permanent_failure=metrics.on_failed,
                                 redundancy=groups)
        injector.install()
        policy.completion_callback = injector.on_user_job_complete
    policy.initial_layout()

    # Pre-convert the numpy columns to plain Python lists once: the
    # dispatch callback runs for every arrival, and list indexing returns
    # ready-made floats/ints instead of numpy scalars needing coercion.
    times = trace.times_s.tolist()
    ids = trace.file_ids.tolist()
    sizes = fileset.sizes_mb.tolist()
    n = len(trace)
    i = 0

    route = policy.route
    schedule_at = sim.schedule_at
    new_request = Request.from_validated

    def dispatch_next() -> None:
        nonlocal i
        fid = ids[i]
        route(new_request(sim.now, fid, sizes[fid]))
        i += 1
        if i < n:
            schedule_at(times[i], dispatch_next, priority=-1)

    schedule_at(times[0], dispatch_next, priority=-1)

    if bus is not None:
        bus.emit(obs_events.ENGINE_START, sim.now, policy=policy.name,
                 n_disks=n_disks, n_requests=n)

    # Run until every user request has completed: the metrics object
    # stops the kernel from inside the last completion callback.
    # Policies' periodic tasks keep the queue non-empty, so completion —
    # not queue exhaustion — is the intended stop condition.
    wall_start = perf_counter()
    try:
        sim.run_until_drained()
        if not metrics.all_done:
            raise RuntimeError(
                f"event queue drained with {metrics.completed}/{n} requests done"
            )
    except BaseException:
        # a dying run must not leave a half-written trace where a whole
        # one is expected: set it aside as <path>.partial
        if writer is not None:
            writer.abort()
        raise
    wall_clock_s = perf_counter() - wall_start

    duration = sim.now
    if injector is not None:
        injector.shutdown()
    policy.shutdown()
    array.finalize()

    timeseries = None
    metrics_snapshot: dict[str, dict[str, object]] | None = None
    if sampler is not None:
        sampler.sample_now()  # close the series with the final state
        sampler.shutdown()
        timeseries = sampler.series()
        if obs is not None and obs.metrics_path is not None:
            write_timeseries(timeseries, obs.metrics_path)
    if registry is not None:
        metrics_snapshot = registry.as_dict()
    if bus is not None:
        bus.emit(obs_events.ENGINE_STOP, duration,
                 events=sim.events_executed, duration_s=duration)
    if writer is not None:
        writer.close()
    profile = profiler.summary(wall_clock_s=wall_clock_s) if profiler is not None else None

    afr, factors = model.evaluate_array(array, duration)

    redundancy_summary: RedundancySummary | None = None
    if scheme is not None and groups is not None:
        measured_s = (injector.rtracker.mean_rebuild_s()
                      if injector is not None and injector.rtracker is not None
                      else None)
        if measured_s is not None:
            rebuild_hours = max(measured_s / 3600.0, 1e-3)
        else:
            # no rebuild completed (or faults off): estimate operator
            # delay + a full-capacity copy stream at high speed
            delay_s = (faults.repair_delay_s if faults is not None
                       else FaultConfig().repair_delay_s)
            used = max((float(m) for m in array.used_mb), default=0.0)
            transfer = params.mode(DiskSpeed.HIGH).transfer_mb_s
            rebuild_hours = max((delay_s + used / transfer) / 3600.0, 1e-3)
        ctmc: CtmcResult | None = assess_scheme(
            scheme, [f.afr_percent for f in factors],
            rebuild_hours=rebuild_hours)
        if injector is not None:
            redundancy_summary = injector.redundancy_summary(ctmc)
        else:
            redundancy_summary = RedundancyTracker().summarize(
                scheme=scheme.name, n_groups=groups.n_groups,
                final_states=("healthy",) * groups.n_groups, ctmc=ctmc)

    breakdown: dict[str, float] = {}
    for drive in array.drives:
        for state, joules in drive.energy.breakdown().items():
            breakdown[state] = breakdown.get(state, 0.0) + joules

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
        total_energy_j=array.total_energy_j(),
        array_afr_percent=afr,
        per_disk=tuple(factors),
        total_transitions=sum(d.stats.speed_transitions_total for d in array.drives),
        internal_jobs=sum(d.stats.internal_jobs_served for d in array.drives),
        energy_breakdown_j=breakdown,
        policy_detail=policy.describe(),
        faults=(None if injector is None else
                injector.tracker.summarize(n_disks=n_disks, duration_s=duration)),
        events_executed=sim.events_executed,
        wall_clock_s=wall_clock_s,
        timeseries=timeseries,
        profile=profile,
        metrics=metrics_snapshot,
        redundancy=redundancy_summary,
    )
