"""The in-simulation fault injector.

Hazard sampling
---------------
Each disk d gets an exponential *failure budget* ``u_d ~ Exp(1)`` drawn
once up front from a per-disk deterministic stream (and re-drawn for the
replacement spindle after each rebuild).  Every ``hazard_refresh_s`` the
injector re-scores the PRESS factors of every up disk with no failure
pending, in one batched :meth:`~repro.press.model.PRESSModel.evaluate_array`
call — mean temperature, utilization, and transition frequency all
evolve with the workload — and converts each resulting AFR into an
instantaneous failure rate via
:func:`repro.press.hazard.annual_failure_rate_to_rate`, scaled
by the acceleration factor.  The rate is held over the next refresh
period and the integrated hazard ``Lambda_d`` accumulates; when
``Lambda_d + rate * period`` would cross ``u_d`` the failure is
scheduled inside that period at the linearly interpolated instant.  This
is the standard time-rescaling construction of an inhomogeneous Poisson
first arrival, discretized at the refresh period; it is deterministic
given (seed, trace, policy) because the only random draws are the
budgets.

Lifecycle
---------
``UP -> (failure) -> FAILED -> (repair_delay_s) -> REBUILDING -> UP``.
A failure drops the disk's in-flight and queued jobs (their owners'
``on_complete`` callbacks fire with ``job.failed`` set); after the
operator delay a fresh spindle is installed and a single internal job
sized at the disk's used capacity models the rebuild stream — new
requests for that disk queue behind it, which is exactly the
rebuild-storm interference the scenario exists to expose.  Hazard
accumulation is suspended from failure until the rebuild completes.

Degraded-mode serving
---------------------
With an injector installed, every user submit is mediated by
:meth:`FaultInjector.submit_user_request`: requests whose target is down
are redirected to a live alternate copy when the policy has one
(:meth:`repro.policies.base.Policy.alternate_targets`), otherwise they
fail fast and re-enter through the retry path (bounded by
``max_retries`` / ``retry_timeout_s``) so a disk coming back mid-run can
still serve them.

Redundancy groups
-----------------
When a :class:`~repro.redundancy.groups.RedundancyGroups` layout is
attached, the group geometry supersedes the policy's copy metadata on
the whole fault path:

* *Serving*: a request whose target is down reconstructs from the
  group — a mirror read redirects to a live copy, a parity read fans
  ``k`` shard-sized internal legs across survivors and completes on the
  last leg (striped-style fan-in).  A request is unservable only when
  the group has fewer than ``k`` survivors.
* *Census*: the data-loss census at failure time asks the group (any
  ``k`` survivors?) instead of the policy's alternates.
* *Rebuild*: the restoration stream is pipelined — shard/copy read legs
  are fanned across the surviving sources *concurrently* with the
  replacement's write stream (the real rebuild storm: survivors serve
  user traffic and rebuild reads at once).  A lost group falls back to
  the legacy single write stream (a cold restore from external backup).
* *Correlated failures*: ``domain_outage_per_year > 0`` adds per-domain
  outage sampling (constant-rate exponential budgets from the same
  seeded stream family) that fails every up disk of one fault domain at
  the same instant.
* *Health*: every topology change reclassifies the affected group
  (healthy/degraded/critical/lost).  Health uses the injector's
  *lifecycle* view (a disk counts down until its rebuild completes),
  while serving uses the drive view (a REBUILDING disk queues requests
  behind the rebuild stream) — the former describes redundancy slack,
  the latter availability.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.disk.array import DiskArray
from repro.disk.drive import Job
from repro.faults.config import FaultConfig
from repro.faults.metrics import FaultTracker
from repro.obs import events as ev
from repro.policies.base import Policy
from repro.press.hazard import annual_failure_rate_to_rate
from repro.press.model import PRESSModel
from repro.redundancy.ctmc import CtmcResult
from repro.redundancy.groups import GroupHealth, RedundancyGroups
from repro.redundancy.metrics import RedundancySummary, RedundancyTracker
from repro.sim.engine import EventHandle, Simulator
from repro.sim.timers import PeriodicTask
from repro.util.rngtools import fixed_seed_sequence
from repro.util.units import SECONDS_PER_YEAR
from repro.workload.request import Request

__all__ = ["DiskLifecycle", "FaultInjector"]


class DiskLifecycle(enum.Enum):
    """Injector-side view of one disk's fault state."""

    UP = "up"
    FAILED = "failed"
    REBUILDING = "rebuilding"


class FaultInjector:
    """Samples disk failures from the PRESS hazard and mediates serving.

    Event priorities: domain outages (18) and failures (20) fire before
    rebuild starts (22), retries (25), and the hazard refresh (30), so a
    failure scheduled at the exact refresh instant is applied before the
    next hazard scoring, and all of them fire after same-time job
    completions (priority 0).
    """

    _PRIO_DOMAIN = 18
    _PRIO_FAIL = 20
    _PRIO_REBUILD = 22
    _PRIO_RETRY = 25
    _PRIO_REFRESH = 30

    def __init__(self, sim: Simulator, array: DiskArray, policy: Policy,
                 press: PRESSModel, config: FaultConfig, *,
                 on_success: Callable[[Job], None],
                 on_permanent_failure: Callable[[Job], None],
                 redundancy: Optional[RedundancyGroups] = None) -> None:
        self._sim = sim
        self._trace = sim.trace
        self._array = array
        self._policy = policy
        self._press = press
        self.config = config
        self._on_success = on_success
        self._on_permanent_failure = on_permanent_failure
        self.tracker = FaultTracker()
        self._groups = redundancy
        self.rtracker: Optional[RedundancyTracker] = None
        self._group_health: list[GroupHealth] = []
        if redundancy is not None:
            self.rtracker = RedundancyTracker()
            self._group_health = [GroupHealth.HEALTHY] * redundancy.n_groups

        n = array.n_disks
        streams = fixed_seed_sequence(config.seed,
                                      [f"disk-{d}" for d in range(n)])
        self._rngs = [streams[f"disk-{d}"] for d in range(n)]
        #: exponential failure budget per disk (re-drawn after rebuild)
        self._budget = [float(rng.exponential()) for rng in self._rngs]
        #: integrated hazard accumulated toward the budget
        self._hazard = [0.0] * n
        self._lifecycle = [DiskLifecycle.UP] * n
        self._pending_failure: list[Optional[EventHandle]] = [None] * n
        self._pending_rebuild: list[Optional[EventHandle]] = [None] * n
        self._refresh_task: Optional[PeriodicTask] = None
        #: per-year -> per-second, with acceleration folded in once
        self._rate_scale = config.accel / SECONDS_PER_YEAR

        # correlated fault-domain outages: constant-rate exponential
        # budgets from their own label family, so enabling them never
        # perturbs the per-disk draws (and vice versa)
        self._pending_outage: list[Optional[EventHandle]] = []
        self._domain_rate = 0.0
        if (redundancy is not None and config.domain_outage_per_year > 0.0
                and redundancy.scheme.fault_domains > 1):
            n_dom = redundancy.scheme.fault_domains
            dom_streams = fixed_seed_sequence(
                config.seed, [f"domain-{i}" for i in range(n_dom)])
            self._domain_rngs = [dom_streams[f"domain-{i}"]
                                 for i in range(n_dom)]
            self._pending_outage = [None] * n_dom
            self._domain_rate = config.domain_outage_per_year * self._rate_scale
        else:
            self._domain_rngs = []

    # ------------------------------------------------------------------
    # lifecycle of the injector itself
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Attach to the policy and start the hazard refresh ticks."""
        self._policy.fault_domain = self
        self._refresh_task = PeriodicTask(
            self._sim, self.config.hazard_refresh_s, self._refresh,
            priority=self._PRIO_REFRESH)
        for domain in range(len(self._domain_rngs)):
            self._schedule_outage(domain)

    def shutdown(self) -> None:
        """Stop ticks and cancel pending failure/rebuild/outage events."""
        if self._refresh_task is not None:
            self._refresh_task.stop()
            self._refresh_task = None
        for handles in (self._pending_failure, self._pending_rebuild,
                        self._pending_outage):
            for d, handle in enumerate(handles):
                if handle is not None:
                    self._sim.cancel(handle)
                    handles[d] = None

    def lifecycle_of(self, disk_id: int) -> DiskLifecycle:
        """Current fault state of one disk."""
        return self._lifecycle[disk_id]

    # ------------------------------------------------------------------
    # hazard sampling
    # ------------------------------------------------------------------
    def _refresh(self, _tick: int) -> None:
        now = self._sim.now
        period = self.config.hazard_refresh_s
        drives = self._array.drives
        live = [d for d in range(len(drives))
                if self._lifecycle[d] is DiskLifecycle.UP
                and self._pending_failure[d] is None]
        if not live:
            return
        for d in live:
            drives[d].finalize()
        # one batched scoring of every live disk, elementwise and so
        # bit-identical to scoring each through PRESSModel.factors_of
        _, factors = self._press.evaluate_array(
            [drives[d].open_ledger().close(now) for d in live], now)
        for d, disk_factors in zip(live, factors):
            # Eq. 3 caps below 100%, so the conversion cannot blow up
            rate = (annual_failure_rate_to_rate(disk_factors.afr_percent)
                    * self._rate_scale)
            if rate <= 0.0:
                continue
            gap = self._budget[d] - self._hazard[d]
            if rate * period >= gap:
                # budget crossed within the coming period: interpolate
                self._hazard[d] = self._budget[d]
                self._pending_failure[d] = self._sim.schedule(
                    gap / rate, (lambda disk=d: self._fail(disk)),
                    priority=self._PRIO_FAIL)
            else:
                self._hazard[d] += rate * period

    # ------------------------------------------------------------------
    # correlated fault-domain outages
    # ------------------------------------------------------------------
    def _schedule_outage(self, domain: int) -> None:
        delay = float(self._domain_rngs[domain].exponential()) / self._domain_rate
        self._pending_outage[domain] = self._sim.schedule(
            delay, (lambda dom=domain: self._domain_outage(dom)),
            priority=self._PRIO_DOMAIN)

    def _domain_outage(self, domain: int) -> None:
        """Fail every up disk of one fault domain at the same instant."""
        self._pending_outage[domain] = None
        assert self._groups is not None and self.rtracker is not None
        victims = [d for d in self._groups.disks_in_domain(domain)
                   if self._lifecycle[d] is DiskLifecycle.UP]
        self.rtracker.domain_outages += 1
        if self._trace is not None:
            self._trace.emit(ev.FAULT_DOMAIN_OUTAGE, self._sim.now,
                             domain=domain, disks_failed=len(victims))
        for disk_id in victims:
            handle = self._pending_failure[disk_id]
            if handle is not None:
                self._sim.cancel(handle)
                self._pending_failure[disk_id] = None
            self._fail(disk_id)
        self._schedule_outage(domain)

    # ------------------------------------------------------------------
    # redundancy-group bookkeeping
    # ------------------------------------------------------------------
    def _serving_up(self, disk_id: int) -> bool:
        """Serving view: a REBUILDING disk accepts (and queues) reads."""
        return not self._array.drives[disk_id].is_failed

    def _data_up(self, disk_id: int) -> bool:
        """Redundancy view: a disk counts once its data is fully restored."""
        return self._lifecycle[disk_id] is DiskLifecycle.UP

    def _update_group_health(self, group_id: int) -> None:
        assert self._groups is not None and self.rtracker is not None
        new = self._groups.health_of(group_id, self._data_up)
        old = self._group_health[group_id]
        if new is old:
            return
        self._group_health[group_id] = new
        self.rtracker.record_state_change(self._sim.now, group_id, old, new)
        if self._trace is not None:
            self._trace.emit(ev.REDUNDANCY_GROUP_STATE, self._sim.now,
                             group=group_id, **{"from": old.value,
                                                "to": new.value})

    def redundancy_summary(self, ctmc: Optional[CtmcResult]) -> Optional[RedundancySummary]:
        """Freeze the redundancy counters (None when no layout attached)."""
        if self._groups is None or self.rtracker is None:
            return None
        final = tuple(h.value
                      for h in self._groups.health_snapshot(self._data_up))
        return self.rtracker.summarize(
            scheme=self._groups.scheme.name, n_groups=self._groups.n_groups,
            final_states=final, ctmc=ctmc)

    # ------------------------------------------------------------------
    # disk lifecycle
    # ------------------------------------------------------------------
    def _fail(self, disk_id: int) -> None:
        self._pending_failure[disk_id] = None
        if self._lifecycle[disk_id] is not DiskLifecycle.UP:
            return
        now = self._sim.now
        self._lifecycle[disk_id] = DiskLifecycle.FAILED
        self.tracker.record_failure(disk_id, now)

        # data-availability census *before* the policy drops its copy
        # metadata: a file is lost (until rebuild) when every alternate
        # copy is also down.  Under a redundancy layout the group, not
        # the policy, owns the copies: every file on the disk shares
        # the group's fate, so the census is one geometry query.
        lost = 0
        if self._groups is not None and self._groups.scheme.is_redundant:
            if not self._groups.reconstruct_targets(disk_id, self._serving_up):
                lost = len(self._array.files_on(disk_id))
        else:
            for fid in self._array.files_on(disk_id):
                fid = int(fid)
                if not any(alt != disk_id and self._array.disk_is_up(alt)
                           for alt in self._policy.alternate_targets(fid)):
                    lost += 1
        if lost:
            self.tracker.data_loss_events += 1
            self.tracker.files_lost += lost
            if self._trace is not None:
                self._trace.emit(ev.FAULT_DATA_LOSS, now, disk=disk_id,
                                 files_lost=lost)

        # dropping jobs fires their on_complete callbacks (failed=True),
        # which re-enter through on_user_job_complete and schedule retries
        dropped = self._array.fail_disk(disk_id)
        if self._trace is not None:
            self._trace.emit(ev.FAULT_INJECT, now, disk=disk_id,
                             dropped_jobs=len(dropped))
        self._policy.on_disk_failed(disk_id)
        if self._groups is not None:
            self._update_group_health(self._groups.group_of(disk_id))
        self._pending_rebuild[disk_id] = self._sim.schedule(
            self.config.repair_delay_s,
            (lambda disk=disk_id: self._start_rebuild(disk)),
            priority=self._PRIO_REBUILD)

    def _start_rebuild(self, disk_id: int) -> None:
        self._pending_rebuild[disk_id] = None
        self._lifecycle[disk_id] = DiskLifecycle.REBUILDING
        self._array.replace_disk(disk_id)
        size_mb = float(self._array.used_mb[disk_id])
        if self._trace is not None:
            self._trace.emit(ev.FAULT_REBUILD_START, self._sim.now,
                             disk=disk_id, size_mb=size_mb)
        if size_mb <= 0.0:
            self._finish_rebuild(disk_id, rebuild_job=None)
            return
        if self._groups is not None and self._groups.scheme.is_redundant:
            self._fan_rebuild_reads(disk_id, size_mb)
        self._array.submit_internal(
            disk_id, size_mb,
            on_complete=(lambda job, disk=disk_id:
                         self._on_rebuild_complete(disk, job)))

    def _fan_rebuild_reads(self, disk_id: int, size_mb: float) -> None:
        """Fan the restoration's read traffic across surviving sources.

        Parity reconstruction reads one shard-run per source (``k``
        reads of the lost disk's full used size each — the erasure
        rebuild amplification); a mirror copy-stream splits the size
        across the live peers.  The legs run *concurrently* with the
        replacement's write stream (a pipelined rebuild), so their only
        effect on completion is the queueing they inflict on survivors
        — which is the rebuild-storm interference this path models.  A
        lost group has no sources and keeps the bare write stream (a
        cold restore from external backup, charged only to the
        replacement).
        """
        assert self._groups is not None and self.rtracker is not None
        sources = self._groups.rebuild_sources(disk_id, self._serving_up)
        if not sources:
            return
        if self._groups.scheme.kind == "parity":
            leg_mb = size_mb
        else:
            leg_mb = size_mb / len(sources)
        self.rtracker.rebuild_read_legs += len(sources)
        for source in sources:
            # completion is not gated on the legs: a source dying
            # mid-read surfaces as its own failure, not a rebuild abort
            self._array.submit_internal(source, leg_mb,
                                        on_complete=lambda job: None)

    def _on_rebuild_complete(self, disk_id: int, job: Job) -> None:
        if job.failed:
            # the replacement died mid-rebuild (hazard is suspended while
            # rebuilding, so only reachable through external fail_disk
            # calls in tests) — treat it as a fresh failure awaiting repair
            self._lifecycle[disk_id] = DiskLifecycle.FAILED
            self._pending_rebuild[disk_id] = self._sim.schedule(
                self.config.repair_delay_s,
                (lambda disk=disk_id: self._start_rebuild(disk)),
                priority=self._PRIO_REBUILD)
            return
        self._finish_rebuild(disk_id, rebuild_job=job)

    def _finish_rebuild(self, disk_id: int, *, rebuild_job: Optional[Job]) -> None:
        if rebuild_job is not None:
            drive = self._array.drives[disk_id]
            duration = rebuild_job.completion_time - rebuild_job.service_start
            self.tracker.rebuild_energy_j += (
                duration * drive.params.mode(drive.speed).active_w)
        if self.rtracker is not None:
            down_at = self.tracker.down_since.get(disk_id)
            if down_at is not None:
                # failure -> data restored, the CTMC's repair time
                self.rtracker.record_rebuild_duration(self._sim.now - down_at)
        self._lifecycle[disk_id] = DiskLifecycle.UP
        self.tracker.record_restored(disk_id, self._sim.now)
        if self._trace is not None:
            self._trace.emit(ev.FAULT_REBUILD_COMPLETE, self._sim.now,
                             disk=disk_id)
        # fresh spindle, fresh budget; hazard restarts from zero
        self._budget[disk_id] = float(self._rngs[disk_id].exponential())
        self._hazard[disk_id] = 0.0
        self._policy.on_disk_restored(disk_id)
        if self._groups is not None:
            self._update_group_health(self._groups.group_of(disk_id))

    # ------------------------------------------------------------------
    # degraded-mode serving (the FaultDomain protocol)
    # ------------------------------------------------------------------
    def submit_user_request(self, request: Request,
                            disk_id: Optional[int]) -> Job:
        """Mediated submit: redirect around failed disks or fail fast."""
        array = self._array
        target = array.location_of(request.file_id) if disk_id is None else disk_id
        if target < 0:
            raise ValueError(f"file {request.file_id} is not placed on any disk")
        if not array.drives[target].is_failed:
            return array.submit_request(request, disk_id=target,
                                        on_complete=self.on_user_job_complete)
        if self._groups is not None and self._groups.scheme.is_redundant:
            return self._submit_reconstruct(request, target)
        for alt in self._policy.alternate_targets(request.file_id):
            if alt != target and not array.drives[alt].is_failed:
                self.tracker.requests_redirected += 1
                if self._trace is not None:
                    self._trace.emit(ev.REQUEST_REDIRECT, self._sim.now,
                                     file=request.file_id,
                                     **{"from": target, "to": alt})
                return array.submit_request(request, disk_id=alt,
                                            on_complete=self.on_user_job_complete)
        # an explicit non-primary target (cache disk, replica) that died
        # can still fall back to the primary copy
        primary = array.location_of(request.file_id)
        if primary != target and not array.drives[primary].is_failed:
            self.tracker.requests_redirected += 1
            if self._trace is not None:
                self._trace.emit(ev.REQUEST_REDIRECT, self._sim.now,
                                 file=request.file_id,
                                 **{"from": target, "to": primary})
            return array.submit_request(request, disk_id=primary,
                                        on_complete=self.on_user_job_complete)
        # no live copy: synthesize the failed job so the retry/permanent
        # paths are uniform with a mid-service disk death
        job = Job.for_request(request, on_complete=self.on_user_job_complete)
        job.failed = True
        if self._trace is not None:
            self._trace.emit(ev.REQUEST_FAIL, self._sim.now, disk=target,
                             internal=False, reason="no_live_copy")
        self.on_user_job_complete(job)
        return job

    def _submit_reconstruct(self, request: Request, target: int) -> Job:
        """Serve a down target's data from its redundancy group.

        Mirror: a full-size read from the first live copy (one leg).
        Parity: ``k`` shard-sized internal reads fanned across
        survivors, completing on the last leg (striped-style fan-in) —
        the record job re-enters :meth:`on_user_job_complete` like any
        other user job, so retries and permanent-failure accounting are
        uniform.  No ``k`` survivors: fail fast into the retry path.
        """
        assert self._groups is not None and self.rtracker is not None
        array = self._array
        groups = self._groups
        targets = groups.reconstruct_targets(target, self._serving_up)
        now = self._sim.now
        if not targets:
            job = Job.for_request(request, on_complete=self.on_user_job_complete)
            job.failed = True
            if self._trace is not None:
                self._trace.emit(ev.REQUEST_FAIL, now, disk=target,
                                 internal=False, reason="group_unservable")
            self.on_user_job_complete(job)
            return job
        self.rtracker.reconstruct_reads += 1
        self.rtracker.reconstruct_legs += len(targets)
        if len(targets) == 1:
            # mirror (or k=1 parity): an ordinary redirect to the copy
            self.tracker.requests_redirected += 1
            if self._trace is not None:
                self._trace.emit(ev.REQUEST_REDIRECT, now,
                                 file=request.file_id,
                                 **{"from": target, "to": targets[0]})
            return array.submit_request(request, disk_id=targets[0],
                                        on_complete=self.on_user_job_complete)
        self.tracker.requests_redirected += 1
        if self._trace is not None:
            self._trace.emit(ev.REQUEST_RECONSTRUCT, now,
                             file=request.file_id, disk=target,
                             legs=len(targets))
        leg_mb = request.size_mb / len(targets)
        request.served_by = targets[0]
        record = Job.for_request(request)
        state = {"remaining": len(targets), "first_start": float("inf")}

        def on_leg_complete(leg: Job) -> None:
            if leg.failed:
                record.failed = True
            else:
                state["first_start"] = min(state["first_start"],
                                           leg.service_start)
            state["remaining"] -= 1
            if state["remaining"] == 0:
                if not record.failed:
                    request.service_start = state["first_start"]
                    request.completion_time = self._sim.now
                    record.completion_time = self._sim.now
                self.on_user_job_complete(record)

        for leg_disk in targets:
            array.submit_internal(leg_disk, leg_mb,
                                  on_complete=on_leg_complete)
        return record

    def on_user_job_complete(self, job: Job) -> None:
        if not job.failed:
            self._on_success(job)
            return
        request = job.request
        assert request is not None  # only user jobs carry this callback
        now = self._sim.now
        if (request.retries < self.config.max_retries
                and now - request.arrival_time < self.config.retry_timeout_s):
            request.retries += 1
            self.tracker.requests_retried += 1
            if self._trace is not None:
                self._trace.emit(ev.REQUEST_RETRY, now,
                                 file=request.file_id, attempt=request.retries)
            # re-enter through the policy's router (not a bare resubmit)
            # so striped fan-out, cache bookkeeping, and spin-up checks
            # all apply to the retry as they would to a fresh arrival
            self._sim.schedule(
                self.config.retry_backoff_s,
                (lambda req=request: self._policy.route(req)),
                priority=self._PRIO_RETRY)
            return
        self.tracker.requests_failed += 1
        self._on_permanent_failure(job)
