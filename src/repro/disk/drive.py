"""The two-speed drive state machine.

One drive is, at any instant, in exactly one *phase* —

* ``IDLE``          — spinning at its current speed, queue empty;
* ``BUSY``          — transferring one job (FCFS, single actuator);
* ``TRANSITIONING`` — switching spindle speed; serves nothing (Sec. 4:
  "no requests can be served when a disk is switching its speed").

Transitions between phases drive three side ledgers in lock-step: the
:class:`~repro.disk.energy.EnergyMeter` (power state residency), the
:class:`~repro.disk.thermal.ThermalModel` (temperature trajectory), and
:class:`~repro.disk.stats.DiskStats` (throughput and transition counts).
The pattern is *account-then-change*: every state change first charges
the elapsed interval to the outgoing state, so the ledgers are exact by
construction and ``sum(state times) == power-on time`` is an invariant
the test suite checks.  The charge (:meth:`TwoSpeedDrive._account`) is
inline arithmetic on the energy and thermal accumulators, in the float
expression order of :meth:`repro.disk.ledger.OpenDiskLedger.advance`, so
a closed ledger equals the drive's own accounting bit for bit.

Per-event paths read the phase, power-state and speed enum members
through module-level names bound once below: a global load is an order
of magnitude cheaper than an attribute lookup on an ``Enum`` class.

Speed-change semantics
----------------------
Policies call :meth:`TwoSpeedDrive.request_speed`.  A request for the
current speed is a no-op (and clears any opposite pending request).  If
the drive is idle the transition starts immediately; if it is busy the
transition is *deferred* and starts when the in-flight transfer
completes — queued jobs then wait out the transition and resume at the
new speed.  This matches the paper's model where a spin-up triggered by
queued work delays that work by the transition time.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.disk.energy import STATE_INDEX, DiskPowerState, EnergyMeter
from repro.disk.ledger import OpenDiskLedger
from repro.disk.parameters import AMBIENT_TEMPERATURE_C, DiskSpeed, TwoSpeedDiskParams
from repro.disk.stats import DiskStats
from repro.disk.thermal import ThermalModel
from repro.obs import events as ev
from repro.sim.engine import EventHandle, Simulator
from repro.util.validation import require_non_negative, require_positive
from repro.workload.request import Request

__all__ = ["DrivePhase", "Job", "TwoSpeedDrive"]

_INF = math.inf
_exp = math.exp
_HIGH = DiskSpeed.HIGH
_TRANSITION_INDEX = STATE_INDEX[DiskPowerState.TRANSITION]


class DrivePhase(enum.Enum):
    """Mutually exclusive operating phases of a drive."""

    IDLE = "idle"
    BUSY = "busy"
    TRANSITIONING = "transitioning"
    #: The drive has failed and is out of service (fault injection);
    #: it draws no power, serves nothing, and drops submitted work.
    FAILED = "failed"


_IDLE = DrivePhase.IDLE
_BUSY = DrivePhase.BUSY
_TRANSITIONING = DrivePhase.TRANSITIONING
_FAILED = DrivePhase.FAILED


@dataclass(slots=True)
class Job:
    """A unit of disk work: either a user request or internal data movement.

    Internal jobs (MAID cache copies, PDC/READ migrations) consume disk
    time and energy exactly like user requests but are excluded from
    response-time metrics — the paper charges migration overhead to
    energy and queueing, not to the response-time average directly.
    """

    size_mb: float
    internal: bool = False
    request: Optional[Request] = None
    on_complete: Optional[Callable[["Job"], None]] = None
    enqueue_time: float = field(default=-1.0)
    service_start: float = field(default=-1.0)
    completion_time: float = field(default=-1.0)
    #: Set when the serving disk failed before the transfer finished;
    #: ``on_complete`` still fires so owners can retry or clean up.
    failed: bool = field(default=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.size_mb < _INF):
            require_positive(self.size_mb, "size_mb")

    @classmethod
    def for_request(cls, request: Request,
                    on_complete: Optional[Callable[["Job"], None]] = None) -> "Job":
        """Wrap a user request into a schedulable job.

        ``request.size_mb`` was already validated by
        ``Request.__post_init__``, so this runs the fast direct-slot
        construction instead of the validating dataclass init (one Job
        per routed request — it is a hot path).
        """
        job = cls.__new__(cls)
        job.size_mb = request.size_mb
        job.internal = False
        job.request = request
        job.on_complete = on_complete
        job.enqueue_time = -1.0
        job.service_start = -1.0
        job.completion_time = -1.0
        job.failed = False
        return job

    @classmethod
    def internal_transfer(cls, size_mb: float,
                          on_complete: Optional[Callable[["Job"], None]] = None) -> "Job":
        """A policy-generated transfer (migration read/write, cache copy)."""
        return cls(size_mb=size_mb, internal=True, on_complete=on_complete)


class TwoSpeedDrive:
    """Event-driven model of one two-speed disk.

    Parameters
    ----------
    sim:
        The shared simulation kernel.
    params:
        Device characteristics (see :func:`repro.disk.cheetah_two_speed`).
    disk_id:
        Dense index within the array.
    initial_speed:
        Spindle speed at t = 0 (policies configure zones before traffic).
    on_idle / on_busy:
        Optional hooks fired when the queue drains (arm an idleness
        timer) and when the drive leaves idle for work (cancel it).
    """

    #: Event priority for job completions — fire before same-time timers.
    _PRIO_COMPLETE = 0
    #: Event priority for transition completions.
    _PRIO_TRANSITION = 1

    def __init__(self, sim: Simulator, params: TwoSpeedDiskParams, disk_id: int, *,
                 initial_speed: DiskSpeed = _HIGH,
                 on_idle: Optional[Callable[[int], None]] = None,
                 on_busy: Optional[Callable[[int], None]] = None) -> None:
        self._sim = sim
        # Cached trace-sink reference: None on the default path, so every
        # emission site is a single attribute load + is-None branch.
        self._trace = sim.trace
        self.params = params
        self.disk_id = disk_id
        self.on_idle = on_idle
        self.on_busy = on_busy

        self._speed = initial_speed
        self._phase = _IDLE
        self._transition_target: Optional[DiskSpeed] = None
        self._pending_target: Optional[DiskSpeed] = None
        self._queue: deque[Job] = deque()
        self._current: Optional[Job] = None
        # the drive's completion and transition events: one handle each
        # for the drive's life, re-armed per job / transition and
        # cancelled by fault injection when the drive dies mid-work
        self._completion_event = EventHandle(self._complete,
                                             priority=self._PRIO_COMPLETE)
        self._transition_event = EventHandle(self._end_transition,
                                             priority=self._PRIO_TRANSITION)

        # Drives were already spinning before the trace window opens, so
        # they start at their speed's steady temperature, not at ambient
        # (a cold start would understate every policy's temperature AFR
        # on short traces).
        initial_c = params.mode(initial_speed).steady_temp_c
        self.stats = DiskStats(disk_id)
        self.energy = EnergyMeter(params)
        self.thermal = ThermalModel(initial_c=initial_c)
        self._last_account_s = sim.now
        self._start_time_s = sim.now
        self._refresh_speed_cache()

    def _refresh_speed_cache(self) -> None:
        """Re-derive the per-speed constants the service loop reads per job.

        Called on every ``_speed`` change so :meth:`_dispatch` computes
        service times from plain floats instead of re-resolving the mode.
        The arithmetic (``positioning + size / rate``) matches
        :meth:`SpeedModeParams.service_time_s` term for term, so results
        are bit-identical.  :meth:`_account` reads the idle and busy
        power-state indices at this speed from here too.
        """
        mode = self.params.mode(self._speed)
        self._svc_positioning_s = mode.avg_seek_s + mode.avg_rot_latency_s
        self._svc_transfer_mb_s = mode.transfer_mb_s
        self._steady_c_at_speed = mode.steady_temp_c
        self._idle_index = STATE_INDEX[DiskPowerState.of(False, self._speed)]
        self._busy_index = STATE_INDEX[DiskPowerState.of(True, self._speed)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def speed(self) -> DiskSpeed:
        """Current spindle speed (the *origin* speed while transitioning)."""
        return self._speed

    @property
    def phase(self) -> DrivePhase:
        """Current operating phase."""
        return self._phase

    @property
    def queue_length(self) -> int:
        """Jobs waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def is_idle(self) -> bool:
        """True when spinning idle with an empty queue."""
        return self._phase is _IDLE

    @property
    def is_failed(self) -> bool:
        """True while the drive is failed/out of service (fault injection)."""
        return self._phase is _FAILED

    @property
    def effective_target_speed(self) -> DiskSpeed:
        """The speed the drive is at or headed to (incl. deferred requests)."""
        if self._pending_target is not None:
            return self._pending_target
        if self._transition_target is not None:
            return self._transition_target
        return self._speed

    def power_on_time_s(self) -> float:
        """Seconds since this drive was created (all states count as on)."""
        return self._sim.now - self._start_time_s

    def utilization(self) -> float:
        """Active-time fraction per the paper's Sec. 3.3 definition.

        Includes time-in-flight of the current job only after accounting,
        so call :meth:`finalize` (or read after a state change) for exact
        end-of-run values.
        """
        elapsed = self.power_on_time_s()
        if elapsed <= 0.0:
            return 0.0
        return min(self.energy.active_time_s / elapsed, 1.0)

    def estimated_wait_s(self) -> float:
        """Crude wait estimate: queued work at the current speed plus any
        remaining transition time.  Policies use this for spin-up
        decisions; it deliberately ignores the in-flight job's residual.
        """
        mode = self.params.mode(self.effective_target_speed)
        backlog = sum(mode.service_time_s(j.size_mb) for j in self._queue)
        if self._phase is _TRANSITIONING:
            backlog += self.params.transition_time_s  # upper bound on residual
        return backlog

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _open_state_index(self) -> Optional[int]:
        """:data:`STATE_INDEX` of the power state now ruling (None = failed)."""
        phase = self._phase
        if phase is _FAILED:
            return None
        if phase is _TRANSITIONING:
            return _TRANSITION_INDEX
        return self._busy_index if phase is _BUSY else self._idle_index

    def _steady_temp_c(self) -> float:
        phase = self._phase
        if phase is _FAILED:
            return AMBIENT_TEMPERATURE_C  # a dead spindle cools toward ambient
        if phase is _TRANSITIONING:
            assert self._transition_target is not None
            return self.params.mode(self._transition_target).steady_temp_c
        return self._steady_c_at_speed

    def _account(self) -> None:
        """Charge the interval since the last state change to that state.

        Runs on every dispatch, completion and transition edge, so the
        state and steady-temperature selection of
        :meth:`_open_state_index` / :meth:`_steady_temp_c` and both
        accumulator updates are inlined, in the float expression order of
        :meth:`OpenDiskLedger.advance`.  A failed drive draws no power;
        it only cools toward ambient.
        """
        now = self._sim.now
        dt = now - self._last_account_s
        if not 0.0 < dt < _INF:
            if dt == 0.0:  # repro: allow[NUM001] exact zero-length edge: nothing to charge
                return
            require_non_negative(dt, "dt")  # raises: negative, NaN or inf
        phase = self._phase
        if phase is _FAILED:
            steady_c = AMBIENT_TEMPERATURE_C
        else:
            if phase is _BUSY:
                i = self._busy_index
                steady_c = self._steady_c_at_speed
            elif phase is _IDLE:
                i = self._idle_index
                steady_c = self._steady_c_at_speed
            else:
                i = _TRANSITION_INDEX
                target = self._transition_target
                assert target is not None
                steady_c = self.params.mode(target).steady_temp_c
            energy = self.energy
            energy.times_s[i] += dt
            energy.energies_j[i] += energy.powers_w[i] * dt
        thermal = self.thermal
        tau = thermal.tau_s
        t0 = thermal.temperature_c
        decay = _exp(-dt / tau)
        thermal.temperature_c = steady_c + (t0 - steady_c) * decay
        thermal.integral_c_s += steady_c * dt + (t0 - steady_c) * tau * (1.0 - decay)
        thermal.elapsed_s += dt
        self._last_account_s = now

    def open_ledger(self) -> OpenDiskLedger:
        """Capture the raw accumulator state *without* the final flush.

        Every finalize scores closed ledgers (:mod:`repro.disk.ledger`).
        A sharded run (``repro.experiments.shard``) captures at its
        local end time, and the merge charges each disk's final open
        interval up to the *global* end time in a single accounting
        step — exactly what :meth:`finalize` would have done there.
        :meth:`~repro.disk.ledger.OpenDiskLedger.close` performs that
        step with bit-identical arithmetic.
        """
        energy, thermal, stats = self.energy, self.thermal, self.stats
        state_index = self._open_state_index()
        return OpenDiskLedger(
            disk_id=self.disk_id,
            last_account_s=self._last_account_s,
            time_s=tuple(energy.times_s),
            energy_j=tuple(energy.energies_j),
            state_index=state_index,
            power_w=0.0 if state_index is None else energy.powers_w[state_index],
            steady_c=self._steady_temp_c(),
            temp_c=thermal.temperature_c,
            integral_c_s=thermal.integral_c_s,
            elapsed_s=thermal.elapsed_s,
            tau_s=thermal.tau_s,
            requests_served=stats.requests_served,
            internal_jobs_served=stats.internal_jobs_served,
            mb_served=stats.mb_served,
            transitions_total=stats.speed_transitions_total,
            transitions_by_day=tuple(sorted(stats.transitions_by_day.items())),
        )

    def finalize(self) -> None:
        """Flush accounting up to the current simulation time.

        Call once at the end of a run before reading energy, utilization,
        or temperature; safe to call repeatedly.
        """
        self._account()

    # ------------------------------------------------------------------
    # work submission
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Enqueue a job; service starts immediately if the drive is idle.

        Submitting to a failed drive fails the job synchronously (its
        ``on_complete`` fires with ``job.failed`` set) instead of queueing
        work that could never be served.
        """
        now = self._sim.now
        job.enqueue_time = now
        trace = self._trace
        if trace is not None:
            request = job.request
            trace.request_submit(now, self.disk_id, job.size_mb, job.internal,
                                 request.file_id if request is not None else None)
        phase = self._phase
        if phase is _IDLE:
            self._queue.append(job)
            if self.on_busy is not None:
                self.on_busy(self.disk_id)
            self._dispatch()
            return
        if phase is _FAILED:
            job.failed = True
            if trace is not None:
                trace.emit(ev.REQUEST_FAIL, now, disk=self.disk_id,
                           internal=job.internal, reason="submitted_to_failed_disk")
            if job.on_complete is not None:
                job.on_complete(job)
            return
        self._queue.append(job)

    # ------------------------------------------------------------------
    # speed control
    # ------------------------------------------------------------------
    def force_speed(self, target: DiskSpeed) -> None:
        """Pre-deployment speed configuration: instant, free, uncounted.

        Policies use this during ``initial_layout`` to set up zones (READ
        "configures HD disks to high speed mode and CD disks to low
        speed mode" before traffic starts); it is *not* a runtime
        transition, so it charges no time, energy, or transition count.
        Only legal while the drive is idle with an empty queue.
        """
        if self._phase is not _IDLE or self._queue:
            raise RuntimeError("force_speed is only valid on an idle, empty drive")
        self._account()
        self._speed = target
        self._refresh_speed_cache()
        self._pending_target = None
        if self._sim.now == self._start_time_s:  # repro: allow[NUM001] exact check: has any simulated time elapsed at all
            # pre-traffic configuration: the drive has "always" been at
            # this speed, so it starts at the matching steady temperature
            self.thermal.reset(temperature_c=self.params.mode(target).steady_temp_c)

    def request_speed(self, target: DiskSpeed) -> bool:
        """Ask the drive to move to ``target`` speed.

        Returns ``True`` if a transition was started or newly deferred,
        ``False`` if it was a no-op (already there / already heading
        there, or the drive is failed).  The caller (policy) is
        responsible for any transition budget checks *before* calling.
        """
        if self._phase is _FAILED:
            return False
        if self._phase is _TRANSITIONING:
            if self._transition_target is target:
                self._pending_target = None
                return False
            # reversal while mid-transition: remember it for completion time
            self._pending_target = target
            return True
        if self._speed is target:
            self._pending_target = None
            return False
        if self._phase is _BUSY:
            if self._pending_target is target:
                return False
            self._pending_target = target
            return True
        self._begin_transition(target)
        return True

    def _begin_transition(self, target: DiskSpeed) -> None:
        assert self._phase is _IDLE
        self._account()
        self._phase = _TRANSITIONING
        self._transition_target = target
        self._pending_target = None
        self.stats.record_transition(self._sim.now)
        if self._trace is not None:
            self._trace.emit(ev.DISK_TRANSITION_BEGIN, self._sim.now,
                             disk=self.disk_id,
                             **{"from": self._speed.name.lower(),
                                "to": target.name.lower()})
        self._sim.reschedule(self._transition_event, self.params.transition_time_s)

    def _end_transition(self) -> None:
        assert self._transition_target is not None
        self._account()
        self._speed = self._transition_target
        self._refresh_speed_cache()
        self._transition_target = None
        self._phase = _IDLE
        if self._trace is not None:
            self._trace.emit(ev.DISK_TRANSITION_END, self._sim.now,
                             disk=self.disk_id, speed=self._speed.name.lower())
        if self._pending_target is not None and self._pending_target is not self._speed:
            target, self._pending_target = self._pending_target, None
            self._begin_transition(target)
            return
        self._pending_target = None
        self._dispatch()

    # ------------------------------------------------------------------
    # fault lifecycle (driven by repro.faults)
    # ------------------------------------------------------------------
    def fail(self) -> list[Job]:
        """Take the drive out of service immediately.

        The in-flight transfer (if any) and every queued job are failed:
        each gets ``job.failed`` set and its ``on_complete`` fired so
        owners can retry elsewhere or record the loss.  Pending
        completion/transition events are cancelled; any deferred speed
        request is dropped.  Returns the failed jobs (served-first order).
        Failing an already-failed drive is a no-op.
        """
        if self._phase is _FAILED:
            return []
        self._account()
        dropped: list[Job] = []
        self._sim.cancel(self._completion_event)
        self._sim.cancel(self._transition_event)
        if self._current is not None:
            dropped.append(self._current)
            self._current = None
        dropped.extend(self._queue)
        self._queue.clear()
        self._phase = _FAILED
        self._transition_target = None
        self._pending_target = None
        trace = self._trace
        for job in dropped:
            job.failed = True
            if trace is not None:
                trace.emit(ev.REQUEST_FAIL, self._sim.now, disk=self.disk_id,
                           internal=job.internal, reason="disk_failed")
            if job.on_complete is not None:
                job.on_complete(job)
        return dropped

    def replace_with_new_spindle(self, *, speed: DiskSpeed = _HIGH) -> None:
        """Swap in a replacement drive (failed -> idle, empty, at ``speed``).

        Models the operator installing a fresh spindle: the replacement
        boots directly at ``speed`` (no transition charged — it spun up
        outside the array, like the t = 0 configuration) and is ready to
        take the rebuild stream.  Energy/thermal/stats ledgers continue —
        the slot, not the physical spindle, is the unit the experiment
        accounts (matching how the array AFR aggregates per slot).
        """
        if self._phase is not _FAILED:
            raise RuntimeError("replace_with_new_spindle requires a failed drive")
        self._account()
        self._phase = _IDLE
        self._speed = speed
        self._refresh_speed_cache()
        if self._trace is not None:
            self._trace.emit(ev.DISK_REPLACE, self._sim.now,
                             disk=self.disk_id, speed=speed.name.lower())

    # ------------------------------------------------------------------
    # service loop
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """From IDLE, start pending transition or next job (or stay idle)."""
        assert self._phase is _IDLE
        if self._pending_target is not None and self._pending_target is not self._speed:
            target, self._pending_target = self._pending_target, None
            self._begin_transition(target)
            return
        self._pending_target = None
        if not self._queue:
            if self.on_idle is not None:
                self.on_idle(self.disk_id)
            return
        job = self._queue.popleft()
        now = self._sim.now
        if now != self._last_account_s:  # repro: allow[NUM001] propagated timestamp: dedupes the accounting call chained off _complete
            self._account()
        self._phase = _BUSY
        self._current = job
        job.service_start = now
        request = job.request
        if request is not None:
            request.service_start = now
            request.served_by = self.disk_id
        # inlined SpeedModeParams.service_time_s via the speed cache
        service_s = self._svc_positioning_s + job.size_mb / self._svc_transfer_mb_s
        if self._trace is not None:
            self._trace.request_dispatch(now, self.disk_id, now - job.enqueue_time,
                                         service_s, job.internal)
        self._sim.reschedule(self._completion_event, service_s)

    def _complete(self) -> None:
        job = self._current
        assert job is not None and self._phase is _BUSY
        self._account()
        self._phase = _IDLE
        self._current = None
        now = self._sim.now
        job.completion_time = now
        request = job.request
        if request is not None:
            request.completion_time = now
        self.stats.record_service(job.size_mb, job.internal)
        if self._trace is not None:
            self._trace.request_complete(now, self.disk_id, job.size_mb,
                                         now - job.enqueue_time, job.internal)
        if job.on_complete is not None:
            job.on_complete(job)
        self._dispatch()
