"""Policy interface and the shared speed-control machinery.

``Policy`` is the contract the experiment runner drives; the helpers
here implement the mechanics every workload-skew scheme shares:

* :class:`SpeedControlConfig` — idleness threshold H and the spin-up
  demand rule (both MAID and PDC "send disks to low-power modes" after
  idle periods and return to full speed under load, Sec. 2);
* :class:`TransitionBudget` — READ's per-disk, per-day transition cap S
  with the "half the budget spent -> double H" adaptation (Fig. 6,
  lines 20-24); other policies run unbudgeted;
* :class:`SpeedController` — per-disk resettable idleness timers wired
  to the array's idle/busy hooks, plus the arrival-side spin-up check.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.disk.array import DiskArray
from repro.disk.drive import Job
from repro.disk.parameters import DiskSpeed
from repro.obs import events as ev
from repro.sim.engine import Simulator
from repro.sim.timers import ResettableTimer
from repro.util.units import SECONDS_PER_DAY
from repro.util.validation import require, require_positive
from repro.workload.files import FileSet
from repro.workload.request import Request

__all__ = ["FaultDomain", "Policy", "PolicyError", "SpeedControlConfig",
           "SpeedController", "TransitionBudget"]

# bound once: the idle/busy hooks and the spin-up check run per event
_HIGH = DiskSpeed.HIGH
_LOW = DiskSpeed.LOW


class PolicyError(RuntimeError):
    """Raised for policy misuse (unbound policy, invalid configuration)."""


class FaultDomain(Protocol):
    """What a policy needs from the fault layer: a mediated submit.

    Implemented by :class:`repro.faults.FaultInjector`; declared here as a
    protocol so the policy layer never imports the fault layer.
    """

    def submit_user_request(self, request: Request,
                            disk_id: Optional[int]) -> Job: ...


@dataclass(frozen=True, slots=True)
class SpeedControlConfig:
    """Shared knobs of idleness-driven speed control.

    Attributes
    ----------
    idle_threshold_s:
        Idle time H after which an eligible drive spins down to LOW.
    spin_up_queue_len:
        A LOW drive spins up when its backlog (queued + arriving job)
        reaches this many jobs.  1 means "any arrival spins up" (classic
        PDC behaviour); larger values serve light traffic at low speed.
    spin_up_wait_s:
        Alternative demand trigger: spin up when the estimated wait of
        the arriving job exceeds this bound (seconds).
    """

    idle_threshold_s: float = 30.0
    spin_up_queue_len: int = 4
    spin_up_wait_s: float = 2.0

    def __post_init__(self) -> None:
        require_positive(self.idle_threshold_s, "idle_threshold_s")
        require(self.spin_up_queue_len >= 1,
                f"spin_up_queue_len must be >= 1, got {self.spin_up_queue_len}")
        require_positive(self.spin_up_wait_s, "spin_up_wait_s")


class TransitionBudget:
    """Per-disk, per-day speed-transition budget (READ's cap S, Sec. 5.2).

    ``spend`` must be consulted *before* a transition is requested; it
    returns ``False`` once the disk has used its ``limit_per_day`` for
    the current simulated day.  Crossing ``limit/2`` fires the
    ``on_half_spent`` hook exactly once per disk per day — READ uses it
    to double that disk's idleness threshold (Fig. 6, line 22).
    """

    def __init__(self, sim: Simulator, limit_per_day: int, *,
                 on_half_spent: Optional[Callable[[int], None]] = None) -> None:
        require(limit_per_day >= 1, f"limit_per_day must be >= 1, got {limit_per_day}")
        self._sim = sim
        self.limit_per_day = limit_per_day
        self._on_half_spent = on_half_spent
        self._spent: dict[tuple[int, int], int] = defaultdict(int)
        self._half_fired: set[tuple[int, int]] = set()

    def _key(self, disk_id: int) -> tuple[int, int]:
        return (disk_id, int(self._sim.now // SECONDS_PER_DAY))

    def spent_today(self, disk_id: int) -> int:
        """Transitions already spent by ``disk_id`` in the current day."""
        return self._spent[self._key(disk_id)]

    def available(self, disk_id: int) -> bool:
        """Whether the disk may still transition today."""
        return self.spent_today(disk_id) < self.limit_per_day

    def spend(self, disk_id: int) -> bool:
        """Consume one transition if the budget allows; returns success."""
        key = self._key(disk_id)
        if self._spent[key] >= self.limit_per_day:
            return False
        self._spent[key] += 1
        if (self._on_half_spent is not None and key not in self._half_fired
                and 2 * self._spent[key] >= self.limit_per_day):
            self._half_fired.add(key)
            self._on_half_spent(disk_id)
        return True


class SpeedController:
    """Idleness-timer spin-down plus demand spin-up for a set of drives.

    Parameters
    ----------
    sim, array, config:
        Kernel, the controlled array, and the shared knobs.
    eligible:
        Predicate: may this disk ever be spun down?  (MAID excludes
        cache disks, READ's base layout excludes nothing but relies on
        its budget.)
    budget:
        Optional :class:`TransitionBudget`; when given, every transition
        (down *and* up) must be paid for, and an exhausted budget simply
        leaves the disk at its current speed.
    """

    def __init__(self, sim: Simulator, array: DiskArray, config: SpeedControlConfig, *,
                 eligible: Callable[[int], bool] = lambda _d: True,
                 budget: Optional[TransitionBudget] = None) -> None:
        self._sim = sim
        self._trace = sim.trace
        self._array = array
        #: drives indexed by disk id — the idle/busy hooks fire on every
        #: queue-drain/first-arrival edge, so skip the array.drive() hop
        self._drives = array.drives
        self.config = config
        self._eligible = eligible
        self._budget = budget
        self._timers: dict[int, ResettableTimer] = {}
        for disk_id in range(array.n_disks):
            self._timers[disk_id] = ResettableTimer(
                sim, config.idle_threshold_s,
                # default arg pins the loop variable
                (lambda d=disk_id: self._idle_expired(d)),
                priority=10,
            )
        # each timer's handle by disk id: a demand check cancels the timer
        # and the submit behind it fires on_disk_busy, which would cancel
        # it again, so both test the handle before calling anything
        self._idle_handles = [self._timers[d].handle for d in range(array.n_disks)]

    # ------------------------------------------------------------------
    # hooks to wire into the array
    # ------------------------------------------------------------------
    def on_disk_idle(self, disk_id: int) -> None:
        """Array hook: a drive's queue drained — start its idleness clock."""
        if self._eligible(disk_id) and self._drives[disk_id].speed is _HIGH:
            self._timers[disk_id].arm()

    def on_disk_busy(self, disk_id: int) -> None:
        """Array hook: an idle drive received work — stop its idleness clock."""
        handle = self._idle_handles[disk_id]
        if handle.seq >= 0:
            self._sim.cancel(handle)

    # ------------------------------------------------------------------
    def _idle_expired(self, disk_id: int) -> None:
        drive = self._drives[disk_id]
        if not drive.is_idle or drive.speed is not _HIGH:
            return
        if self._budget is not None and not self._budget.spend(disk_id):
            return
        if self._trace is not None:
            self._trace.emit(ev.POLICY_SPIN_DOWN, self._sim.now, disk=disk_id)
        drive.request_speed(_LOW)

    def check_spin_up(self, disk_id: int, *, incoming_jobs: int = 1) -> None:
        """Arrival-side demand rule: spin a LOW drive up when the backlog
        or estimated wait crosses the configured trigger.

        Call *before* submitting the arriving job(s) so the decision uses
        the pre-arrival queue plus ``incoming_jobs``.  A failed drive is
        left alone (it cannot transition; the arriving work will be
        redirected or failed by the fault domain).
        """
        drive = self._drives[disk_id]
        if drive.is_failed:
            return
        handle = self._idle_handles[disk_id]
        if handle.seq >= 0:
            self._sim.cancel(handle)
        if drive.effective_target_speed is _HIGH:
            return
        backlog = drive.queue_length + incoming_jobs
        if (backlog >= self.config.spin_up_queue_len
                or drive.estimated_wait_s() > self.config.spin_up_wait_s):
            if self._budget is not None and not self._budget.spend(disk_id):
                return
            if self._trace is not None:
                self._trace.emit(ev.POLICY_SPIN_UP, self._sim.now,
                                 disk=disk_id, backlog=backlog)
            drive.request_speed(_HIGH)

    def shutdown(self) -> None:
        """Cancel every armed idleness timer (end-of-run teardown)."""
        for timer in self._timers.values():
            timer.cancel()

    def set_idle_threshold(self, disk_id: int, threshold_s: float) -> None:
        """Rewrite one disk's idleness threshold H (READ's adaptation)."""
        require_positive(threshold_s, "threshold_s")
        self._timers[disk_id].interval = threshold_s

    def idle_threshold(self, disk_id: int) -> float:
        """Current idleness threshold H of one disk."""
        return self._timers[disk_id].interval


class Policy(abc.ABC):
    """Abstract energy-management policy.

    Lifecycle (driven by :class:`repro.experiments.runner.Simulation`):

    1. :meth:`bind` — receive kernel, array, and file set; install hooks.
    2. :meth:`initial_layout` — place every file; set initial speeds.
    3. :meth:`route` — called once per trace request, in arrival order.
    4. the kernel runs; the policy reacts through its installed hooks.
    """

    #: Human-readable policy name used in reports and figures.
    name: str = "abstract"

    def __init__(self) -> None:
        self.sim: Optional[Simulator] = None
        self.array: Optional[DiskArray] = None
        self.fileset: Optional[FileSet] = None
        self.completion_callback: Optional[Callable[[Job], None]] = None
        #: Installed by :class:`repro.faults.FaultInjector` when fault
        #: injection is active; ``None`` (the default) keeps the fast
        #: direct-submit path and today's bit-identical behaviour.
        self.fault_domain: Optional["FaultDomain"] = None
        #: Trace sink cached at :meth:`bind` time; ``None`` keeps every
        #: policy emission site a dead branch.
        self.trace = None

    # ------------------------------------------------------------------
    def bind(self, sim: Simulator, array: DiskArray, fileset: FileSet) -> None:
        """Attach the policy to a simulation; installs idle/busy hooks."""
        self.sim = sim
        self.trace = sim.trace
        self.array = array
        self.fileset = fileset
        array.set_idle_handler(self.on_disk_idle)
        array.set_busy_handler(self.on_disk_busy)

    def _require_bound(self) -> DiskArray:
        if self.array is None or self.sim is None or self.fileset is None:
            raise PolicyError(f"policy {self.name!r} used before bind()")
        return self.array

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_layout(self) -> None:
        """Place all files and configure initial drive speeds."""

    @abc.abstractmethod
    def route(self, request: Request) -> None:
        """Submit one arriving request to the array."""

    def on_disk_idle(self, disk_id: int) -> None:
        """Hook: a drive's queue drained (default: no reaction)."""

    def on_disk_busy(self, disk_id: int) -> None:
        """Hook: an idle drive received work (default: no reaction)."""

    def shutdown(self) -> None:
        """End-of-run teardown: stop periodic tasks and timers so the
        event queue can drain (default: no reaction)."""

    # ------------------------------------------------------------------
    # degraded-mode interface (consulted only under fault injection)
    # ------------------------------------------------------------------
    def alternate_targets(self, file_id: int) -> tuple[int, ...]:
        """Disks besides the primary that hold a servable copy of
        ``file_id`` (replicas, cache copies).  Layouts without redundancy
        return the default empty tuple — requests for a file whose only
        copy sits on a failed disk then fail."""
        return ()

    def on_disk_failed(self, disk_id: int) -> None:
        """Hook: ``disk_id`` just failed (default: no reaction).

        Policies holding metadata about copies on that disk (MAID's
        cache map, READ-replicate's replica map) must drop it here."""

    def on_disk_restored(self, disk_id: int) -> None:
        """Hook: ``disk_id``'s rebuild finished; primary data is back
        (default: no reaction)."""

    # ------------------------------------------------------------------
    def submit(self, request: Request, *, disk_id: Optional[int] = None) -> Job:
        """Submit a user request with the runner's metrics callback attached.

        Under fault injection the submit is mediated by the fault domain,
        which redirects away from failed disks (via
        :meth:`alternate_targets`) or fails the request.
        """
        array = self.array
        if array is None:
            array = self._require_bound()
        if self.fault_domain is not None:
            return self.fault_domain.submit_user_request(request, disk_id)
        return array.submit_request(request, disk_id=disk_id,
                                    on_complete=self.completion_callback)

    def describe(self) -> dict[str, object]:
        """Policy parameters for experiment records (override to extend)."""
        return {"name": self.name}
