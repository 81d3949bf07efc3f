"""The event loop: a heap-ordered future event list with stable ties.

Ordering contract
-----------------
Events fire in ascending ``(time, priority, seq)`` order:

* ``time`` — simulated seconds;
* ``priority`` — integer tiebreak for simultaneous events (lower fires
  first; e.g. "request completion" is processed before "idleness timer"
  at the same instant so the timer sees an up-to-date queue);
* ``seq`` — monotone insertion counter, making same-time same-priority
  events FIFO and the whole loop deterministic.

Cancellation is lazy: :meth:`Simulator.cancel` marks the handle and the
heap pop discards dead entries, which is O(1) per cancel instead of an
O(n) heap rebuild — idleness timers are cancelled constantly, so this
matters.

Hot-path layout
---------------
The heap stores ``(time, priority, seq, handle)`` tuples rather than the
handles themselves, so sift comparisons run as C tuple comparisons
(``seq`` is unique, so the handle element is never compared, and
handles define no ordering of their own).  A live-event counter makes
:attr:`Simulator.pending_count` O(1), and :meth:`Simulator.run` takes a
branch-free drain loop when neither ``until`` nor ``max_events`` is set.

Observability
-------------
The kernel carries two opt-in observation points, both off by default
and costing nothing while off:

* :attr:`Simulator.trace` — an opaque slot for a
  :class:`repro.obs.TraceBus`; the kernel never touches it itself
  (instrumented components read it at construction), it just gives
  every layer holding the ``Simulator`` one well-known place to find
  the bus.
* :meth:`Simulator.set_profiler` — attaches a
  :class:`repro.obs.KernelProfiler`-shaped object; the unbounded drain
  then runs a *separate* instrumented loop timing each action by its
  qualified name.  The uninstrumented ``_drain`` stays byte-for-byte
  untouched, so profiling-off throughput is unchanged.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Any, Callable, Optional, Protocol

__all__ = ["EventHandle", "Simulator", "SimulationError", "DispatchProfiler"]

Action = Callable[[], None]


class DispatchProfiler(Protocol):
    """What the kernel needs from a profiler: one call per dispatch.

    Implemented by :class:`repro.obs.KernelProfiler`; declared as a
    protocol so the kernel never imports the observability layer.
    """

    def record(self, handler: str, elapsed_s: float) -> None: ...

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling into the past, bad run bounds)."""


class EventHandle:
    """A scheduled event; keep it to :meth:`cancel <Simulator.cancel>` later.

    Attributes
    ----------
    time:
        Absolute simulated time at which the event fires.
    priority:
        Tiebreak rank among simultaneous events (lower first).
    """

    __slots__ = ("time", "priority", "seq", "action", "cancelled")

    def __init__(self, time: float, priority: int, seq: int, action: Action) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action: Optional[Action] = action
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, prio={self.priority}, seq={self.seq}, {state})"


class Simulator:
    """A discrete-event simulator clock plus future event list.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        if not math.isfinite(start_time):
            raise SimulationError(f"start_time must be finite, got {start_time!r}")
        self._now = float(start_time)
        # entries are (time, priority, seq, EventHandle); seq is unique so
        # comparisons never reach the handle
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq = 0
        self._live = 0
        self._events_executed = 0
        self._running = False
        self._stop = False
        #: Opaque slot for a :class:`repro.obs.TraceBus` (or ``None``).
        #: Set by the experiment runner before components are built;
        #: the kernel itself never reads it.
        self.trace: Optional[Any] = None
        self._profiler: Optional[DispatchProfiler] = None

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched since construction."""
        return self._events_executed

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def set_profiler(self, profiler: Optional[DispatchProfiler]) -> None:
        """Attach (or with ``None`` detach) a dispatch profiler.

        While attached, unbounded runs (:meth:`run_until_drained`, or
        :meth:`run` without bounds) time every action and report it by
        qualified name; bounded runs are never profiled (they are the
        debugging path, not the measured path).
        """
        if profiler is not None and not callable(getattr(profiler, "record", None)):
            raise SimulationError(
                f"profiler must have a record(handler, elapsed_s) method, "
                f"got {profiler!r}")
        self._profiler = profiler

    @property
    def profiler(self) -> Optional[DispatchProfiler]:
        """The attached dispatch profiler, if any."""
        return self._profiler

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Action, *, priority: int = 0) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative; a zero delay fires at
        the current time, after any already-queued events at this time.
        """
        now = self._now
        try:
            time = now + delay
        except TypeError:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}") from None
        # one comparison rejects NaN and negative delays; inf needs its own
        if not (time >= now) or time == _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
        # push inlined (schedule is called once or more per simulated event)
        if not callable(action):
            raise SimulationError(f"action must be callable, got {action!r}")
        if type(priority) is not int:
            priority = int(priority)
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, priority, seq, action)
        heapq.heappush(self._heap, (time, priority, seq, handle))
        self._live += 1
        return handle

    def schedule_at(self, time: float, action: Action, *, priority: int = 0) -> EventHandle:
        """Schedule ``action`` at absolute simulated ``time`` (>= now)."""
        try:
            in_future = time >= self._now
        except TypeError:
            raise SimulationError(f"event time must be finite, got {time!r}") from None
        if not in_future:
            if isinstance(time, (int, float)) and math.isfinite(time):
                raise SimulationError(
                    f"cannot schedule into the past: event time {time} < now {self._now}"
                )
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time == _INF:
            raise SimulationError(f"event time must be finite, got {time!r}")
        if type(time) is not float:
            time = float(time)
        # push inlined (same body as in schedule)
        if not callable(action):
            raise SimulationError(f"action must be callable, got {action!r}")
        if type(priority) is not int:
            priority = int(priority)
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, priority, seq, action)
        heapq.heappush(self._heap, (time, priority, seq, handle))
        self._live += 1
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event.  Cancelling twice (or after it fired) is a no-op."""
        if handle.cancelled:
            return
        handle.cancelled = True
        if handle.action is not None:  # still queued (fired handles are action-less)
            handle.action = None  # break reference cycles early
            self._live -= 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the running loop to return after the current action.

        Intended to be called from *inside* an event action (e.g. a
        metrics callback that has seen the last completion); a no-op when
        no loop is running.
        """
        self._stop = True

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].action is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Dispatch the single next event.  Returns ``False`` when drained."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = pop(heap)
            handle = entry[3]
            action = handle.action
            if action is None:  # lazily-cancelled entry
                continue
            handle.action = None
            self._now = entry[0]
            self._live -= 1
            self._events_executed += 1
            action()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        ``until`` is inclusive: events scheduled exactly at ``until``
        execute, and the clock is advanced to ``until`` on return even if
        the queue drained earlier (so post-run accounting covers the full
        horizon).  An action may call :meth:`request_stop` to end the run
        early.
        """
        if self._running:
            raise SimulationError("run() re-entered from inside an event action")
        if until is not None and (not math.isfinite(until) or until < self._now):
            raise SimulationError(f"until must be finite and >= now, got {until!r}")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events!r}")

        self._running = True
        self._stop = False
        try:
            if until is None and max_events is None:
                if self._profiler is None:
                    self._drain()
                else:
                    self._drain_profiled()
            else:
                self._run_bounded(until, max_events)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def run_until_drained(self) -> None:
        """Drain the queue on the fast path (no ``until``/``max_events``
        bookkeeping per event).  Equivalent to :meth:`run` with no bounds;
        honors :meth:`request_stop`.
        """
        if self._running:
            raise SimulationError("run() re-entered from inside an event action")
        self._running = True
        self._stop = False
        try:
            if self._profiler is None:
                self._drain()
            else:
                self._drain_profiled()
        finally:
            self._running = False

    # ------------------------------------------------------------------
    def _drain(self) -> None:
        # The kernel's hottest loop: everything pre-bound, no bound checks.
        heap = self._heap
        pop = heapq.heappop
        while heap and not self._stop:
            entry = pop(heap)
            handle = entry[3]
            action = handle.action
            if action is None:
                continue
            handle.action = None
            self._now = entry[0]
            self._live -= 1
            self._events_executed += 1
            action()

    def _drain_profiled(self) -> None:
        # _drain with per-action timing; a separate loop so the
        # profiling-off path carries zero extra work per event.
        heap = self._heap
        pop = heapq.heappop
        profiler = self._profiler
        assert profiler is not None
        record = profiler.record
        timer = perf_counter
        while heap and not self._stop:
            entry = pop(heap)
            handle = entry[3]
            action = handle.action
            if action is None:
                continue
            handle.action = None
            self._now = entry[0]
            self._live -= 1
            self._events_executed += 1
            name = getattr(action, "__qualname__", None)
            if name is None:  # bound method / partial: name the underlying func
                name = getattr(getattr(action, "__func__", action),
                               "__qualname__", repr(action))
            start = timer()
            action()
            record(name, timer() - start)

    def _run_bounded(self, until: Optional[float], max_events: Optional[int]) -> None:
        heap = self._heap
        pop = heapq.heappop
        dispatched = 0
        while heap and not self._stop:
            if max_events is not None and dispatched >= max_events:
                break
            head = heap[0]
            if head[3].action is None:
                pop(heap)
                continue
            if until is not None and head[0] > until:
                break
            pop(heap)
            handle = head[3]
            action = handle.action
            handle.action = None
            self._now = head[0]
            self._live -= 1
            self._events_executed += 1
            action()
            dispatched += 1
