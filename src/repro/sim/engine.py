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

The arrival slot
----------------
A trace-driven run streams its arrivals: each arrival action hands the
kernel the next one.  At most one arrival is ever pending, so it lives
in a dedicated slot (:meth:`Simulator.set_arrival`) instead of the heap,
and pays no ``EventHandle``, ``heappush`` or ``heappop``.  The slot
fires when its time is ``<=`` the heap head's time, which is exactly
the order it would have as a heap event of priority −1: it precedes
every heap event at its own instant, because every component schedules
at priority ``>= 0``.  A dead (cancelled) head needs no special case:
every live entry lies at or after it.  A pending arrival counts in
:attr:`Simulator.pending_count`, and a fired one in
:attr:`Simulator.events_executed`, like any event.

Hot-path layout
---------------
The heap stores ``(time, priority, seq, handle)`` tuples rather than the
handles themselves, so sift comparisons run as C tuple comparisons
(``seq`` is unique, so the handle element is never compared, and
handles define no ordering of their own).  A live-event counter makes
:attr:`Simulator.pending_count` O(1), and :attr:`Simulator.now` is a
plain attribute that only the loop writes.  There is one event loop,
:meth:`Simulator._drain`: an unbounded drain runs it with an infinite
stop time, so :meth:`Simulator.run` with ``until`` costs one float
comparison per event and no second loop.

:attr:`Simulator.trace` is an opaque slot for a trace sink (the cell's
:class:`repro.obs.JsonlTraceWriter`); the kernel never touches it
itself (instrumented components read it at construction), it just gives
every layer holding the ``Simulator`` one well-known place to find the
sink.  Per-handler timing is ``python -m cProfile``'s job.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

__all__ = ["EventHandle", "Simulator", "SimulationError"]

Action = Callable[[], None]

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
        #: Current simulated time in seconds; only the event loop writes it.
        self.now = float(start_time)
        # entries are (time, priority, seq, EventHandle); seq is unique so
        # comparisons never reach the handle
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq = 0
        self._live = 0
        self._events_executed = 0
        self._running = False
        self._stop = False
        # the arrival slot: its action, or None, and its time (inf if empty)
        self._arrival: Optional[Action] = None
        self._arrival_time = _INF
        #: Opaque slot for a trace sink with ``emit(type, time, **data)``
        #: (the cell's :class:`repro.obs.JsonlTraceWriter`) or ``None``.
        #: Set by the experiment runner before components are built;
        #: the kernel itself never reads it.
        self.trace: Optional[Any] = None

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Total number of events dispatched since construction."""
        return self._events_executed

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued, the
        pending arrival included.  O(1)."""
        return self._live

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Action, *, priority: int = 0) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative; a zero delay fires at
        the current time, after any already-queued events at this time.
        """
        now = self.now
        try:
            time = now + delay
        except TypeError:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}") from None
        # one comparison rejects NaN and negative delays; inf needs its own
        if not (time >= now) or time == _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
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

    def set_arrival(self, time: float, action: Action) -> None:
        """Fill the arrival slot: run ``action`` at absolute ``time``.

        The slot holds at most one arrival (the runner's streamed
        dispatch hands over the next one from inside the current one) and
        orders it like a heap event of priority −1 (see the module
        docstring).  ``time`` must be finite and ``>= now``.  A filled
        slot cannot be cancelled.
        """
        if self._arrival is not None:
            raise SimulationError("an arrival is already pending")
        try:
            valid = self.now <= time < _INF  # False for NaN too
        except TypeError:
            valid = False
        if not valid:
            raise SimulationError(
                f"arrival time must be finite and >= now ({self.now}), got {time!r}")
        if type(time) is not float:
            time = float(time)
        self._arrival = action
        self._arrival_time = time
        self._live += 1

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

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` is reached.

        ``until`` is inclusive: events scheduled exactly at ``until``
        execute, and the clock is advanced to ``until`` on return even if
        the queue drained earlier (so post-run accounting covers the full
        horizon).  An action may call :meth:`request_stop` to end the run
        early.
        """
        if until is None:
            self.run_until_drained()
            return
        if not math.isfinite(until) or until < self.now:
            raise SimulationError(f"until must be finite and >= now, got {until!r}")
        self._run(until)
        if self.now < until:
            self.now = until

    def run_until_drained(self) -> None:
        """Run until the queue drains; :meth:`run` with no bound.

        Honors :meth:`request_stop`.
        """
        self._run(_INF)

    # ------------------------------------------------------------------
    def _run(self, until: float) -> None:
        if self._running:
            raise SimulationError("run() re-entered from inside an event action")
        self._running = True
        self._stop = False
        try:
            self._drain(until)
        finally:
            self._running = False

    def _drain(self, until: float) -> None:
        # The kernel's one event loop: the next event is the arrival slot
        # when its time is <= the heap head's, else the heap head; the
        # loop returns before any event later than ``until``.
        heap = self._heap
        pop = heapq.heappop
        while not self._stop:
            time = self._arrival_time
            if heap and (entry := heap[0])[0] < time:
                time = entry[0]
                if time > until:
                    return
                pop(heap)
                handle = entry[3]
                action = handle.action
                if action is None:  # lazily cancelled
                    continue
                handle.action = None
            else:
                action = self._arrival
                if action is None or time > until:
                    return
                self._arrival = None
                self._arrival_time = _INF
            self.now = time
            self._live -= 1
            self._events_executed += 1
            action()
