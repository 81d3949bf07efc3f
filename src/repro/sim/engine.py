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
O(n) heap rebuild.

Handles that move
-----------------
A handle names its owner's *current* event, not one firing: an
idleness timer, a drive's completion or transition, a periodic tick
each own one :class:`EventHandle` for their whole life and move it with
:meth:`Simulator.reschedule`, which arms, re-arms or moves it.  Each
move takes the next ``seq``, exactly the key ``cancel`` + ``schedule``
would give, so the dispatch order (and every result bit) is the same;
what changes is the heap traffic:

* A handle carries at most one heap entry, the one whose key it last
  pushed.  Moved to a time ``>=`` that entry's, the handle keeps the
  entry: it takes the new key, and when the stale entry reaches the top
  the loop pushes it back under the current key (one ``heapreplace``).
  That pop runs nothing and counts in neither
  :attr:`Simulator.events_executed` nor :attr:`Simulator.pending_count`.
  A timer armed and cancelled many times within one interval thus costs
  one heap entry, not one per arm.
* Moved earlier than that entry, the handle pushes a new one; the old
  entry is dropped when it reaches the top.
* A fired or cancelled handle re-arms as the same object.

The handle never fires late: its stale entry's key is below its own,
so the entry reaches the top, and is pushed back under the current key,
before anything that sorts between the two keys fires.

The arrival slot
----------------
A trace-driven run streams its arrivals: each arrival action hands the
kernel the next one.  At most one arrival is ever pending, so it lives
in a dedicated slot (:meth:`Simulator.set_arrival`) instead of the heap,
and pays no ``EventHandle``, ``heappush`` or ``heappop``.  The slot
fires when its time is ``<=`` the heap head's time, which is exactly
the order it would have as a heap event of priority −1: it precedes
every heap event at its own instant, because the kernel takes no
priority below 0.  A dead or stale head needs no special case: every
live event lies at or after it.  A pending arrival counts in
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
from typing import Any, Callable, NoReturn, Optional

__all__ = ["EventHandle", "Simulator", "SimulationError"]

Action = Callable[[], None]

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling into the past, bad run bounds)."""


def _reject(action: object, priority: object) -> NoReturn:
    """Raise for the argument that failed an event's checks.

    A priority is an ``int >= 0`` (``bool`` is not an ``int`` here): a
    negative one would sort before the arrival slot's implicit −1.
    """
    if not callable(action):
        raise SimulationError(f"action must be callable, got {action!r}")
    raise SimulationError(f"priority must be an int >= 0, got {priority!r}")


class EventHandle:
    """One owner's event: pending, or idle until it is (re)scheduled.

    A handle names its owner's *current* event.  :meth:`Simulator.schedule`
    returns a fresh one for a one-off event; an owner that re-arms (a
    timer, a drive's completion) builds one and moves it with
    :meth:`Simulator.reschedule` for its whole life.  Keep it to
    :meth:`cancel <Simulator.cancel>` the event.

    Attributes
    ----------
    time:
        Absolute simulated time of the current (or last) event.
    priority:
        Tiebreak rank among simultaneous events (lower first); an
        ``int >= 0``, fixed for the handle's life.
    seq:
        The pending event's insertion rank, or ``-1`` while idle.
    action:
        What the event runs.
    """

    __slots__ = ("time", "priority", "seq", "action", "_entry")

    def __init__(self, action: Action, *, priority: int = 0) -> None:
        if type(priority) is not int or priority < 0 or not callable(action):
            _reject(action, priority)
        self.time = _INF
        self.priority = priority
        self.seq = -1
        self.action = action
        # the heap entry carrying this handle, or None; its key is at or
        # below the handle's current one while the handle is pending
        self._entry: Optional[tuple[float, int, int, EventHandle]] = None

    @property
    def pending(self) -> bool:
        """Whether the handle's event is scheduled and has not fired."""
        return self.seq >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.seq >= 0 else "idle"
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
        """Schedule a one-off ``action`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative; a zero delay fires at
        the current time, after any already-queued events at this time.
        ``priority`` must be an ``int >= 0`` (the arrival slot ranks
        below every heap event).  Returns the event's fresh handle.
        """
        if type(priority) is not int or priority < 0 or not callable(action):
            _reject(action, priority)
        now = self.now
        try:
            time = now + delay
        except TypeError:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}") from None
        if not (time >= now) or time == _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        # the checks ran above, so the fresh handle skips the __init__ frame
        handle = EventHandle.__new__(EventHandle)
        handle.time = time
        handle.priority = priority
        handle.seq = seq
        handle.action = action
        handle._entry = entry = (time, priority, seq, handle)
        heapq.heappush(self._heap, entry)
        self._live += 1
        return handle

    def reschedule(self, handle: EventHandle, delay: float) -> None:
        """Make ``handle``'s event fire ``delay`` seconds from now.

        Arms an idle (fired, cancelled or new) handle, or moves a pending
        one; either way the event takes the key a fresh :meth:`schedule`
        would, so this equals ``cancel`` + ``schedule`` in every
        dispatch.  A handle moved later keeps its heap entry (see the
        module docstring).  ``delay`` is checked as by :meth:`schedule`.
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
        seq = self._seq
        self._seq = seq + 1
        if handle.seq < 0:
            self._live += 1
        handle.time = time
        handle.seq = seq
        entry = handle._entry
        if entry is None or time < entry[0]:
            handle._entry = entry = (time, handle.priority, seq, handle)
            heapq.heappush(self._heap, entry)

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
        """Cancel the event ``handle`` names, its owner's current one.

        A no-op when the handle is idle (already fired or cancelled).
        The handle stays its owner's: :meth:`reschedule` re-arms it.
        """
        if handle.seq >= 0:
            handle.seq = -1
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
        # loop returns before any event later than ``until``.  A head
        # whose seq is not its handle's is no live event: the handle's
        # stale entry (moved later: push it back under the current key)
        # or a dead one (drop it).
        heap = self._heap
        pop = heapq.heappop
        replace = heapq.heapreplace
        while not self._stop:
            time = self._arrival_time
            if heap and (entry := heap[0])[0] < time:
                time = entry[0]
                if time > until:
                    return
                handle = entry[3]
                if entry[2] != handle.seq:
                    if entry is handle._entry:
                        if handle.seq >= 0:
                            handle._entry = entry = (handle.time, handle.priority,
                                                     handle.seq, handle)
                            replace(heap, entry)
                            continue
                        handle._entry = None
                    pop(heap)
                    continue
                pop(heap)
                handle.seq = -1
                handle._entry = None
                action = handle.action
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
