"""Timer utilities layered on the kernel.

Two recurring patterns in the disk-array simulator get first-class
helpers here:

* :class:`ResettableTimer` — the *idleness threshold* pattern: arm when a
  disk drains, cancel on the next arrival, fire (spin down) if the disk
  stays idle for the full interval.  READ's adaptive threshold (Fig. 6,
  line 22 of the paper) just rewrites :attr:`ResettableTimer.interval`.
* :class:`PeriodicTask` — the *epoch* pattern: ATM/FRD bookkeeping in
  READ and PDC's periodic migration both run a callback every ``period``
  seconds.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventHandle, Simulator
from repro.util.validation import require_positive

__all__ = ["ResettableTimer", "PeriodicTask"]


class ResettableTimer:
    """One-shot timer that can be re-armed, reset, or cancelled.

    The ``action`` fires once, ``interval`` seconds after the most recent
    :meth:`arm`/:meth:`reset`, unless :meth:`cancel` intervenes first.
    The timer owns one :class:`~repro.sim.engine.EventHandle` for its
    whole life and moves it in place on every (re)arm.
    """

    def __init__(self, sim: Simulator, interval: float, action: Callable[[], None],
                 *, priority: int = 0) -> None:
        self._sim = sim
        self.interval = require_positive(interval, "interval")
        #: The timer's one handle, pending exactly while the timer is
        #: armed: a hot caller can test ``handle.seq >= 0`` and skip a
        #: :meth:`cancel` that would be a no-op.
        self.handle = EventHandle(action, priority=priority)

    @property
    def armed(self) -> bool:
        """Whether the timer currently has a pending expiry."""
        return self.handle.pending

    def arm(self) -> None:
        """Start (or restart) the countdown from the current sim time."""
        self._sim.reschedule(self.handle, self.interval)

    # reset is an alias that reads better at call sites reacting to activity
    reset = arm

    def cancel(self) -> None:
        """Stop the countdown; no-op when not armed."""
        self._sim.cancel(self.handle)


class PeriodicTask:
    """Run ``action(tick_index)`` every ``period`` seconds until stopped.

    The first tick fires at ``start_offset`` (default: one full period
    after creation).  The action may call :meth:`stop` to end the series,
    and may change :attr:`period` to re-pace future ticks (used by
    adaptive-epoch experiments).  Every tick re-arms the same
    :class:`~repro.sim.engine.EventHandle`.
    """

    def __init__(self, sim: Simulator, period: float, action: Callable[[int], None],
                 *, start_offset: Optional[float] = None, priority: int = 0) -> None:
        self._sim = sim
        self.period = require_positive(period, "period")
        self._action = action
        self._tick = 0
        self._stopped = False
        first = self.period if start_offset is None else start_offset
        if first < 0:
            raise ValueError(f"start_offset must be >= 0, got {start_offset!r}")
        self._handle = EventHandle(self._fire, priority=priority)
        sim.reschedule(self._handle, first)

    def stop(self) -> None:
        """Cancel all future ticks (safe to call from inside the action)."""
        self._stopped = True
        self._sim.cancel(self._handle)

    def _fire(self) -> None:
        index = self._tick
        self._tick += 1
        self._action(index)
        if not self._stopped:
            self._sim.reschedule(self._handle, self.period)
