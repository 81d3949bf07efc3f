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
    """

    def __init__(self, sim: Simulator, interval: float, action: Callable[[], None],
                 *, priority: int = 0) -> None:
        self._sim = sim
        self.interval = require_positive(interval, "interval")
        self._action = action
        self._priority = priority
        self._handle: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        """Whether the timer currently has a pending expiry."""
        return self._handle is not None and not self._handle.cancelled

    def arm(self) -> None:
        """Start (or restart) the countdown from the current sim time."""
        self.cancel()
        self._handle = self._sim.schedule(self.interval, self._fire, priority=self._priority)

    # reset is an alias that reads better at call sites reacting to activity
    reset = arm

    def cancel(self) -> None:
        """Stop the countdown; no-op when not armed."""
        if self._handle is not None:
            self._sim.cancel(self._handle)
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._action()


class PeriodicTask:
    """Run ``action(tick_index)`` every ``period`` seconds until stopped.

    The first tick fires at ``start_offset`` (default: one full period
    after creation).  The action may call :meth:`stop` to end the series,
    and may change :attr:`period` to re-pace future ticks (used by
    adaptive-epoch experiments).
    """

    def __init__(self, sim: Simulator, period: float, action: Callable[[int], None],
                 *, start_offset: Optional[float] = None, priority: int = 0) -> None:
        self._sim = sim
        self.period = require_positive(period, "period")
        self._action = action
        self._priority = priority
        self._tick = 0
        self._stopped = False
        first = self.period if start_offset is None else start_offset
        if first < 0:
            raise ValueError(f"start_offset must be >= 0, got {start_offset!r}")
        self._handle: Optional[EventHandle] = sim.schedule(first, self._fire, priority=priority)

    def stop(self) -> None:
        """Cancel all future ticks (safe to call from inside the action)."""
        self._stopped = True
        if self._handle is not None:
            self._sim.cancel(self._handle)
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        if self._stopped:
            return
        index = self._tick
        self._tick += 1
        self._action(index)
        if not self._stopped:
            self._handle = self._sim.schedule(self.period, self._fire, priority=self._priority)
