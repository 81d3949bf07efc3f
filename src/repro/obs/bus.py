"""The harness trace bus: structured event fan-out for sweep-level events.

A sweep's executor (:mod:`repro.experiments.resilience`) emits its
``harness.*`` lifecycle events on a :class:`TraceBus`, and subscribers
such as :class:`~repro.obs.status.SweepStatusWriter` turn them into a
live status feed.  :meth:`TraceBus.emit` assigns a monotone sequence
number, builds a :class:`~repro.obs.events.TraceEvent`, and forwards it
to every subscriber in subscription order.

A simulation cell does not use the bus: its producers (kernel, drives,
array, policies, fault injector) call ``emit`` on the cell's
:class:`~repro.obs.export.JsonlTraceWriter` directly, or on nothing when
tracing is off — every emission site is guarded by a single
``is not None`` check, so an untraced run does no event construction,
no dict allocation and no dispatch.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.events import TraceEvent
from repro.util.validation import require

__all__ = ["TraceBus"]

Subscriber = Callable[[TraceEvent], None]


class TraceBus:
    """Fan-out of :class:`TraceEvent` records to subscribers.

    Examples
    --------
    >>> bus = TraceBus()
    >>> seen = []
    >>> bus.subscribe(seen.append)
    >>> bus.emit("engine.start", 0.0, policy="read")
    >>> seen[0].type, seen[0].data["policy"]
    ('engine.start', 'read')
    """

    __slots__ = ("_subscribers", "_seq")

    def __init__(self) -> None:
        self._subscribers: list[Subscriber] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Attach ``subscriber``; returns it (decorator-friendly)."""
        require(callable(subscriber), f"subscriber must be callable, got {subscriber!r}")
        self._subscribers.append(subscriber)
        return subscriber

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, type_: str, time_: float, **data: object) -> None:
        """Emit one event to every subscriber."""
        seq = self._seq
        self._seq = seq + 1
        event = TraceEvent(seq, time_, type_, data)
        for subscriber in self._subscribers:
            subscriber(event)
