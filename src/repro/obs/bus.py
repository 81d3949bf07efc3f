"""The trace bus: structured event fan-out with a zero-cost off switch.

Instrumented layers (kernel, drives, array, policies, fault injector)
hold a reference to the simulation's bus — or ``None`` when observability
is off.  Every emission site is guarded by a single ``is not None``
check, so a run with no bus attached does no event construction, no
dict allocation, and no dispatch: the faults-off hot path stays
bit-identical to an uninstrumented build (asserted by the golden tests
and the throughput regression gate).

When a bus *is* attached, :meth:`TraceBus.emit` assigns a monotone
sequence number, builds a :class:`~repro.obs.events.TraceEvent`, and
forwards it to every subscriber in subscription order.  Determinism
contract: the only inputs are simulated time and the producers' payloads
— no wall-clock, no ids — so two runs of the same seeded configuration
emit byte-identical streams.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.obs.events import TraceEvent
from repro.util.validation import require

__all__ = ["TraceBus"]

Subscriber = Callable[[TraceEvent], None]

IdMap = Callable[[int], int]


class TraceBus:
    """Fan-out of :class:`TraceEvent` records to subscribers.

    ``id_maps`` rewrites integer id fields at emission time (the shard
    worker remaps local disk/file ids to global ones), keyed by payload
    field name.  It defaults to off and costs nothing when unset; field
    order in the payload never affects the exported bytes (the exporter
    sorts keys).

    Examples
    --------
    >>> bus = TraceBus()
    >>> seen = []
    >>> bus.subscribe(seen.append)
    >>> bus.emit("engine.start", 0.0, policy="read")
    >>> seen[0].type, seen[0].data["policy"]
    ('engine.start', 'read')
    """

    __slots__ = ("_subscribers", "_seq", "_id_maps")

    def __init__(self, *, id_maps: Optional[Mapping[str, IdMap]] = None) -> None:
        self._subscribers: list[Subscriber] = []
        self._seq = 0
        # a sorted tuple of (field, map) pairs: deterministic application
        # order regardless of the mapping the caller handed in
        self._id_maps: Optional[tuple[tuple[str, IdMap], ...]] = (
            tuple(sorted(id_maps.items())) if id_maps else None)

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
        """Emit one event; called only from sites that checked the bus
        is attached, so this never needs its own on/off branch."""
        seq = self._seq
        self._seq = seq + 1
        if self._id_maps is not None:
            for field, id_map in self._id_maps:
                value = data.get(field)
                if value is not None:
                    data[field] = id_map(value)  # type: ignore[arg-type]
        event = TraceEvent(seq, time_, type_, data)
        for subscriber in self._subscribers:
            subscriber(event)
