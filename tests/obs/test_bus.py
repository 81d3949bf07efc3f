"""Trace bus: fan-out, sequencing, subscription management."""

import pytest

from repro.obs import events as ev
from repro.obs.bus import TraceBus
from repro.obs.events import TraceEvent


class TestEmission:
    def test_subscriber_receives_typed_event(self):
        bus = TraceBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(ev.ENGINE_START, 0.0, policy="read", n_disks=4)
        assert len(seen) == 1
        event = seen[0]
        assert isinstance(event, TraceEvent)
        assert event.type == ev.ENGINE_START
        assert event.time == 0.0
        assert event.data == {"policy": "read", "n_disks": 4}

    def test_sequence_numbers_are_monotone_from_zero(self):
        bus = TraceBus()
        seen = []
        bus.subscribe(seen.append)
        for t in (0.0, 1.5, 1.5, 3.0):
            bus.emit(ev.REQUEST_SUBMIT, t, disk=0)
        assert [e.seq for e in seen] == [0, 1, 2, 3]
        assert bus.events_emitted == 4

    def test_fan_out_preserves_subscription_order(self):
        bus = TraceBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.emit(ev.ENGINE_STOP, 1.0)
        assert order == ["first", "second"]

    def test_emit_with_no_subscribers_still_counts(self):
        bus = TraceBus()
        bus.emit(ev.DISK_REPLACE, 5.0, disk=2)
        assert bus.events_emitted == 1

    def test_emit_many(self):
        bus = TraceBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit_many([(ev.REQUEST_SUBMIT, 0.0, {"disk": 0}),
                       (ev.REQUEST_COMPLETE, 1.0, {"disk": 0})])
        assert [e.type for e in seen] == [ev.REQUEST_SUBMIT, ev.REQUEST_COMPLETE]


class TestSubscriptions:
    def test_subscribe_returns_subscriber(self):
        bus = TraceBus()
        fn = bus.subscribe(lambda e: None)
        assert callable(fn)
        assert bus.subscriber_count == 1

    def test_unsubscribe_detaches(self):
        bus = TraceBus()
        seen = []
        # bound methods compare equal across accesses, so list.remove works
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.emit(ev.ENGINE_STOP, 0.0)
        assert seen == []
        assert bus.subscriber_count == 0

    def test_unsubscribe_unknown_raises(self):
        with pytest.raises(ValueError):
            TraceBus().unsubscribe(lambda e: None)

    def test_non_callable_subscriber_rejected(self):
        with pytest.raises(ValueError):
            TraceBus().subscribe("not callable")
