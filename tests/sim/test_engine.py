"""Kernel semantics: ordering, cancellation, run bounds, the arrival slot,
misuse errors."""

import pytest

from repro.sim.engine import EventHandle, SimulationError, Simulator


def test_clock_starts_at_zero_by_default():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.5).now == 5.5


def test_infinite_start_time_rejected():
    with pytest.raises(SimulationError):
        Simulator(start_time=float("inf"))


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_priority_breaks_ties():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("low_prio"), priority=5)
    sim.schedule(1.0, lambda: fired.append("high_prio"), priority=0)
    sim.run()
    assert fired == ["high_prio", "low_prio"]


@pytest.mark.parametrize("priority", [-1, -5, 1.7, 1.0, True, False, "1", None])
def test_bad_priority_rejected(priority):
    """Negative priorities would sort before the arrival slot's implicit
    -1; floats and bools would be silently coerced."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="priority"):
        sim.schedule(1.0, lambda: None, priority=priority)
    with pytest.raises(SimulationError, match="priority"):
        EventHandle(lambda: None, priority=priority)
    assert sim.pending_count == 0


def test_same_time_same_priority_is_fifo():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(1.0, (lambda k=i: fired.append(k)))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_zero_delay_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [1.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_schedule_into_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.set_arrival(1.0, lambda: None)


def test_non_callable_action_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(1.0, "not callable")


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    sim.cancel(handle)
    sim.run()
    assert fired == []


def test_double_cancel_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.cancel(handle)
    sim.cancel(handle)
    sim.run()


def test_cancel_one_of_many():
    sim = Simulator()
    fired = []
    keep = sim.schedule(1.0, lambda: fired.append("keep"))
    drop = sim.schedule(1.0, lambda: fired.append("drop"))
    sim.cancel(drop)
    sim.run()
    assert fired == ["keep"]
    assert keep.time == 1.0


def test_run_until_is_inclusive_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append(2.0))
    sim.schedule(5.0, lambda: fired.append(5.0))
    sim.run(until=2.0)
    assert fired == [2.0]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == [2.0, 5.0]
    assert sim.now == 10.0  # advanced even though the queue drained at 5


def test_run_until_before_now_rejected():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_events_executed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_reentrant_run_rejected():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_actions_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(depth: int) -> None:
        fired.append(sim.now)
        if depth:
            sim.schedule(1.0, lambda: chain(depth - 1))

    sim.schedule(1.0, lambda: chain(3))
    sim.run()
    assert fired == [1.0, 2.0, 3.0, 4.0]


def test_run_until_drained_matches_unbounded_run():
    def build():
        s = Simulator()
        fired = []
        s.schedule(2.0, lambda: fired.append((s.now, "b")))
        s.schedule(1.0, lambda: fired.append((s.now, "a")))
        s.schedule(1.0, lambda: s.schedule(0.5, lambda: fired.append((s.now, "c"))))
        return s, fired

    ref_sim, ref_fired = build()
    ref_sim.run()
    sim, fired = build()
    sim.run_until_drained()
    assert fired == ref_fired
    assert sim.now == ref_sim.now
    assert sim.events_executed == ref_sim.events_executed


def test_run_until_drained_rejects_reentry():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run_until_drained()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run_until_drained()
    assert len(errors) == 1


def test_request_stop_ends_run_after_current_action():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: (fired.append(2), sim.request_stop()))
    sim.schedule(3.0, lambda: fired.append(3))
    sim.run_until_drained()
    assert fired == [1, 2]
    assert sim.pending_count == 1  # the 3.0 event is still queued
    sim.run_until_drained()  # a fresh run clears the stop flag
    assert fired == [1, 2, 3]
    assert sim.pending_count == 0


def test_request_stop_outside_run_does_not_stick():
    sim = Simulator()
    fired = []
    sim.request_stop()  # no loop running: must not cancel the next run
    sim.schedule(1.0, lambda: fired.append(1))
    sim.run()
    assert fired == [1]


def test_pending_count_tracks_schedule_fire_cancel():
    sim = Simulator()
    assert sim.pending_count == 0
    handles = [sim.schedule(float(t), lambda: None) for t in range(1, 6)]
    assert sim.pending_count == 5
    sim.cancel(handles[0])
    sim.cancel(handles[0])  # double-cancel must not double-decrement
    assert sim.pending_count == 4
    sim.run(until=3.0)  # fires t=2 and t=3 (t=1 was cancelled)
    assert sim.pending_count == 2
    sim.run()
    assert sim.pending_count == 0


# ----------------------------------------------------------------------
# the arrival slot
# ----------------------------------------------------------------------
def _arrivals(sim, times, fired):
    """Chain ``times`` through the arrival slot, as the runner does."""
    pending = iter(times)

    def arrive():
        fired.append(("arrival", sim.now))
        nxt = next(pending, None)
        if nxt is not None:
            sim.set_arrival(nxt, arrive)

    sim.set_arrival(next(pending), arrive)


def test_arrival_precedes_heap_events_at_its_instant():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(("heap", sim.now)))
    sim.schedule(2.0, lambda: fired.append(("heap", sim.now)))
    _arrivals(sim, [1.0, 1.0, 1.5, 2.0], fired)
    sim.run()
    assert fired == [("arrival", 1.0), ("arrival", 1.0), ("heap", 1.0),
                     ("arrival", 1.5), ("arrival", 2.0), ("heap", 2.0)]


def test_arrival_after_a_cancelled_head():
    sim = Simulator()
    fired = []
    dead = sim.schedule(1.0, lambda: fired.append(("dead", sim.now)))
    sim.schedule(3.0, lambda: fired.append(("heap", sim.now)))
    sim.cancel(dead)
    _arrivals(sim, [2.0], fired)
    sim.run()
    assert fired == [("arrival", 2.0), ("heap", 3.0)]


def test_second_pending_arrival_rejected():
    sim = Simulator()
    sim.set_arrival(1.0, lambda: None)
    with pytest.raises(SimulationError, match="already pending"):
        sim.set_arrival(2.0, lambda: None)


@pytest.mark.parametrize("time", [float("nan"), float("inf"), -1.0, "1.0"])
def test_bad_arrival_time_rejected(time):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.set_arrival(time, lambda: None)
    assert sim.pending_count == 0


def test_request_stop_inside_an_arrival():
    sim = Simulator()
    fired = []

    def arrive():
        fired.append(sim.now)
        sim.set_arrival(sim.now + 1.0, arrive)
        if len(fired) == 2:
            sim.request_stop()

    sim.set_arrival(1.0, arrive)
    sim.schedule(10.0, lambda: fired.append("heap"))
    sim.run_until_drained()
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0
    assert sim.pending_count == 2  # the next arrival and the heap event


def test_run_until_fires_an_arrival_exactly_at_until():
    sim = Simulator()
    fired = []
    _arrivals(sim, [2.0, 5.0], fired)
    sim.run(until=2.0)
    assert fired == [("arrival", 2.0)]
    assert sim.now == 2.0
    assert sim.pending_count == 1


def test_run_until_leaves_a_later_arrival_for_the_next_run():
    sim = Simulator()
    fired = []
    _arrivals(sim, [5.0], fired)
    sim.run(until=4.0)
    assert fired == []
    assert sim.now == 4.0  # the clock advances to the bound
    assert sim.pending_count == 1
    sim.run(until=6.0)
    assert fired == [("arrival", 5.0)]
    assert sim.now == 6.0


def test_arrivals_count_as_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, lambda: None)
    _arrivals(sim, [1.0, 2.0, 3.0], fired)
    assert sim.pending_count == 2  # one heap event, one pending arrival
    sim.run(until=1.0)
    assert sim.events_executed == 1
    assert sim.pending_count == 2  # the fired arrival handed over the next
    sim.run()
    assert sim.events_executed == 4
    assert sim.pending_count == 0
