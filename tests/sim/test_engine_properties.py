"""Property-based kernel tests: ordering and cancellation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventHandle, Simulator

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(times, min_size=1, max_size=200))
@settings(max_examples=100)
def test_dispatch_order_is_sorted_by_time(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, (lambda t=d: fired.append(t)))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.tuples(times, st.integers(0, 20)), min_size=1, max_size=100))
@settings(max_examples=100)
def test_dispatch_order_respects_time_then_priority(entries):
    sim = Simulator()
    fired = []
    for i, (t, prio) in enumerate(entries):
        sim.schedule(t, (lambda k=(t, prio, i): fired.append(k)), priority=prio)
    sim.run()
    # (time, priority, insertion order) must be non-decreasing
    assert fired == sorted(fired)


@given(st.lists(times, min_size=2, max_size=100), st.data())
@settings(max_examples=100)
def test_cancelled_events_never_fire_and_others_all_do(delays, data):
    sim = Simulator()
    fired = []
    handles = [sim.schedule(d, (lambda k=i: fired.append(k))) for i, d in enumerate(delays)]
    to_cancel = data.draw(st.sets(st.integers(0, len(delays) - 1), max_size=len(delays)))
    for idx in to_cancel:
        sim.cancel(handles[idx])
    sim.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


@given(st.lists(times, min_size=1, max_size=50), times)
@settings(max_examples=100)
def test_run_until_partitions_the_event_set(delays, cut):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, (lambda t=d: fired.append(t)))
    sim.run(until=cut)
    assert all(t <= cut for t in fired)
    assert sim.pending_count == sum(1 for d in delays if d > cut)


# few distinct instants, so arrivals, heap events and cancellations tie often
instants = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0])


@given(st.lists(st.tuples(instants, st.integers(0, 3)), max_size=30),
       st.lists(instants, min_size=1, max_size=15),
       st.data())
@settings(max_examples=200)
def test_arrival_slot_orders_like_priority_minus_one(heap_events, arrival_times,
                                                     data):
    """Arrivals streamed through the slot interleave with heap events in
    the reference ``(time, priority, seq)`` order with arrivals at
    priority -1, through pre-run and in-run (lazy) cancellations and
    stepped ``run(until=...)`` calls."""
    arrival_times = sorted(arrival_times)
    n_heap = len(heap_events)
    cancelled_before = data.draw(st.sets(st.integers(0, max(n_heap - 1, 0)),
                                         max_size=n_heap)) if n_heap else set()
    # arrival k cancels heap event cancels_by[k] (if still pending)
    cancels_by = data.draw(st.lists(
        st.one_of(st.none(), st.integers(0, max(n_heap - 1, 0))) if n_heap
        else st.none(),
        min_size=len(arrival_times), max_size=len(arrival_times)))
    cuts = sorted(data.draw(st.lists(instants, max_size=3)))

    sim = Simulator()
    fired = []
    handles = [sim.schedule(t, (lambda k=k: fired.append(("heap", k))), priority=p)
               for k, (t, p) in enumerate(heap_events)]
    for k in cancelled_before:
        sim.cancel(handles[k])

    def arrive(k=0):
        fired.append(("arrival", k))
        if cancels_by[k] is not None:
            sim.cancel(handles[cancels_by[k]])
        if k + 1 < len(arrival_times):
            sim.set_arrival(arrival_times[k + 1], lambda: arrive(k + 1))

    sim.set_arrival(arrival_times[0], arrive)
    for cut in cuts:
        sim.run(until=cut)
        assert sim.now == cut
    sim.run()

    # reference: every event keyed (time, priority, seq); arrivals at -1.
    # A heap event is cancelled in-run by arrival k when it has not fired
    # yet, i.e. when it sorts after that arrival.
    keyed = [((t, -1, k), ("arrival", k)) for k, t in enumerate(arrival_times)]
    keyed += [((t, p, k), ("heap", k)) for k, (t, p) in enumerate(heap_events)]
    killed = set(cancelled_before)
    for k, victim in enumerate(cancels_by):
        if victim is not None:
            t, p = heap_events[victim]
            if (t, p) > (arrival_times[k], -1):
                killed.add(victim)
    expected = [ev for _key, ev in sorted(keyed)
                if not (ev[0] == "heap" and ev[1] in killed)]
    assert fired == expected
    assert sim.events_executed == len(expected)
    assert sim.pending_count == 0


# ----------------------------------------------------------------------
# handles moved in place
# ----------------------------------------------------------------------
class _Script:
    """One simulator driven by a script of owner operations.

    Owner ``i`` has one event at a time.  With ``moving`` it owns one
    :class:`EventHandle` and moves it with :meth:`Simulator.reschedule`;
    otherwise (the reference) it cancels its old handle and schedules a
    fresh one.  Arrivals chain through the slot, each ``arrival_gaps``
    after the last (the first after t = 0).  Every fired event appends
    ``(label, now)`` and then applies the next reaction, so the same
    reactions run from inside actions in both.
    """

    def __init__(self, moving, owner_priorities, arrival_gaps, reactions):
        self.sim = Simulator()
        self.moving = moving
        self.fired = []
        self.reactions = iter(reactions)
        self.priorities = owner_priorities
        self.n_oneoff = 0
        if moving:
            self.handles = [EventHandle(self._owner_action(i), priority=p)
                            for i, p in enumerate(owner_priorities)]
        else:
            self.handles = [None] * len(owner_priorities)
        self.arrivals = iter(arrival_gaps)
        first = next(self.arrivals, None)
        if first is not None:
            self.sim.set_arrival(first, self._arrive)

    def _owner_action(self, i):
        return lambda: self._fired(("owner", i))

    def _fired(self, label):
        self.fired.append((label, self.sim.now))
        op = next(self.reactions, None)
        if op is not None:
            self.apply(op)

    def _arrive(self):
        nxt = next(self.arrivals, None)
        if nxt is not None:
            self.sim.set_arrival(self.sim.now + nxt, self._arrive)
        self._fired(("arrival",))

    def apply(self, op):
        kind, i, delay = op
        i %= len(self.priorities)
        sim = self.sim
        if kind == "move":
            if self.moving:
                sim.reschedule(self.handles[i], delay)
            else:
                if self.handles[i] is not None:
                    sim.cancel(self.handles[i])
                self.handles[i] = sim.schedule(delay, self._owner_action(i),
                                               priority=self.priorities[i])
        elif kind == "cancel":
            if self.handles[i] is not None:
                sim.cancel(self.handles[i])
        else:  # a one-off event through schedule
            k = self.n_oneoff
            self.n_oneoff += 1
            sim.schedule(delay, lambda: self._fired(("oneoff", k)),
                         priority=self.priorities[i])

    def observe(self):
        sim = self.sim
        return list(self.fired), sim.events_executed, sim.pending_count, sim.now


# few distinct delays, so moves go both ways and keys tie often
delays = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
ops = st.tuples(st.sampled_from(["move", "move", "move", "cancel", "oneoff"]),
                st.integers(0, 3), delays)
steps = st.one_of(ops, st.tuples(st.just("run"), st.just(0), delays))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=4),
       st.lists(delays, max_size=8),
       st.lists(ops, max_size=40),
       st.lists(steps, min_size=1, max_size=30))
@settings(max_examples=300)
def test_moved_handles_dispatch_like_cancel_plus_schedule(owner_priorities,
                                                         arrival_gaps, reactions,
                                                         script):
    """Moving a handle later or earlier, re-arming it after it fired or
    was cancelled, beside one-off events, arrival-slot events and stepped
    ``run(until=...)`` cuts, fires the same events in the same order at
    the same times as cancel + schedule, with the same counters after
    every step: a stale or dead entry is never an event."""
    runs = [_Script(moving, owner_priorities, arrival_gaps, reactions)
            for moving in (True, False)]
    for kind, i, delay in script:
        for run in runs:
            if kind == "run":
                run.sim.run(until=run.sim.now + delay)
            else:
                run.apply((kind, i, delay))
        moved, reference = (run.observe() for run in runs)
        assert moved == reference
    for run in runs:
        run.sim.run()
    moved, reference = (run.observe() for run in runs)
    assert moved == reference
    assert runs[0].sim.pending_count == 0
