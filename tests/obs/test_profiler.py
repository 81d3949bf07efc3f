"""Kernel profiler: accumulation, summary, and engine integration."""

import pytest

from repro.obs.profiler import (DEFAULT_HANDLER_BUCKETS_S, HandlerProfile,
                                KernelProfiler, ProfileSummary)
from repro.sim.engine import Simulator


class TestKernelProfiler:
    def test_record_accumulates_per_handler(self):
        p = KernelProfiler()
        p.record("Drive._complete", 1e-5)
        p.record("Drive._complete", 3e-5)
        p.record("PeriodicTask._fire", 2e-4)
        summary = p.summary()
        assert summary.events_executed == 3
        assert sorted((h.handler, h.calls) for h in summary.handlers) == [
            ("Drive._complete", 2), ("PeriodicTask._fire", 1)]

    def test_summary_sorted_by_total_time_desc(self):
        p = KernelProfiler()
        p.record("cheap", 1e-6)
        p.record("heavy", 1e-2)
        summary = p.summary()
        assert [h.handler for h in summary.handlers] == ["cheap", "heavy"][::-1]
        heavy = summary.handlers[0]
        assert heavy.calls == 1
        assert heavy.total_s == pytest.approx(1e-2)
        assert heavy.max_s == pytest.approx(1e-2)

    def test_bucket_counts_sum_to_calls(self):
        p = KernelProfiler()
        for elapsed in (1e-7, 1e-5, 1e-3, 0.5, 10.0):
            p.record("h", elapsed)
        (profile,) = p.summary().handlers
        assert sum(profile.bucket_counts) == profile.calls == 5
        assert len(profile.bucket_counts) == len(DEFAULT_HANDLER_BUCKETS_S) + 1

    def test_summary_wall_clock_override(self):
        p = KernelProfiler()
        p.record("h", 0.25)
        assert p.summary().wall_clock_s == pytest.approx(0.25)
        s = p.summary(wall_clock_s=2.0)
        assert s.wall_clock_s == 2.0
        assert s.events_per_sec == pytest.approx(0.5)

    def test_empty_summary(self):
        s = KernelProfiler().summary()
        assert s.events_executed == 0
        assert s.handlers == ()
        assert s.events_per_sec == 0.0

    def test_handler_profile_row(self):
        h = HandlerProfile(handler="h", calls=2, total_s=2e-3, max_s=1.5e-3,
                           bucket_counts=(0, 0, 0, 2, 0, 0, 0, 0))
        row = h.summary_row()
        assert row["handler"] == "h"
        assert row["total_ms"] == 2.0
        assert row["mean_us"] == 1000.0


class TestEngineIntegration:
    def test_profiled_drain_times_every_event(self, sim):
        profiler = KernelProfiler()
        sim.set_profiler(profiler)
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 5:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run_until_drained()
        assert len(fired) == 5
        summary = profiler.summary()
        assert summary.events_executed == sim.events_executed == 5
        # the handler key is the action's qualified name
        assert any("tick" in h.handler for h in summary.handlers)

    def test_profiled_results_match_unprofiled(self):
        def build_and_run(profiler):
            sim = Simulator()
            if profiler is not None:
                sim.set_profiler(profiler)
            out = []

            def tick():
                out.append(sim.now)
                if len(out) < 50:
                    sim.schedule(0.5, tick)

            sim.schedule(0.0, tick)
            sim.run_until_drained()
            return out, sim.events_executed

        plain, n_plain = build_and_run(None)
        profiled, n_profiled = build_and_run(KernelProfiler())
        assert plain == profiled
        assert n_plain == n_profiled

    def test_set_profiler_validates_interface(self, sim):
        from repro.sim.engine import SimulationError
        with pytest.raises(SimulationError, match="record"):
            sim.set_profiler(object())

    def test_profiler_property_and_detach(self, sim):
        assert sim.profiler is None
        p = KernelProfiler()
        sim.set_profiler(p)
        assert sim.profiler is p
        sim.set_profiler(None)
        assert sim.profiler is None
