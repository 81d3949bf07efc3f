"""Trace rollups and the full write -> summarize round-trip."""

import pytest

from repro.experiments.runner import make_policy, run_simulation
from repro.obs import events as ev
from repro.obs.config import ObsConfig
from repro.obs.summarize import (format_summary, summarize_records,
                                 summarize_traces)


class TestSummarizeRecords:
    RECORDS = [
        {"seq": 0, "t": 0.0, "type": ev.ENGINE_START, "policy": "read"},
        {"seq": 1, "t": 0.5, "type": ev.REQUEST_SUBMIT, "disk": 0,
         "size_mb": 2.0},
        {"seq": 2, "t": 0.5, "type": ev.REQUEST_DISPATCH, "disk": 0,
         "wait_s": 0.25},
        {"seq": 3, "t": 1.0, "type": ev.REQUEST_COMPLETE, "disk": 0,
         "size_mb": 2.0},
        {"seq": 4, "t": 2.0, "type": ev.REQUEST_FAIL, "disk": 1,
         "reason": "disk_failed"},
        {"seq": 5, "t": 3.0, "type": ev.DISK_TRANSITION_BEGIN, "disk": 1,
         "from": "high", "to": "low"},
        {"seq": 6, "t": 9.0, "type": ev.ENGINE_STOP, "events": 7},
    ]

    def test_totals_and_duration(self):
        summary = summarize_records(self.RECORDS)
        assert summary.total_events == 7
        assert summary.duration_s == 9.0
        assert summary.unknown_types == set()

    def test_by_type_counts_and_time_span(self):
        summary = summarize_records(self.RECORDS)
        count, first, last = summary.by_type[ev.REQUEST_SUBMIT]
        assert (count, first, last) == (1, 0.5, 0.5)
        assert ev.ENGINE_STOP in summary.by_type

    def test_per_disk_rollup(self):
        summary = summarize_records(self.RECORDS)
        d0 = summary.by_disk[0]
        assert (d0.submits, d0.dispatches, d0.completions) == (1, 1, 1)
        assert d0.completed_mb == 2.0
        assert d0.total_wait_s == 0.25
        assert d0.mean_wait_ms == pytest.approx(250.0)
        d1 = summary.by_disk[1]
        assert d1.failures == 1
        assert d1.transitions == 1

    def test_diskless_events_not_charged(self):
        summary = summarize_records(self.RECORDS)
        assert sum(r.events for r in summary.by_disk.values()) == 5

    def test_unknown_types_flagged(self):
        summary = summarize_records([{"t": 0.0, "type": "totally.new"}])
        assert summary.unknown_types == {"totally.new"}

    def test_empty_input(self):
        summary = summarize_records([])
        assert summary.total_events == 0
        assert summary.by_type == {}
        assert summary.by_disk == {}


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def traced(self, small_workload, params, tmp_path_factory):
        fileset, trace = small_workload
        path = tmp_path_factory.mktemp("trace") / "run.jsonl"
        result = run_simulation(make_policy("read"), fileset, trace.head(800),
                                n_disks=4, disk_params=params,
                                obs=ObsConfig(trace_path=str(path)))
        return result, path

    def test_summary_matches_run_metrics(self, traced):
        result, path = traced
        summary = summarize_traces([path])
        completions = sum(r.completions for r in summary.by_disk.values())
        # completions cover user requests and internal jobs alike
        assert completions == result.n_requests + result.internal_jobs
        transitions = sum(r.transitions for r in summary.by_disk.values())
        assert transitions == result.total_transitions
        assert summary.by_type[ev.ENGINE_START][0] == 1
        assert summary.by_type[ev.ENGINE_STOP][0] == 1
        assert summary.unknown_types == set()

    def test_engine_stop_carries_the_event_count(self, traced):
        result, path = traced
        from repro.obs.export import read_trace
        stop = [r for r in read_trace(path) if r["type"] == ev.ENGINE_STOP]
        assert len(stop) == 1
        assert stop[0]["events"] == result.events_executed
        assert stop[0]["duration_s"] == result.duration_s

    def test_every_disk_served_something(self, traced):
        _result, path = traced
        summary = summarize_traces([path])
        assert set(summary.by_disk) == {0, 1, 2, 3}
        assert all(r.submits > 0 for r in summary.by_disk.values())

    def test_format_summary_renders_tables(self, traced):
        _result, path = traced
        text = format_summary(summarize_traces([path]), source=path.name)
        assert path.name in text
        assert "per event type" in text
        assert "per disk" in text
        assert ev.REQUEST_COMPLETE in text
        assert "unknown event types" not in text

    def test_format_summary_flags_unknown_types(self):
        summary = summarize_records([{"t": 0.0, "type": "custom.thing"}])
        assert "custom.thing" in format_summary(summary)
