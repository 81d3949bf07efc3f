"""End-to-end telemetry: off-switch identity, full-stack runs, pickling."""

import pickle

import pytest

from repro.experiments.runner import make_policy, run_simulation
from repro.obs import events as ev
from repro.obs.config import ObsConfig
from repro.obs.export import read_trace


class TestOffSwitchIdentity:
    def test_no_obs_and_empty_obs_results_are_equal(self, small_workload,
                                                    params):
        fileset, trace = small_workload
        sub = trace.head(800)
        r_none = run_simulation(make_policy("read"), fileset, sub, n_disks=4,
                                disk_params=params)
        r_empty = run_simulation(make_policy("read"), fileset, sub, n_disks=4,
                                 disk_params=params, obs=ObsConfig())
        # wall_clock_s is compare=False; everything else must match
        assert r_none == r_empty

    def test_tracing_does_not_change_results(self, small_workload, params,
                                             tmp_path):
        fileset, trace = small_workload
        sub = trace.head(800)
        plain = run_simulation(make_policy("maid"), fileset, sub, n_disks=4,
                               disk_params=params)
        traced = run_simulation(make_policy("maid"), fileset, sub, n_disks=4,
                                disk_params=params,
                                obs=ObsConfig(trace_path=str(tmp_path / "t.jsonl")))
        assert traced == plain
        assert traced.events_executed == plain.events_executed


class TestFullStackRun:
    @pytest.fixture(scope="class")
    def everything_on(self, small_workload, params, tmp_path_factory):
        fileset, trace = small_workload
        out = tmp_path_factory.mktemp("obs")
        obs = ObsConfig(trace_path=str(out / "trace.jsonl"),
                        metrics_path=str(out / "ts.csv"),
                        sample_interval_s=3.0)
        result = run_simulation(make_policy("maid"), fileset, trace.head(800),
                                n_disks=4, disk_params=params, obs=obs)
        return result, out

    def test_all_outputs_produced(self, everything_on):
        result, out = everything_on
        assert (out / "trace.jsonl").stat().st_size > 0
        assert (out / "ts.csv").read_text().startswith("time_s,disk,")
        assert result.timeseries is not None

    def test_trace_brackets_the_run(self, everything_on):
        _result, out = everything_on
        records = read_trace(out / "trace.jsonl")
        assert records[0]["type"] == ev.ENGINE_START
        assert records[-1]["type"] == ev.ENGINE_STOP
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(len(records)))

    def test_trace_times_are_monotone(self, everything_on):
        _result, out = everything_on
        times = [r["t"] for r in read_trace(out / "trace.jsonl")]
        assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))

    def test_maid_cache_activity_traced(self, everything_on):
        _result, out = everything_on
        types = {r["type"] for r in read_trace(out / "trace.jsonl")}
        assert ev.POLICY_CACHE_MISS in types
        assert ev.REQUEST_SUBMIT in types
        assert ev.REQUEST_COMPLETE in types

    def test_result_pickles_with_telemetry_attached(self, everything_on):
        result, _out = everything_on
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.timeseries.rows == result.timeseries.rows

    def test_events_per_sec_positive(self, everything_on):
        result, _out = everything_on
        assert result.wall_clock_s > 0.0
        assert result.events_per_sec > 0.0
        assert "events_per_s" in result.summary_row()


class TestFaultTracing:
    def test_fault_lifecycle_events_present(self, small_workload, params,
                                            tmp_path):
        from repro.faults import FaultConfig
        fileset, trace = small_workload
        path = tmp_path / "faulted.jsonl"
        result = run_simulation(
            make_policy("read"), fileset, trace.head(3_000), n_disks=4,
            disk_params=params,
            faults=FaultConfig(seed=3, accel=2e6, hazard_refresh_s=5.0,
                               repair_delay_s=10.0),
            obs=ObsConfig(trace_path=str(path)))
        assert result.faults is not None and result.faults.disk_failures > 0
        counts = {}
        for record in read_trace(path):
            counts[record["type"]] = counts.get(record["type"], 0) + 1
        assert counts.get(ev.FAULT_INJECT, 0) == result.faults.disk_failures
        assert counts.get(ev.FAULT_REBUILD_START, 0) >= 1
        assert ev.REQUEST_REDIRECT in counts or ev.REQUEST_RETRY in counts
