"""Exporters: canonical JSON, JSONL round-trips, byte determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import make_policy, run_simulation
from repro.obs import events as ev
from repro.obs.bus import TraceBus
from repro.obs.config import ObsConfig
from repro.obs.events import TraceEvent
from repro.obs.export import (JsonlTraceWriter, event_to_json, read_trace,
                              record_bytes, timeseries_to_csv_text,
                              write_timeseries)
from repro.obs.sampler import SAMPLE_COLUMNS, TimeSeries


class TestEventToJson:
    def test_canonical_layout(self):
        event = TraceEvent(7, 1.5, ev.REQUEST_SUBMIT,
                           {"size_mb": 2.0, "disk": 3, "internal": False})
        line = event_to_json(event)
        # seq/t/type lead; payload keys sorted; compact separators
        assert line == ('{"seq":7,"t":1.5,"type":"request.submit",'
                        '"disk":3,"internal":false,"size_mb":2.0}')

    def test_stable_under_payload_insertion_order(self):
        a = event_to_json(TraceEvent(0, 0.0, "x", {"b": 1, "a": 2}))
        b = event_to_json(TraceEvent(0, 0.0, "x", {"a": 2, "b": 1}))
        assert a == b


def _reference_event_to_json(event):
    """The ``json.dumps`` encoding ``event_to_json`` must reproduce."""
    record = {"seq": event.seq, "t": event.time, "type": event.type}
    for key in sorted(event.data):
        record[key] = event.data[key]
    return json.dumps(record, separators=(",", ":"), allow_nan=True)


_EXTREME_FLOATS = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e300,
    -1e300, 1.7976931348623157e308, 0.1])
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | _EXTREME_FLOATS
_TIMES = (_FLOATS | st.integers(min_value=-2**70, max_value=2**70)
          | _FLOATS.map(np.float64))
_TEXT = st.text()
_VALUES = (st.none() | st.booleans()
           | st.integers(min_value=-2**100, max_value=2**100)
           | _FLOATS | _FLOATS.map(np.float64) | _TEXT
           | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\n\t", "caf\u00e9",
                              "\U0001f600", ',"shard":1']))
# payload field names are anything but the seq/t/type header
_PAYLOADS = st.dictionaries(
    _TEXT.filter(lambda k: k not in ("seq", "t", "type")), _VALUES,
    max_size=6)

# Straddling every edge of record_bytes' orjson domain: repr writes an
# exponent below 1e-4 and from 1e16 on (orjson: its own syntax), NaN and
# infinities (orjson: null), subnormals; orjson writes non-ASCII as UTF-8
# and DEL raw (json.dumps escapes both) and raises on ints past 64 bits
# and on lone surrogates.  Most other times and values are in-domain, so
# many examples do take the fast path.
_EDGE_FLOATS = st.sampled_from(
    [sign * f for edge in (1e-4, 1e16)
     for f in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf))
     for sign in (1.0, -1.0)]
    + [0.0, -0.0, 9999999999999998.0, 2.0**53, 5e-324, 2.2250738585072014e-308,
       float("nan"), float("inf"), float("-inf")])
_NEAR_EDGE_FLOATS = (st.floats(min_value=1e-5, max_value=1e-3)
                     | st.floats(min_value=1e15, max_value=1e17))
_FAST_FLOATS = st.floats(min_value=1e-4, max_value=1e15) | st.floats(
    min_value=-1e15, max_value=-1e-4)
_FAST_TIMES = _FAST_FLOATS | _EDGE_FLOATS | _NEAR_EDGE_FLOATS
_FAST_VALUES = (
    _FAST_TIMES | st.none() | st.booleans()
    | st.integers(min_value=-2**63, max_value=2**64 - 1)
    | st.sampled_from([-2**63 - 1, 2**64, 2**100])
    | st.text(alphabet=st.characters(max_codepoint=127))
    | st.text(alphabet=st.characters(max_codepoint=127), max_size=3).map(
        lambda s: s + "\x7f")
    | st.sampled_from(["caf\u00e9", "\ud800", "\U0001f600", "\x00\x1f\n\t"])
    # containers and float subclasses leave the domain, whatever they hold
    | st.lists(_FAST_TIMES, max_size=2) | _FAST_TIMES.map(np.float64))
_FAST_PAYLOADS = st.dictionaries(
    st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1).filter(lambda k: k not in ("seq", "t", "type")),
    _FAST_VALUES, max_size=3)


def _event_bytes(event):
    return b'{"seq":%d' % event.seq + record_bytes(event.time, event.type, event.data)


class TestEventToJsonMatchesJsonDumps:
    @settings(max_examples=300, deadline=None)
    @given(seq=st.integers(min_value=0, max_value=2**64), time=_TIMES,
           type_=_TEXT, data=_PAYLOADS)
    def test_same_bytes_as_reference(self, seq, time, type_, data):
        event = TraceEvent(seq, time, type_, data)
        reference = _reference_event_to_json(event)
        assert event_to_json(event) == reference
        assert _event_bytes(event) == reference.encode()

    @settings(max_examples=600, deadline=None)
    @given(time=_FAST_TIMES, data=_FAST_PAYLOADS)
    def test_record_bytes_domain_edges(self, time, data):
        event = TraceEvent(1, time, "request.dispatch", data)
        assert _event_bytes(event) == _reference_event_to_json(event).encode()

    @pytest.mark.parametrize("time", [
        float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 3,
        np.float64(0.1), np.float64("nan")])
    def test_unusual_times(self, time):
        event = TraceEvent(0, time, "x", {"v": np.float64(2.5), "n": None})
        assert event_to_json(event) == _reference_event_to_json(event)
        assert _event_bytes(event) == _reference_event_to_json(event).encode()

    def test_empty_payload(self):
        event = TraceEvent(3, 1.25, ev.ENGINE_STOP, {})
        assert event_to_json(event) == '{"seq":3,"t":1.25,"type":"engine.stop"}'
        assert event_to_json(event) == _reference_event_to_json(event)
        assert _event_bytes(event) == _reference_event_to_json(event).encode()


class TestJsonlTraceWriter:
    def test_round_trip_through_bus(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus()
        with JsonlTraceWriter(path) as writer:
            bus.subscribe(writer)
            bus.emit(ev.ENGINE_START, 0.0, policy="read")
            bus.emit(ev.REQUEST_SUBMIT, 0.5, disk=0, size_mb=1.0)
        assert writer.events_written == 2
        records = read_trace(path)
        assert [r["type"] for r in records] == [ev.ENGINE_START,
                                                ev.REQUEST_SUBMIT]
        assert records[0]["policy"] == "read"
        assert records[1]["seq"] == 1

    def test_write_after_close_raises(self, tmp_path):
        writer = JsonlTraceWriter(tmp_path / "t.jsonl")
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            writer(TraceEvent(0, 0.0, "x", {}))

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with JsonlTraceWriter(path):
            pass
        assert path.exists()


class TestCrashSafety:
    def test_trace_invisible_until_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        writer(TraceEvent(0, 0.0, "x", {}))
        assert not path.exists()  # still streaming into the tmp file
        writer.close()
        assert path.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_abort_quarantines_partial_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        writer(TraceEvent(0, 0.0, "x", {}))
        writer.abort()
        writer.abort()  # idempotent
        assert not path.exists()
        partial = tmp_path / "t.jsonl.partial"
        assert partial.exists()
        assert json.loads(partial.read_text())["type"] == "x"

    def test_abort_after_close_keeps_published_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        writer(TraceEvent(0, 0.0, "x", {}))
        writer.close()
        writer.abort()  # must not disturb a complete trace
        assert path.exists()
        assert not (tmp_path / "t.jsonl.partial").exists()

    def test_context_exit_on_exception_aborts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlTraceWriter(path) as writer:
                writer(TraceEvent(0, 0.0, "x", {}))
                raise RuntimeError("simulated crash mid-run")
        assert not path.exists()
        assert (tmp_path / "t.jsonl.partial").exists()

    def test_dying_simulation_quarantines_its_trace(self, tmp_path, small_workload,
                                                    params):
        """run_simulation aborts the writer when the run blows up."""
        fileset, trace = small_workload
        path = tmp_path / "run.jsonl"
        obs = ObsConfig(trace_path=path)

        import repro.obs.bus as bus_mod
        original = bus_mod.TraceBus.emit

        def exploding_emit(self, type_, t, **data):
            if type_ == ev.REQUEST_SUBMIT:
                raise RuntimeError("simulated mid-run crash")
            return original(self, type_, t, **data)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bus_mod.TraceBus, "emit", exploding_emit)
            with pytest.raises(RuntimeError, match="mid-run"):
                run_simulation(make_policy("static-high"), fileset, trace,
                               n_disks=4, disk_params=params, obs=obs)
        assert not path.exists()
        assert (tmp_path / "run.jsonl.partial").exists()


class TestReadTrace:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq":0,"t":0.0,"type":"engine.start"}\n\n')
        assert len(read_trace(path)) == 1

    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq":0,"t":0.0,"type":"engine.start"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_trace(path)

    def test_record_without_type_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"seq":0}\n')
        with pytest.raises(ValueError, match="missing 'type'"):
            read_trace(path)


class TestByteDeterminism:
    def test_same_seed_traces_are_byte_identical(self, small_workload, params,
                                                 tmp_path):
        fileset, trace = small_workload
        paths = []
        for i in range(2):
            path = tmp_path / f"run{i}.jsonl"
            run_simulation(make_policy("maid"), fileset, trace.head(800),
                           n_disks=4, disk_params=params,
                           obs=ObsConfig(trace_path=str(path)))
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert len(first) > 0
        assert first == second


class TestTimeseriesExport:
    SERIES = TimeSeries(interval_s=5.0, rows=(
        (0.0, 0, 10.0, 38.0, "high", "active", 2, 100.0),
        (5.0, 0, 12.5, 38.25, "high", "active", 1, 180.5),
    ))

    def test_csv_text_header_and_float_repr(self):
        text = timeseries_to_csv_text(self.SERIES)
        lines = text.splitlines()
        assert lines[0] == ",".join(SAMPLE_COLUMNS)
        assert lines[1].startswith("0.0,0,10.0,38.0,high,active,2,100.0")
        assert len(lines) == 3

    def test_write_csv(self, tmp_path):
        target = write_timeseries(self.SERIES, tmp_path / "ts.csv")
        assert target.read_text() == timeseries_to_csv_text(self.SERIES)

    def test_write_json_document(self, tmp_path):
        target = write_timeseries(self.SERIES, tmp_path / "ts.json")
        doc = json.loads(target.read_text())
        assert doc["interval_s"] == 5.0
        assert doc["columns"] == list(SAMPLE_COLUMNS)
        assert doc["rows"][1][7] == 180.5

    def test_csv_writes_are_deterministic(self, tmp_path):
        a = write_timeseries(self.SERIES, tmp_path / "a.csv").read_bytes()
        b = write_timeseries(self.SERIES, tmp_path / "b.csv").read_bytes()
        assert a == b
