"""Exporters: canonical JSON, JSONL round-trips, byte determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import make_policy, run_simulation
from repro.obs import events as ev
from repro.obs.config import ObsConfig
from repro.obs.events import TraceEvent
from repro.obs.export import (JsonlTraceWriter, event_to_json, read_trace,
                              record_body, record_bytes, timeseries_to_csv_text,
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


#: The shard remap's id fields, drawn apart from the payload so they
#: hold what producers put there: ints, and None for a request-less file.
_REMAP_FIELDS = st.fixed_dictionaries({}, optional={
    "disk": st.integers(0, 63), "src": st.integers(0, 63),
    "dst": st.integers(0, 63), "file": st.none() | st.integers(0, 9)})
_REMAPS = st.none() | st.tuples(
    st.integers(0, 1000), st.lists(st.integers(0, 2**40), min_size=10, max_size=10))


class TestWriterEmitMatchesEventToJson:
    """The writer's one-format line is the record ``event_to_json``
    writes, with ids remapped first when the writer has a remap."""

    @settings(max_examples=300, deadline=None)
    @given(events=st.lists(st.tuples(
        _TIMES | _FAST_TIMES, _TEXT,
        (_PAYLOADS | _FAST_PAYLOADS).map(
            lambda d: {k: v for k, v in d.items()
                       if k not in ("disk", "src", "dst", "file")}),
        _REMAP_FIELDS), min_size=1, max_size=4), remap=_REMAPS)
    def test_same_line_as_event_to_json(self, tmp_path_factory, events, remap):
        path = tmp_path_factory.mktemp("emit") / "t.jsonl"
        expected = []
        with JsonlTraceWriter(path, remap=remap) as writer:
            for seq, (time, type_, payload, ids) in enumerate(events):
                writer.emit(type_, time, **payload, **ids)
                if remap is not None:
                    offset, files = remap
                    ids = {k: v if v is None else files[v] if k == "file" else v + offset
                           for k, v in ids.items()}
                event = TraceEvent(seq, time, type_, {**payload, **ids})
                expected.append(event_to_json(event) + "\n")
        assert writer.events_written == len(events)
        assert path.read_bytes() == "".join(expected).encode()


#: What the drive passes in the typed encoders' float fields, and the
#: values around them: every edge of the orjson domain, NaN and the
#: infinities, subnormals, float subclasses, bools and ints, in and past
#: 64 bits (written alike by both encoders, or raising orjson).
_TYPED_FLOATS = (_FAST_FLOATS | _EDGE_FLOATS | _NEAR_EDGE_FLOATS | _FLOATS
                 | _FAST_TIMES.map(np.float64) | st.booleans()
                 | st.integers(min_value=-2**70, max_value=2**70))
_TYPED_DISKS = st.integers(0, 63) | st.sampled_from([2**63 - 1, 2**64 - 1, 2**64, 2**70])
_TYPED_FILES = st.none() | st.integers(0, 9)
_TYPED_REMAPS = st.none() | st.tuples(
    st.integers(0, 1000),
    st.lists(st.integers(0, 2**40) | st.sampled_from([2**64 - 1, 2**64, 2**70]),
             min_size=10, max_size=10))
#: One drive event: the typed method, the generic ``emit`` call it
#: stands for (type, kwargs), and its positional arguments.
_TYPED_EVENTS = st.one_of(
    st.tuples(st.just("request_submit"), _TYPED_FLOATS, _TYPED_DISKS, _TYPED_FLOATS,
              st.booleans(), _TYPED_FILES),
    st.tuples(st.just("request_dispatch"), _TYPED_FLOATS, _TYPED_DISKS, _TYPED_FLOATS,
              _TYPED_FLOATS, st.booleans()),
    st.tuples(st.just("request_complete"), _TYPED_FLOATS, _TYPED_DISKS, _TYPED_FLOATS,
              _TYPED_FLOATS, st.booleans()),
    # a generic record between them shares the seq space
    st.tuples(st.just("emit"), _TYPED_FLOATS, _TYPED_DISKS))


def _as_emit(method, time, disk, *rest):
    """The ``emit`` arguments a typed call stands for."""
    if method == "request_submit":
        size_mb, internal, file = rest
        return ev.REQUEST_SUBMIT, time, dict(disk=disk, size_mb=size_mb,
                                             internal=internal, file=file)
    if method == "request_dispatch":
        wait_s, service_s, internal = rest
        return ev.REQUEST_DISPATCH, time, dict(disk=disk, wait_s=wait_s,
                                               service_s=service_s, internal=internal)
    if method == "request_complete":
        size_mb, sojourn_s, internal = rest
        return ev.REQUEST_COMPLETE, time, dict(disk=disk, size_mb=size_mb,
                                               sojourn_s=sojourn_s, internal=internal)
    return ev.POLICY_SPIN_DOWN, time, dict(disk=disk)


class TestTypedRequestEncoders:
    """The writer's typed request methods write what :meth:`emit` writes:
    ``json.dumps`` of the canonical record, ids remapped first."""

    @staticmethod
    def _write(path, remap, events, typed):
        with JsonlTraceWriter(path, remap=remap) as writer:
            for method, *args in events:
                if typed and method != "emit":
                    getattr(writer, method)(*args)
                else:
                    type_, time, data = _as_emit(method, *args)
                    writer.emit(type_, time, **data)
        assert writer.events_written == len(events)
        return path.read_bytes()

    @settings(max_examples=400, deadline=None)
    @given(events=st.lists(_TYPED_EVENTS, min_size=1, max_size=5), remap=_TYPED_REMAPS)
    def test_same_bytes_as_emit_and_json_dumps(self, tmp_path_factory, events, remap):
        folder = tmp_path_factory.mktemp("typed")
        typed = self._write(folder / "typed.jsonl", remap, events, typed=True)
        generic = self._write(folder / "generic.jsonl", remap, events, typed=False)
        expected = []
        for seq, (method, *args) in enumerate(events):
            type_, time, data = _as_emit(method, *args)
            if remap is not None:
                offset, files = remap
                data["disk"] += offset
                if data.get("file") is not None:
                    data["file"] = files[data["file"]]
            event = TraceEvent(seq, time, type_, data)
            expected.append(_reference_event_to_json(event) + "\n")
        assert typed == generic == "".join(expected).encode()

    @pytest.mark.parametrize("method, args", [
        ("request_submit", (float("nan"), 1, 2.0, False, None)),
        ("request_submit", (1.5, 2**64, 2.0, True, 3)),
        ("request_submit", (1.5, 1, np.float64(2.0), False, 3)),
        ("request_dispatch", (float("inf"), 1, 0.5, 0.5, False)),
        ("request_dispatch", (1.5, 1, 5e-324, 0.5, True)),
        ("request_dispatch", (1.5, 1, 0.5, 1e16, False)),
        ("request_complete", (1e-5, 1, 2.0, 0.5, False)),
        ("request_complete", (1.5, 1, 2.0, -float("inf"), True)),
        ("request_complete", (1.5, 1, True, 3, False)),
    ])
    def test_out_of_domain_takes_record_body(self, tmp_path, method, args):
        path = tmp_path / "t.jsonl"
        with JsonlTraceWriter(path) as writer:
            writer.emit(ev.ENGINE_START, 0.0)
            getattr(writer, method)(*args)
        type_, time, data = _as_emit(method, *args)
        line = path.read_bytes().splitlines(keepends=True)[1]
        assert line == b'{"seq":1%b\n' % record_body(time, type_, data).encode()


class TestJsonlTraceWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            writer.emit(ev.ENGINE_START, 0.0, policy="read")
            writer.emit(ev.REQUEST_SUBMIT, 0.5, disk=0, size_mb=1.0)
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
        for call in (lambda: writer.emit("x", 0.0),
                     lambda: writer.request_submit(0.5, 0, 1.0, False, None),
                     lambda: writer.request_dispatch(0.5, 0, 0.0, 0.1, False),
                     lambda: writer.request_complete(0.5, 0, 1.0, 0.1, False)):
            with pytest.raises(ValueError, match="closed"):
                call()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with JsonlTraceWriter(path):
            pass
        assert path.exists()


class TestCrashSafety:
    def test_trace_invisible_until_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        writer.emit("x", 0.0)
        assert not path.exists()  # still streaming into the tmp file
        writer.close()
        assert path.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_abort_quarantines_partial_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        writer.emit("x", 0.0)
        writer.abort()
        writer.abort()  # idempotent
        assert not path.exists()
        partial = tmp_path / "t.jsonl.partial"
        assert partial.exists()
        assert json.loads(partial.read_text())["type"] == "x"

    def test_abort_after_close_keeps_published_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path)
        writer.emit("x", 0.0)
        writer.close()
        writer.abort()  # must not disturb a complete trace
        assert path.exists()
        assert not (tmp_path / "t.jsonl.partial").exists()

    def test_context_exit_on_exception_aborts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlTraceWriter(path) as writer:
                writer.emit("x", 0.0)
                raise RuntimeError("simulated crash mid-run")
        assert not path.exists()
        assert (tmp_path / "t.jsonl.partial").exists()

    def test_dying_simulation_quarantines_its_trace(self, tmp_path, small_workload,
                                                    params):
        """run_simulation aborts the writer when the run blows up."""
        fileset, trace = small_workload
        path = tmp_path / "run.jsonl"
        obs = ObsConfig(trace_path=path)
        written = []

        def recording(method, type_):
            original = getattr(JsonlTraceWriter, method)

            def record(self, *args, **kwargs):
                if type_ == ev.REQUEST_SUBMIT and ev.REQUEST_SUBMIT in written:
                    raise RuntimeError("simulated mid-run crash")
                original(self, *args, **kwargs)
                written.append(type_ or args[0])
            return record

        with pytest.MonkeyPatch.context() as mp:
            # the drive writes the request lifecycle through the typed
            # methods; the crash strikes at the second request.submit
            for method, type_ in (("emit", None),
                                  ("request_submit", ev.REQUEST_SUBMIT),
                                  ("request_dispatch", ev.REQUEST_DISPATCH),
                                  ("request_complete", ev.REQUEST_COMPLETE)):
                mp.setattr(JsonlTraceWriter, method, recording(method, type_))
            with pytest.raises(RuntimeError, match="mid-run"):
                run_simulation(make_policy("static-high"), fileset, trace,
                               n_disks=4, disk_params=params, obs=obs)
        assert not path.exists()
        partial = tmp_path / "run.jsonl.partial"
        assert [r["type"] for r in read_trace(partial)] == written
        assert written[0] == ev.ENGINE_START and len(written) > 2


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
