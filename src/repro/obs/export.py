"""Exporters: JSONL event traces and CSV/JSON time-series files.

Byte-determinism contract: everything written here is a pure function
of the simulation's seeded state — no wall-clock timestamps, no object
ids, keys sorted, floats via ``repr`` (shortest round-trip) — so two
runs of the same configuration produce byte-identical files.  The
acceptance tests diff whole files on this guarantee.  Trace records are
the bytes ``json.dumps`` would write; :func:`record_bytes` has orjson
write them wherever its output provably equals the stdlib's.
"""

from __future__ import annotations

import csv
import io
import json
import os
from json import JSONDecodeError, JSONDecoder
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Sequence, Union

from orjson import OPT_APPEND_NEWLINE, OPT_SORT_KEYS, JSONEncodeError
from orjson import dumps as _dumps

from repro.obs.events import REQUEST_COMPLETE, REQUEST_DISPATCH, REQUEST_SUBMIT
from repro.util.atomicio import PARTIAL_SUFFIX, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sampler import TimeSeries

__all__ = ["JsonlTraceWriter", "parse_record", "read_trace", "record_body",
           "record_bytes", "splice_body", "write_timeseries", "timeseries_to_csv_text"]

PathLike = Union[str, Path]


#: The C encoder ``json.dumps(..., separators=(",", ":"), allow_nan=True)``
#: rebuilds per call, built once, sorting keys: same bytes for flat payloads
#: (the events.py contract); nested dicts would get sorted keys, no cycle check.
_encode = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", True, False, True)
_type_fields: dict[str, bytes] = {}  # b',"type":"<type>"', encoded once per type
_raw_decode = JSONDecoder().raw_decode


def _type_field(type_: str) -> bytes:
    field = _type_fields.get(type_)
    if field is None:
        field = _type_fields[type_] = (',"type":' + "".join(_encode(type_, 0))).encode()
    return field


def record_body(time: float, type_: str, data: dict) -> str:
    """A canonical trace record after its ``{"seq":<seq>`` head: ``t``,
    ``type``, then the flat payload sorted, compact — with the head,
    exactly ``json.dumps`` of the record for scalar payload values."""
    # finite float: float.__repr__; NaN/Infinity, ints, subclasses: the encoder
    t_text = (float.__repr__(time) if type(time) is float and isfinite(time)
              else "".join(_encode(time, 0)))
    head = f',"t":{t_text}{_type_field(type_).decode()}'
    return head + "," + "".join(_encode(data, 0))[1:] if data else head + "}"


def _orjson_payload(time: float, data: dict) -> bytes | None:
    """orjson's key-sorted ``data`` where a record of it and ``time`` is
    provably what :func:`record_body` writes, else ``None``.

    orjson writes the shortest round-trip digits ``float.__repr__`` does
    but its own exponent syntax and ``null`` for NaN/Infinity, so a float
    qualifies only where ``repr`` writes no exponent: ``0.0`` and
    ``1e-4 <= abs(v) < 1e16``.  Strings must come out printable ASCII
    (``json.dumps`` escapes the rest, DEL included; orjson writes UTF-8
    and raw DEL); ints past 64 bits make orjson raise.  Exact ``int``,
    ``bool`` and ``None`` are written alike by both.
    """
    if type(time) is float and (1e-4 <= abs(time) < 1e16 or time == 0.0):
        for value in data.values():
            kind = type(value)
            if kind is float:
                if not (1e-4 <= abs(value) < 1e16 or value == 0.0):
                    return None
            elif kind is not int and kind is not str and kind is not bool and value is not None:
                return None
        try:
            payload = _dumps(data, option=OPT_SORT_KEYS)
        except JSONEncodeError:  # an int past 64 bits, a lone surrogate
            return None
        if payload.isascii() and 127 not in payload:
            return payload
    return None


def record_bytes(time: float, type_: str, data: dict) -> bytes:
    """``record_body(time, type_, data).encode()``, by orjson where its
    bytes are provably the same (:func:`_orjson_payload`), else by
    :func:`record_body`."""
    payload = _orjson_payload(time, data)
    if payload is None:
        return record_body(time, type_, data).encode()
    head = b"".join((b',"t":', _dumps(time), _type_field(type_)))
    return head + b"," + payload[1:] if data else head + b"}"


def _line(seq: int, time: float, type_: str, data: dict) -> bytes:
    """One whole trace line by :func:`record_body`, the exact path."""
    return b'{"seq":%d%b\n' % (seq, record_body(time, type_, data).encode())


def splice_body(line: bytes, path: PathLike, lineno: int) -> bytes:
    """The :func:`record_bytes` of a stripped canonical trace line — its
    bytes from ``,"t":`` on; other lines raise a ValueError naming
    ``path:lineno``."""
    t_at = line.find(b',"t":')
    if not (t_at > 7 and line.startswith(b'{"seq":') and line[7:t_at].isdigit()):
        raise ValueError(f"{path}:{lineno}: trace record lacks the "
                         f"canonical '{{\"seq\":<int>,\"t\":' prefix")
    return line[t_at:]


class JsonlTraceWriter:
    """A cell's trace sink: producers call :meth:`emit` and it streams
    one canonical JSONL record per event to ``path``.  The drive writes
    the request lifecycle through the typed :meth:`request_submit`,
    :meth:`request_dispatch` and :meth:`request_complete`: the bytes
    :meth:`emit` would write, at about half its cost.

    ``remap`` is a shard's ``(disk_offset, file_table)``: the ``disk``,
    ``src`` and ``dst`` fields shift by the offset and ``file`` goes
    through the local->global table, so a shard's segment speaks global
    ids.  ``None`` (a whole-array cell) writes ids as given.

    Usable as a context manager; always :meth:`close` (or exit the
    ``with`` block) before reading the file — lines are buffered.

    Crash-safety: events stream into ``<path>.<pid>.tmp`` and the file
    is renamed onto ``path`` only by a successful :meth:`close`, so a
    reader can never observe a torn trace.  A run that dies mid-stream
    should call :meth:`abort`, which quarantines the partial file as
    ``<path>.partial`` for inspection (exiting the ``with`` block on an
    exception does this automatically).

    Examples
    --------
    >>> with JsonlTraceWriter(path) as writer:               # doctest: +SKIP
    ...     writer.emit("engine.start", 0.0, policy="read")
    """

    def __init__(self, path: PathLike,
                 remap: tuple[int, Sequence[int]] | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp_path = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.tmp")
        self._file: BinaryIO | None = self._tmp_path.open(  # repro: allow[IO001] streams to a .tmp sibling; close() publishes with os.replace, abort() quarantines
            "wb")
        self._remap = remap
        #: Records written so far; the next record's ``seq``.
        self.events_written = 0

    def emit(self, type_: str, time_: float, /, **data: object) -> None:
        """Write one event as ``{"seq":<n>`` + :func:`record_bytes`;
        called only from sites that checked a sink is attached."""
        if self._file is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        if self._remap is not None:
            offset, files = self._remap
            for field in ("disk", "dst", "src"):
                value = data.get(field)
                if value is not None:
                    data[field] = value + offset  # type: ignore[operator]
            value = data.get("file")
            if value is not None:
                data["file"] = files[value]  # type: ignore[index]
        seq = self.events_written
        payload = _orjson_payload(time_, data)
        if payload is None:
            line = _line(seq, time_, type_, data)
        elif data:
            line = b'{"seq":%d,"t":%b%b,%b\n' % (seq, _dumps(time_), _type_field(type_),
                                                payload[1:])
        else:
            line = b'{"seq":%d,"t":%b%b}\n' % (seq, _dumps(time_), _type_field(type_))
        self._file.write(line)
        self.events_written = seq + 1

    # The request lifecycle is nearly every record of a traced run, so it
    # has typed encoders: fields positional, the remap applied to the id
    # fields the event has, and the whole line one orjson call wherever
    # its bytes provably equal json.dumps's -- the float fields in the
    # exponent-free domain of _orjson_payload, the ints within 64 bits.
    # Ids are ints (``file`` may be None) and ``internal`` a bool, as the
    # drive passes them; anything else takes record_body, like emit.

    def request_submit(self, time_: float, disk: int, size_mb: float,
                       internal: bool, file: int | None) -> None:
        """:meth:`emit` of ``request.submit``, the same bytes."""
        fh = self._file
        if fh is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        if self._remap is not None:
            disk += self._remap[0]
            if file is not None:
                file = self._remap[1][file]
        seq = self.events_written
        line = None
        if (type(time_) is float and type(size_mb) is float
                and (1e-4 <= time_ < 1e16 or time_ == 0.0 or -1e16 < time_ <= -1e-4)
                and (1e-4 <= size_mb < 1e16 or size_mb == 0.0
                     or -1e16 < size_mb <= -1e-4)):
            try:
                line = _dumps({"seq": seq, "t": time_, "type": REQUEST_SUBMIT,
                               "disk": disk, "file": file, "internal": internal,
                               "size_mb": size_mb}, option=OPT_APPEND_NEWLINE)
            except JSONEncodeError:  # an int past 64 bits
                pass
        if line is None:
            line = _line(seq, time_, REQUEST_SUBMIT, {
                "disk": disk, "file": file, "internal": internal, "size_mb": size_mb})
        fh.write(line)
        self.events_written = seq + 1

    def request_dispatch(self, time_: float, disk: int, wait_s: float,
                         service_s: float, internal: bool) -> None:
        """:meth:`emit` of ``request.dispatch``, the same bytes."""
        fh = self._file
        if fh is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        if self._remap is not None:
            disk += self._remap[0]
        seq = self.events_written
        line = None
        if (type(time_) is float and type(wait_s) is float and type(service_s) is float
                and (1e-4 <= time_ < 1e16 or time_ == 0.0 or -1e16 < time_ <= -1e-4)
                and (1e-4 <= wait_s < 1e16 or wait_s == 0.0 or -1e16 < wait_s <= -1e-4)
                and (1e-4 <= service_s < 1e16 or service_s == 0.0
                     or -1e16 < service_s <= -1e-4)):
            try:
                line = _dumps({"seq": seq, "t": time_, "type": REQUEST_DISPATCH,
                               "disk": disk, "internal": internal,
                               "service_s": service_s, "wait_s": wait_s},
                              option=OPT_APPEND_NEWLINE)
            except JSONEncodeError:
                pass
        if line is None:
            line = _line(seq, time_, REQUEST_DISPATCH, {
                "disk": disk, "internal": internal, "service_s": service_s,
                "wait_s": wait_s})
        fh.write(line)
        self.events_written = seq + 1

    def request_complete(self, time_: float, disk: int, size_mb: float,
                         sojourn_s: float, internal: bool) -> None:
        """:meth:`emit` of ``request.complete``, the same bytes."""
        fh = self._file
        if fh is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        if self._remap is not None:
            disk += self._remap[0]
        seq = self.events_written
        line = None
        if (type(time_) is float and type(size_mb) is float and type(sojourn_s) is float
                and (1e-4 <= time_ < 1e16 or time_ == 0.0 or -1e16 < time_ <= -1e-4)
                and (1e-4 <= size_mb < 1e16 or size_mb == 0.0
                     or -1e16 < size_mb <= -1e-4)
                and (1e-4 <= sojourn_s < 1e16 or sojourn_s == 0.0
                     or -1e16 < sojourn_s <= -1e-4)):
            try:
                line = _dumps({"seq": seq, "t": time_, "type": REQUEST_COMPLETE,
                               "disk": disk, "internal": internal,
                               "size_mb": size_mb, "sojourn_s": sojourn_s},
                              option=OPT_APPEND_NEWLINE)
            except JSONEncodeError:
                pass
        if line is None:
            line = _line(seq, time_, REQUEST_COMPLETE, {
                "disk": disk, "internal": internal, "size_mb": size_mb,
                "sojourn_s": sojourn_s})
        fh.write(line)
        self.events_written = seq + 1

    def close(self) -> None:
        """Flush, close, and atomically publish the trace (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None
            os.replace(self._tmp_path, self.path)

    def abort(self) -> None:
        """Close without publishing; quarantine the partial trace.

        Idempotent, and a no-op after a successful :meth:`close` — an
        already-published trace is complete and must stay in place.
        """
        if self._file is None:
            return
        self._file.close()
        self._file = None
        try:
            os.replace(self._tmp_path,
                       self.path.with_name(self.path.name + PARTIAL_SUFFIX))
        except OSError:  # best-effort: never mask the original failure
            pass

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def parse_record(line: str, path: PathLike, lineno: int) -> dict:
    """``json.loads`` of one stripped trace line: exactly one JSON object
    with a ``type`` field, else a ValueError naming ``path:lineno``."""
    try:
        record, end = _raw_decode(line)
        if end != len(line):
            raise JSONDecodeError("Extra data", line, end)
    except JSONDecodeError as exc:
        raise ValueError(f"{path}:{lineno}: not a JSON trace record: {exc}") from exc
    if not isinstance(record, dict) or "type" not in record:
        raise ValueError(f"{path}:{lineno}: trace record missing 'type' field")
    return record


def read_trace(path: PathLike) -> list[dict]:
    """Load a JSONL trace back into a list of dict records (blank lines
    skipped, every other line checked by :func:`parse_record`)."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return [parse_record(line, path, lineno)
                for lineno, line in enumerate(map(str.strip, fh), start=1) if line]


# ----------------------------------------------------------------------
# time-series
# ----------------------------------------------------------------------
def timeseries_to_csv_text(series: "TimeSeries") -> str:
    """Render a :class:`~repro.obs.sampler.TimeSeries` as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(series.columns)
    for row in series.rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_timeseries(series: "TimeSeries", path: PathLike) -> Path:
    """Write a time-series to ``path``: ``.json`` gets a structured JSON
    document, anything else (canonically ``.csv``) gets CSV.

    Atomic (tmp file + ``os.replace``): a killed process never leaves a
    truncated series where a plotting script expects a whole one."""
    target = Path(path)
    if target.suffix.lower() == ".json":
        doc = {"interval_s": series.interval_s,
               "columns": list(series.columns),
               "rows": [list(row) for row in series.rows]}
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    else:
        text = timeseries_to_csv_text(series)
    return atomic_write_text(target, text)
