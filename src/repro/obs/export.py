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
from typing import TYPE_CHECKING, BinaryIO, Union

from orjson import OPT_SORT_KEYS, JSONEncodeError
from orjson import dumps as _dumps

from repro.obs.events import TraceEvent
from repro.util.atomicio import PARTIAL_SUFFIX, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sampler import TimeSeries

__all__ = ["JsonlTraceWriter", "event_to_json", "parse_record", "read_trace", "record_body",
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


def record_bytes(time: float, type_: str, data: dict) -> bytes:
    """``record_body(time, type_, data).encode()``, by orjson where its
    bytes are provably the same, else by :func:`record_body`.

    orjson writes the shortest round-trip digits ``float.__repr__`` does
    but its own exponent syntax and ``null`` for NaN/Infinity, so a float
    takes the fast path only where ``repr`` writes no exponent: ``0.0``
    and ``1e-4 <= abs(v) < 1e16``.  Strings must come out printable
    ASCII (``json.dumps`` escapes the rest, DEL included; orjson writes
    UTF-8 and raw DEL); ints past 64 bits make orjson raise.  Exact
    ``int``, ``bool`` and ``None`` are written alike by both.
    """
    if type(time) is float and (1e-4 <= abs(time) < 1e16 or time == 0.0):
        for value in data.values():
            kind = type(value)
            if kind is float:
                if not (1e-4 <= abs(value) < 1e16 or value == 0.0):
                    break
            elif kind is not int and kind is not str and kind is not bool and value is not None:
                break
        else:
            try:
                payload = _dumps(data, option=OPT_SORT_KEYS)
            except JSONEncodeError:  # an int past 64 bits, a lone surrogate
                pass
            else:
                if payload.isascii() and 127 not in payload:
                    head = b"".join((b',"t":', _dumps(time), _type_field(type_)))
                    return head + b"," + payload[1:] if data else head + b"}"
    return record_body(time, type_, data).encode()


def event_to_json(event: TraceEvent) -> str:
    """One event as a canonical single-line JSON record: ``seq`` first,
    then :func:`record_body` — deterministic bytes, no whitespace."""
    return f'{{"seq":{event.seq}{record_body(event.time, event.type, event.data)}'


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
    """Bus subscriber streaming events to a JSONL file.

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
    >>> bus = TraceBus(); writer = JsonlTraceWriter(path)   # doctest: +SKIP
    >>> bus.subscribe(writer)                               # doctest: +SKIP
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp_path = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.tmp")
        self._file: BinaryIO | None = self._tmp_path.open(  # repro: allow[IO001] streams to a .tmp sibling; close() publishes with os.replace, abort() quarantines
            "wb")
        self.events_written = 0

    def __call__(self, event: TraceEvent) -> None:
        """The subscriber interface: serialize and buffer one event."""
        if self._file is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        self._file.write(b'{"seq":%d%b\n'
                         % (event.seq, record_bytes(event.time, event.type, event.data)))
        self.events_written += 1

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
