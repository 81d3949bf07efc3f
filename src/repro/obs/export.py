"""Exporters: JSONL event traces and CSV/JSON time-series files.

Byte-determinism contract: everything written here is a pure function
of the simulation's seeded state — no wall-clock timestamps, no object
ids, keys sorted, floats via ``repr`` (shortest round-trip) — so two
runs of the same configuration produce byte-identical files.  The
acceptance tests diff whole files on this guarantee.
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
from typing import TYPE_CHECKING, Union

from repro.obs.events import TraceEvent
from repro.util.atomicio import PARTIAL_SUFFIX, atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sampler import TimeSeries

__all__ = ["JsonlTraceWriter", "event_to_json", "parse_record", "read_trace", "record_body",
           "splice_body", "write_timeseries", "timeseries_to_csv_text", "write_metrics_json"]

PathLike = Union[str, Path]


#: The C encoder ``json.dumps(..., separators=(",", ":"), allow_nan=True)``
#: rebuilds per call, built once, sorting keys: same bytes for flat payloads
#: (the events.py contract); nested dicts would get sorted keys, no cycle check.
_encode = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", True, False, True)
_type_fields: dict[str, str] = {}  # ',"type":"<type>"', encoded once per type
_raw_decode = JSONDecoder().raw_decode


def record_body(time: float, type_: str, data: dict) -> str:
    """A canonical trace record after its ``{"seq":<seq>`` head: ``t``,
    ``type``, then the flat payload sorted, compact — with the head,
    exactly ``json.dumps`` of the record for scalar payload values."""
    # finite float: float.__repr__; NaN/Infinity, ints, subclasses: the encoder
    t_text = (float.__repr__(time) if type(time) is float and isfinite(time)
              else "".join(_encode(time, 0)))
    type_field = _type_fields.get(type_)
    if type_field is None:
        type_field = _type_fields[type_] = ',"type":' + "".join(_encode(type_, 0))
    head = f',"t":{t_text}{type_field}'
    return head + "," + "".join(_encode(data, 0))[1:] if data else head + "}"


def event_to_json(event: TraceEvent) -> str:
    """One event as a canonical single-line JSON record: ``seq`` first,
    then :func:`record_body` — deterministic bytes, no whitespace."""
    return f'{{"seq":{event.seq}{record_body(event.time, event.type, event.data)}'


def splice_body(line: str, record: dict, path: PathLike, lineno: int) -> str:
    """The :func:`record_body` of a stripped :func:`event_to_json` line parsed
    as ``record``, minus its ``,"shard":N`` tag (which, in a flat payload, no
    string can contain); other lines raise a ValueError naming ``path:lineno``."""
    t_at = line.find(',"t":')
    if not (t_at > 7 and line.startswith('{"seq":') and line[7:t_at].isdigit()):
        raise ValueError(f"{path}:{lineno}: trace record lacks the "
                         f"canonical '{{\"seq\":<int>,\"t\":' prefix")
    body = line[t_at:]
    cut = body.find(',"shard":') if "shard" in record else -1
    return body if cut < 0 else body[:cut] + body[_raw_decode(body, cut + 9)[1]:]


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
        self._file: io.TextIOWrapper | None = self._tmp_path.open(  # repro: allow[IO001] streams to a .tmp sibling; close() publishes with os.replace, abort() quarantines
            "w", encoding="utf-8", newline="\n")
        self.events_written = 0

    def __call__(self, event: TraceEvent) -> None:
        """The subscriber interface: serialize and buffer one event."""
        if self._file is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        self._file.write(event_to_json(event) + "\n")
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


def write_metrics_json(registry: "MetricsRegistry", path: PathLike) -> Path:
    """Dump a metrics registry as deterministic, indented JSON (atomic)."""
    text = json.dumps(registry.as_dict(), indent=2, sort_keys=True) + "\n"
    return atomic_write_text(path, text)
