"""Reader/writer for the WorldCup98 binary access-log format.

The 1998 World Cup web trace (Arlitt & Jin, reference [2] of the paper)
is distributed as a sequence of fixed-size 20-byte binary records, each
field big-endian ("network byte order" per the trace's README):

===========  ======  ========================================
field        bytes   meaning
===========  ======  ========================================
timestamp    4       seconds since epoch of the request
clientID     4       anonymized client identifier
objectID     4       unique id of the requested URL
size         4       bytes in the response
method       1       HTTP method code (GET = 0)
status       1       HTTP protocol/status code byte
type         1       file-type code (HTML = 0, IMAGE = 1, ...)
server       1       site/region/server id byte
===========  ======  ========================================

This module parses that exact layout so the *real* trace can be dropped
into any experiment in place of the synthetic workload — the substitution
documented in DESIGN.md runs in reverse for anyone who has the file.
Object ids are remapped to a dense 0..n-1 range and per-object sizes are
taken from the largest response observed for that object (responses can
be truncated/partial, so the max is the best whole-file size estimate).
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Union

import numpy as np

from repro.util.atomicio import atomic_write_bytes
from repro.util.validation import require
from repro.workload.files import FileSet
from repro.workload.trace import Trace

__all__ = ["TraceFormatError", "WC98Record", "read_wc98", "write_wc98",
           "wc98_to_trace", "RECORD_SIZE"]

#: struct layout: big-endian, 4 uint32 + 4 uint8 = 20 bytes.
_RECORD_STRUCT = struct.Struct(">IIIIBBBB")
RECORD_SIZE = _RECORD_STRUCT.size
assert RECORD_SIZE == 20

#: Method code for GET in the WC98 tools distribution.
METHOD_GET = 0


class TraceFormatError(ValueError):
    """A binary trace file does not conform to the WC98 wire format.

    Raised (rather than silently mis-parsing or swallowing the tail)
    when the byte stream ends mid-record — the classic symptom of an
    interrupted download or a log truncated by disk-full.  Carries the
    location so the offending file can be inspected/repaired:

    Attributes
    ----------
    record_index:
        Index of the record that could not be decoded (0-based; equals
        the number of records decoded successfully).
    byte_offset:
        File offset at which that record starts.
    got_bytes:
        How many bytes of the partial record were present.
    """

    def __init__(self, record_index: int, byte_offset: int, got_bytes: int) -> None:
        super().__init__(
            f"truncated WC98 record #{record_index} at byte {byte_offset}: "
            f"got {got_bytes} trailing byte(s), expected {RECORD_SIZE}")
        self.record_index = record_index
        self.byte_offset = byte_offset
        self.got_bytes = got_bytes


@dataclass(frozen=True, slots=True)
class WC98Record:
    """One decoded access-log record (field semantics in the module docstring)."""

    timestamp: int
    client_id: int
    object_id: int
    size: int
    method: int
    status: int
    type: int
    server: int

    def pack(self) -> bytes:
        """Encode back to the 20-byte wire format."""
        return _RECORD_STRUCT.pack(self.timestamp, self.client_id, self.object_id,
                                    self.size, self.method, self.status, self.type,
                                    self.server)


def _iter_records(fh: BinaryIO) -> Iterator[WC98Record]:
    index = 0
    offset = 0
    while True:
        chunk = fh.read(RECORD_SIZE)
        if not chunk:
            return
        if len(chunk) != RECORD_SIZE:
            # short reads mid-stream (pipes, sockets) are legal — keep
            # reading until the record completes or the stream truly
            # ends; only a short record *at EOF* is corruption
            while len(chunk) < RECORD_SIZE:
                rest = fh.read(RECORD_SIZE - len(chunk))
                if not rest:
                    raise TraceFormatError(index, offset, len(chunk))
                chunk += rest
        yield WC98Record(*_RECORD_STRUCT.unpack(chunk))
        index += 1
        offset += RECORD_SIZE


def read_wc98(path_or_file: Union[str, Path, BinaryIO], *,
              max_records: int | None = None) -> list[WC98Record]:
    """Decode a WC98 binary log into records (optionally capped)."""
    if max_records is not None:
        require(max_records >= 0, f"max_records must be >= 0, got {max_records}")

    def _read(fh: BinaryIO) -> list[WC98Record]:
        out: list[WC98Record] = []
        for rec in _iter_records(fh):
            out.append(rec)
            if max_records is not None and len(out) >= max_records:
                break
        return out

    if isinstance(path_or_file, (str, Path)):
        with open(path_or_file, "rb") as fh:
            return _read(fh)
    return _read(path_or_file)


def write_wc98(records: Iterable[WC98Record],
               path_or_file: Union[str, Path, BinaryIO]) -> int:
    """Encode records to the binary format; returns the record count."""
    def _write(fh: BinaryIO) -> int:
        n = 0
        for rec in records:
            fh.write(rec.pack())
            n += 1
        return n

    if isinstance(path_or_file, (str, Path)):
        buf = io.BytesIO()
        count = _write(buf)
        atomic_write_bytes(path_or_file, buf.getvalue())
        return count
    return _write(path_or_file)


def wc98_to_trace(records: list[WC98Record], *,
                  methods: tuple[int, ...] = (METHOD_GET,),
                  min_size_bytes: int = 1) -> tuple[FileSet, Trace]:
    """Convert decoded records to the simulator's (FileSet, Trace) inputs.

    * keeps only the given HTTP methods (GET by default) and responses of
      at least ``min_size_bytes`` (zero-byte responses carry no disk work);
    * re-bases timestamps so the trace starts at t = 0 (second resolution
      in the wire format; sub-second jitter is *not* invented here — feed
      the result through :meth:`Trace.time_scaled` or re-sample arrivals
      if finer spacing is required);
    * remaps object ids densely and sizes each file as the maximum
      response size observed for it.
    """
    require(len(records) > 0, "no records to convert")
    kept = [r for r in records
            if r.method in methods and r.size >= min_size_bytes]
    require(len(kept) > 0, "no records survive filtering")

    kept.sort(key=lambda r: r.timestamp)
    t0 = kept[0].timestamp
    raw_ids = np.array([r.object_id for r in kept], dtype=np.int64)
    times = np.array([r.timestamp - t0 for r in kept], dtype=np.float64)
    sizes = np.array([r.size for r in kept], dtype=np.float64)

    unique_ids, dense = np.unique(raw_ids, return_inverse=True)
    file_sizes_mb = np.zeros(unique_ids.size, dtype=np.float64)
    np.maximum.at(file_sizes_mb, dense, sizes)
    file_sizes_mb /= 1.0e6  # bytes -> MB, datasheet convention

    return FileSet(file_sizes_mb), Trace(times, dense)
