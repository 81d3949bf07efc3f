"""Federation of per-shard telemetry into one canonical artifact set.

A sharded cell (:mod:`repro.experiments.shard`) runs one kernel — and
therefore one :class:`~repro.obs.bus.TraceBus` and one
:class:`~repro.obs.sampler.DiskSampler` — per shard.  Each shard's
events already carry *global* disk/file ids (remapped at emission via
the bus's ``id_maps``) and land, untagged, in an atomic per-shard JSONL
segment.  This module turns those partials back into the single-run
shape every downstream consumer expects:

:func:`merge_trace_files`
    Deterministic k-way merge of the segments, ordered by
    ``(time, segment index, seq)`` — simulated time first, then the
    shard the segment came from, then the shard-local emission order.
    Each line is parsed (orjson, falling back to the stdlib) to
    validate it and key it; its bytes after ``seq`` are copied, and
    ``seq`` is renumbered globally, so the output bytes depend only on
    the events themselves: byte-identical across ``--jobs`` values, and
    across shard counts whenever the event *timestamps* are
    shard-count-invariant (true for disk-local policies; cross-shard
    ties fall back to shard order, which is global-disk-group order).

:func:`shard_segment_path`
    The naming convention tying a cell's trace path to its per-shard
    segments (``trace.jsonl`` -> ``trace.shard0007.jsonl``), shared by
    the shard worker, the merge, and ``repro obs summarize`` globs.
"""

from __future__ import annotations

import heapq
import os
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from orjson import JSONDecodeError
from orjson import loads as _loads

from repro.obs.export import parse_record, record_bytes, splice_body
from repro.util.validation import require

__all__ = [
    "shard_segment_path",
    "merge_trace_files",
    "SynthesizedEvent",
]

PathLike = Union[str, Path]

#: One synthesized lifecycle event: ``(type, time_s, payload)``.  The
#: merge assigns its global ``seq``; the payload is emitted key-sorted.
SynthesizedEvent = tuple[str, float, dict]


def shard_segment_path(trace_path: PathLike, shard_index: int) -> Path:
    """Per-shard segment path for one cell's trace output.

    ``trace.jsonl`` -> ``trace.shard0007.jsonl``: the zero-padded index
    keeps lexicographic order equal to shard order, so a
    ``trace.shard*.jsonl`` glob enumerates segments in merge order.
    """
    require(shard_index >= 0, f"shard_index must be >= 0, got {shard_index}")
    p = Path(trace_path)
    return p.with_name(f"{p.stem}.shard{shard_index:04d}{p.suffix}")


def _segment_lines(path: Path, shard: int) -> Iterator[tuple[float, int, int, bytes]]:
    """Yield ``(t, shard, seq, body)`` for one segment, in file order.

    Within a segment, records are already sorted by ``(t, seq)`` — the
    bus assigns ``seq`` in kernel dispatch order — so each segment is a
    sorted run for the k-way merge.  Each line is parsed in full: by
    orjson, or by :func:`~repro.obs.export.parse_record` for whatever
    orjson rejects (NaN/Infinity) or reads unlike the stdlib (a ``seq``
    past 64 bits, which it reads as a float), so the merge accepts
    exactly what the stdlib does and every bad line raises a ValueError
    naming ``path:lineno``.
    """
    with path.open("rb") as fh:
        for lineno, line in enumerate(map(bytes.strip, fh), start=1):
            if not line:
                continue
            try:
                record = _loads(line)
            except JSONDecodeError:
                record = None
            if not (type(record) is dict and "type" in record
                    and type(record.get("seq")) is int
                    and type(record.get("t")) is float):
                record = _stdlib_record(line, path, lineno)
            yield record["t"], shard, record["seq"], splice_body(line, path, lineno)


def _stdlib_record(line: bytes, path: Path, lineno: int) -> dict:
    """:func:`~repro.obs.export.parse_record` of a segment line, which
    must also hold a number ``t`` and an int ``seq`` (bools are neither)."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}:{lineno}: not a JSON trace record: {exc}") from exc
    record = parse_record(text, path, lineno)
    t, seq = record.get("t"), record.get("seq")
    if type(t) not in (int, float) or type(seq) is not int:
        raise ValueError(f"{path}:{lineno}: canonical trace record needs a "
                         f"number 't' and an int 'seq', got t={t!r}, seq={seq!r}")
    return record


def merge_trace_files(segments: Sequence[PathLike], out_path: PathLike, *,
                      lead: Iterable[SynthesizedEvent] = (),
                      tail: Iterable[SynthesizedEvent] = ()) -> int:
    """K-way merge per-shard JSONL segments into one canonical trace.

    Records across segments interleave by ``(time, segment index, seq)``,
    and ``seq`` is renumbered globally, so the merged bytes are
    independent of how many shards (or jobs) produced the segments.
    ``lead``/``tail`` are synthesized lifecycle events (e.g. one global
    ``engine.start``/``engine.stop`` replacing the per-shard ones that
    were never emitted) written before/after the data records, sharing
    the global ``seq`` space.

    Segments must be :class:`~repro.obs.export.JsonlTraceWriter` output:
    each record's bytes after its ``seq`` are copied, not re-encoded,
    and a line without the canonical ``{"seq":<int>,"t":`` prefix is
    rejected.  Streaming end to end (constant memory in the trace
    length) and atomic: the merged trace appears at ``out_path`` only
    when complete.  Returns the number of *data* records merged.
    """
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    head = [record_bytes(t, type_, payload) for type_, t, payload in lead]
    foot = [record_bytes(t, type_, payload) for type_, t, payload in tail]
    runs = [_segment_lines(Path(p), i) for i, p in enumerate(segments)]
    # (t, shard, seq) is unique per record, so the bodies are never compared
    data = (body for _t, _shard, _seq, body in heapq.merge(*runs))
    seq = -1
    try:
        with tmp.open("wb") as fh:  # repro: allow[IO001] streams to a .tmp sibling; published whole via os.replace below
            for seq, body in enumerate(chain(head, data, foot)):
                fh.write(b'{"seq":%d%b\n' % (seq, body))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, out)
    return seq + 1 - len(head) - len(foot)
