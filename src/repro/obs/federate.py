"""Federation of per-shard telemetry into one canonical artifact set.

A sharded cell (:mod:`repro.experiments.shard`) runs one kernel — and
therefore one :class:`~repro.obs.export.JsonlTraceWriter` and one
:class:`~repro.obs.sampler.DiskSampler` — per shard.  Each shard's
events already carry *global* disk/file ids (remapped at emission by
the writer's disk offset and file table) and land, untagged, in an
atomic per-shard JSONL segment.  This module turns those partials back
into the single-run shape every downstream consumer expects:

:func:`merge_trace_files`
    Deterministic k-way merge of the segments, ordered by
    ``(time, segment index, seq)`` — simulated time first, then the
    shard the segment came from, then the shard-local emission order.
    Each line is parsed (orjson, falling back to the stdlib) to
    validate it and key it; its bytes after ``seq`` are copied (by
    slice when it starts with the canonical ``{"seq":<seq>,"t":``), and
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

import math
import os
from bisect import bisect_right
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

#: Bytes per segment read (the ``readlines`` hint): the merge holds
#: about one such block per segment, parsed.
_READ_HINT = 1 << 16


def shard_segment_path(trace_path: PathLike, shard_index: int) -> Path:
    """Per-shard segment path for one cell's trace output.

    ``trace.jsonl`` -> ``trace.shard0007.jsonl``: the zero-padded index
    keeps lexicographic order equal to shard order, so a
    ``trace.shard*.jsonl`` glob enumerates segments in merge order.
    """
    require(shard_index >= 0, f"shard_index must be >= 0, got {shard_index}")
    p = Path(trace_path)
    return p.with_name(f"{p.stem}.shard{shard_index:04d}{p.suffix}")


def _segment_blocks(path: Path, shard: int) -> Iterator[list[tuple[float, int, int, bytes]]]:
    """Yield one segment's ``(t, shard, seq, body)`` records, in file
    order, a block of about :data:`_READ_HINT` bytes at a time.

    Within a segment, records are sorted by ``(t, seq)`` — the writer
    assigns ``seq`` in kernel dispatch order — so each segment is a
    sorted run for the k-way merge; a record whose ``(t, seq)`` does not
    strictly follow the one before it raises a ValueError naming
    ``path:lineno``, since the merge would write it out of time order.
    Each line is parsed in full by orjson.  A line it reads as a dict
    with a ``type``, an int ``seq >= 0`` and a float ``t``, and which
    starts with ``{"seq":<seq>,"t":``, is canonical, and its body is the
    slice after ``seq``.  Every other line takes the exact path:
    :func:`~repro.obs.export.parse_record` for whatever orjson rejects
    (NaN/Infinity) or reads unlike the stdlib (a ``seq`` past 64 bits,
    which it reads as a float), then :func:`~repro.obs.export.splice_body`
    — so the merge accepts exactly what the stdlib does and every bad
    line raises a ValueError naming ``path:lineno``.  Blank lines are
    skipped; a block of only blank lines is not yielded.
    """
    first = 1
    last_t, last_seq = -math.inf, -1
    with path.open("rb") as fh:
        while lines := fh.readlines(_READ_HINT):
            block = []
            append = block.append
            for lineno, line in enumerate(map(bytes.strip, lines), start=first):
                if not line:
                    continue
                try:
                    record = _loads(line)
                except JSONDecodeError:
                    record = None
                if (type(record) is dict and "type" in record
                        and type(seq := record.get("seq")) is int
                        and type(t := record.get("t")) is float):
                    if seq >= 0 and line.startswith(prefix := b'{"seq":%d,"t":' % seq):
                        body = line[len(prefix) - 5:]
                    else:
                        body = splice_body(line, path, lineno)
                else:
                    record = _stdlib_record(line, path, lineno)
                    t, seq = record["t"], record["seq"]
                    body = splice_body(line, path, lineno)
                if t < last_t or (t == last_t and seq <= last_seq):
                    raise ValueError(
                        f"{path}:{lineno}: record (t={t!r}, seq={seq}) does not "
                        f"follow (t={last_t!r}, seq={last_seq}): a segment must "
                        f"be sorted by (t, seq)")
                last_t, last_seq = t, seq
                append((t, shard, seq, body))
            first += len(lines)
            if block:
                yield block


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
    if t != t:  # orjson reads no NaN, so only this path can see one
        raise ValueError(f"{path}:{lineno}: trace record has a NaN 't', "
                         f"which has no place in time order")
    return record


def _merged_batches(runs: list[Iterator[list[tuple[float, int, int, bytes]]]]
                    ) -> Iterator[list[tuple[float, int, int, bytes]]]:
    """K-way merge of sorted runs of record blocks, a sorted batch at a time.

    Each round takes, from every run's current block, the records at or
    below the smallest last key among those blocks: nothing unread can
    sort below it, so the round's batch, sorted, is the next stretch of
    the merged order.  The run that owned that key is drained and reads
    its next block only after the batch is consumed, so at most one
    block per run is held.  ``(t, shard, seq)`` is unique per record, so
    the tuple comparisons never reach ``body``.
    """
    heads = [[block, 0, run] for run in runs if (block := next(run, None)) is not None]
    while heads:
        owner = min(heads, key=lambda head: head[0][-1])
        bound = owner[0][-1]
        batch: list[tuple[float, int, int, bytes]] = []
        for head in heads:
            block, at, _run = head
            # the owner drains whole, so every round frees a block
            end = len(block) if head is owner else bisect_right(block, bound, at)
            batch += block[at:end]
            head[1] = end
        if len(heads) > 1:
            batch.sort()
        yield batch
        live = []
        for head in heads:
            if head[1] == len(head[0]):
                block = next(head[2], None)
                if block is None:
                    continue
                head[0], head[1] = block, 0
            live.append(head)
        heads = live


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
    and a line without the canonical ``{"seq":<int>,"t":`` prefix, with
    a NaN ``t``, or out of ``(t, seq)`` order in its segment, is
    rejected.  Streaming end to end (at most one
    block of about :data:`_READ_HINT` bytes per segment in memory,
    whatever the trace length) and atomic: the merged trace appears at
    ``out_path`` only when complete.  Returns the number of *data*
    records merged.
    """
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    head = [record_bytes(t, type_, payload) for type_, t, payload in lead]
    foot = [record_bytes(t, type_, payload) for type_, t, payload in tail]
    runs = [_segment_blocks(Path(p), i) for i, p in enumerate(segments)]
    written = len(head)
    try:
        with tmp.open("wb") as fh:  # repro: allow[IO001] streams to a .tmp sibling; published whole via os.replace below
            fh.write(b"".join([b'{"seq":%d%b\n' % record for record in enumerate(head)]))
            for batch in _merged_batches(runs):
                fh.write(b"".join([b'{"seq":%d%b\n' % (seq, record[3])
                                   for seq, record in enumerate(batch, written)]))
                written += len(batch)
            fh.write(b"".join([b'{"seq":%d%b\n' % record
                               for record in enumerate(foot, written)]))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, out)
    return written - len(head)
