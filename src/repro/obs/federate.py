"""Federation of per-shard telemetry into one canonical artifact set.

A sharded cell (:mod:`repro.experiments.shard`) runs one kernel — and
therefore one :class:`~repro.obs.bus.TraceBus`, one
:class:`~repro.obs.sampler.DiskSampler`, one
:class:`~repro.obs.metrics.MetricsRegistry` — per shard.  Each shard's
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

:func:`federate_registries`
    Typed merge of registry snapshots (``as_dict()`` shapes): counters
    sum, gauges take the value from the last snapshot time (ties break
    toward the highest shard index), histograms merge bin-exactly —
    the same exact-integer discipline as the response histogram in
    :func:`~repro.experiments.shard.merge_shard_results`.

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
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from orjson import JSONDecodeError
from orjson import loads as _loads

from repro.obs.export import parse_record, record_bytes, splice_body
from repro.util.validation import require

__all__ = [
    "shard_segment_path",
    "merge_trace_files",
    "federate_registries",
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


# ----------------------------------------------------------------------
# metrics federation
# ----------------------------------------------------------------------
def _merge_histograms(name: str, entries: list[tuple[int, Mapping[str, object]]],
                      ) -> dict[str, object]:
    """Exact-integer bin merge; bounds must match across shards."""
    bounds = list(entries[0][1]["bounds"])  # type: ignore[arg-type]
    for index, entry in entries[1:]:
        require(list(entry["bounds"]) == bounds,  # type: ignore[arg-type]
                f"metric {name!r}: histogram bounds differ across shards "
                f"(shard {entries[0][0]} vs shard {index})")
    counts = [list(e["bucket_counts"]) for _, e in entries]  # type: ignore[arg-type]
    merged_counts = [sum(col) for col in zip(*counts)]
    mins = [e["min"] for _, e in entries if e["min"] is not None]
    maxes = [e["max"] for _, e in entries if e["max"] is not None]
    return {
        "type": "histogram",
        "count": sum(int(e["count"]) for _, e in entries),  # type: ignore[arg-type]
        "sum": sum(float(e["sum"]) for _, e in entries),  # type: ignore[arg-type]
        "min": min(mins) if mins else None,  # type: ignore[type-var]
        "max": max(maxes) if maxes else None,  # type: ignore[type-var]
        "bounds": bounds,
        "bucket_counts": merged_counts,
    }


def federate_registries(snapshots: Sequence[Mapping[str, Mapping[str, object]]],
                        *, at: Optional[Sequence[float]] = None,
                        ) -> dict[str, dict[str, object]]:
    """Merge per-shard registry snapshots into one typed registry dict.

    ``snapshots`` are ``MetricsRegistry.as_dict()`` outputs in shard
    order; ``at`` optionally gives each snapshot's capture time (a
    shard's local end time).  Federation is typed:

    * **counters** sum across shards;
    * **gauges** take the value from the snapshot with the latest
      capture time (ties — and the no-``at`` case — break toward the
      highest shard index, a deterministic total order);
    * **histograms** merge bin-exactly (bounds must match) with exact
      integer bucket counts, like the response histogram in
      :func:`~repro.experiments.shard.merge_shard_results`.

    A metric may appear in any subset of shards (per-disk gauges are
    naturally disjoint across shards); conflicting types for one name
    are an error.
    """
    require(len(snapshots) >= 1, "need at least one registry snapshot")
    if at is not None:
        require(len(at) == len(snapshots),
                f"need one capture time per snapshot, got {len(at)} "
                f"for {len(snapshots)}")
    out: dict[str, dict[str, object]] = {}
    for name in sorted({name for snap in snapshots for name in snap}):
        entries = [(i, snap[name]) for i, snap in enumerate(snapshots)
                   if name in snap]
        kinds = sorted({str(e["type"]) for _, e in entries})
        require(len(kinds) == 1,
                f"metric {name!r} has conflicting types across shards: {kinds}")
        kind = kinds[0]
        if kind == "counter":
            out[name] = {"type": "counter",
                         "value": sum(float(e["value"]) for _, e in entries)}  # type: ignore[arg-type]
        elif kind == "gauge":
            _, winner = max(entries,
                            key=lambda p: (at[p[0]] if at is not None else 0.0,
                                           p[0]))
            out[name] = {"type": "gauge", "value": winner["value"]}
        elif kind == "histogram":
            out[name] = _merge_histograms(name, entries)
        else:
            raise ValueError(f"metric {name!r}: unknown type {kind!r}")
    return out
