"""Trace rollups: turn a JSONL event stream back into readable tables.

``repro obs summarize <trace.jsonl>`` is built on this module: it reads
a trace written by :class:`~repro.obs.export.JsonlTraceWriter` and
aggregates it two ways —

* **per event type**: count, first/last simulated time;
* **per disk**: every event carrying a ``disk`` field is charged to
  that disk, with the request-lifecycle counters (submits, dispatches,
  completions, failures), transition count, and served MB broken out.

Pure functions over plain data, so the tests round-trip a simulation
through the writer and assert the rollups match the run's own metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

from repro.obs import events as ev
from repro.obs.export import read_trace
from repro.util.tables import format_table

__all__ = ["DiskRollup", "TraceSummary", "summarize_records",
           "summarize_traces", "format_summary"]

PathLike = Union[str, Path]


@dataclass(slots=True)
class DiskRollup:
    """Aggregated per-disk view of one trace."""

    disk: int
    events: int = 0
    submits: int = 0
    dispatches: int = 0
    completions: int = 0
    failures: int = 0
    transitions: int = 0
    completed_mb: float = 0.0
    #: summed queue wait of dispatched jobs (from ``request.dispatch``).
    total_wait_s: float = 0.0

    @property
    def mean_wait_ms(self) -> float:
        """Mean queueing delay of dispatched jobs, milliseconds."""
        return (self.total_wait_s / self.dispatches * 1e3
                if self.dispatches else 0.0)

    def summary_row(self) -> dict[str, object]:
        return {
            "disk": self.disk, "events": self.events,
            "submits": self.submits, "completions": self.completions,
            "failures": self.failures, "transitions": self.transitions,
            "MB_served": round(self.completed_mb, 1),
            "mean_wait_ms": round(self.mean_wait_ms, 3),
        }


@dataclass(slots=True)
class TraceSummary:
    """Everything ``obs summarize`` reports about one trace file."""

    total_events: int = 0
    duration_s: float = 0.0
    #: event type -> (count, first time, last time)
    by_type: dict[str, tuple[int, float, float]] = field(default_factory=dict)
    by_disk: dict[int, DiskRollup] = field(default_factory=dict)
    unknown_types: set[str] = field(default_factory=set)

    def type_rows(self) -> list[dict[str, object]]:
        """Per-event-type table rows, sorted by type name."""
        return [{"event": name, "count": count,
                 "first_s": round(first, 3), "last_s": round(last, 3)}
                for name, (count, first, last) in sorted(self.by_type.items())]

    def disk_rows(self) -> list[dict[str, object]]:
        """Per-disk table rows, sorted by disk id."""
        return [self.by_disk[d].summary_row() for d in sorted(self.by_disk)]

    def to_json(self) -> dict[str, object]:
        """Machine-readable form for ``obs summarize --json`` (stable keys,
        deterministic ordering)."""
        return {
            "total_events": self.total_events,
            "duration_s": self.duration_s,
            "by_type": self.type_rows(),
            "by_disk": self.disk_rows(),
            "unknown_types": sorted(self.unknown_types),
        }


def summarize_records(records: Iterable[dict]) -> TraceSummary:
    """Aggregate parsed trace records (see module docstring)."""
    summary = TraceSummary()
    for record in records:
        etype = record["type"]
        t = float(record.get("t", 0.0))
        summary.total_events += 1
        if t > summary.duration_s:
            summary.duration_s = t
        count, first, last = summary.by_type.get(etype, (0, t, t))
        summary.by_type[etype] = (count + 1, min(first, t), max(last, t))
        if etype not in ev.ALL_EVENT_TYPES:
            summary.unknown_types.add(etype)

        disk = record.get("disk")
        if disk is None:
            continue
        rollup = summary.by_disk.get(disk)
        if rollup is None:
            rollup = summary.by_disk[disk] = DiskRollup(disk=disk)
        rollup.events += 1
        if etype == ev.REQUEST_SUBMIT:
            rollup.submits += 1
        elif etype == ev.REQUEST_DISPATCH:
            rollup.dispatches += 1
            rollup.total_wait_s += float(record.get("wait_s", 0.0))
        elif etype == ev.REQUEST_COMPLETE:
            rollup.completions += 1
            rollup.completed_mb += float(record.get("size_mb", 0.0))
        elif etype == ev.REQUEST_FAIL:
            rollup.failures += 1
        elif etype == ev.DISK_TRANSITION_BEGIN:
            rollup.transitions += 1
    return summary


def summarize_traces(paths: Iterable[PathLike]) -> TraceSummary:
    """Aggregate several traces — e.g. per-shard segments — as one.

    The rollup is a pure reduction over records, so chaining files is
    exactly equivalent to summarizing their concatenation (per-shard
    segments already carry global disk ids, so the per-disk table is
    the array-wide view).
    """
    def _chained() -> Iterable[dict]:
        for path in paths:
            yield from read_trace(path)

    return summarize_records(_chained())


def format_summary(summary: TraceSummary, *, source: str = "trace") -> str:
    """Render a :class:`TraceSummary` as the CLI's aligned-table output."""
    parts = [f"{source}: {summary.total_events} events over "
             f"{summary.duration_s:.1f} simulated seconds"]
    if summary.by_type:
        parts.append("")
        parts.append(format_table(summary.type_rows(), title="per event type"))
    if summary.by_disk:
        parts.append("")
        parts.append(format_table(summary.disk_rows(), title="per disk"))
    if summary.unknown_types:
        parts.append("")
        parts.append("note: unknown event types present: "
                     + ", ".join(sorted(summary.unknown_types)))
    return "\n".join(parts)
