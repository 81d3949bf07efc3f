"""Live sweep status: a crash-safe JSON feed of the sweep executor's state.

``repro sweep --status-out status.json`` hands a
:class:`SweepStatusWriter` to the sweep executor
(:func:`repro.experiments.resilience.run_cells_resilient`), which
attaches its own document builder and republishes on every change: a
cell started, finished, was restored, re-queued or salvaged.  The
writer stamps host telemetry (elapsed wall clock, an ETA, peak RSS) on
the executor's document and atomically republishes it (tmp +
``os.replace``), throttled to at most one write per ``min_interval_s``
of wall clock, so a reader (``repro obs status status.json``, a
dashboard, ``watch``) never observes a torn file and the write
amplification stays bounded no matter how many shard sub-cells the
sweep fans out.  The counters are the executor's own — the ones its
:class:`~repro.experiments.resilience.ResilienceSummary` returns — so
the feed and the summary cannot disagree.

The document is operational telemetry, not a result artifact: it
carries wall-clock durations and host RSS, so its bytes are *not*
deterministic — unlike every other file the obs layer writes.  Schema
(``version`` 2, DESIGN.md Sec. 13.3):

``state``
    ``"running"`` until the executor's final publish flips it to
    ``"done"`` (or ``"failed"`` when the sweep raised or was
    interrupted).
``jobs`` / ``cells_total`` / ``cells_done`` / ``cells_running``
    Progress in cells (shard sub-cells count individually); restored
    checkpoint cells count as done.  ``cells_running`` lists the labels
    of in-flight cells in cell order.
``events_executed`` / ``events_per_sec``
    Summed simulated events of the cells run in this invocation, and
    that sum over their summed wall clock.
``elapsed_s`` / ``eta_s``
    Wall clock since the writer was created; naive remaining-time
    estimate ``elapsed / cells_run * (total - done)``.  Restored
    checkpoint cells took no time, so the rate counts only the cells run
    in this invocation, and there is no estimate until one has.
``rss_max_mb``
    Peak resident set of the sweep driver process so far.
``cells_run`` / ``checkpoint_hits`` / ``retries`` / ``timeouts`` /
``pool_respawns`` / ``cells_salvaged``
    The harness ledger, field for field the executor's summary.
``cells``
    Per-cell detail keyed by cell index (a decimal string), so cells
    that share a label stay apart: ``label``, ``state``
    (``pending``/``running``/``retrying``/``done``/``restored``, or
    ``failed`` for the cell whose error failed the sweep), ``retries``,
    and for cells run in this invocation ``events`` and ``wall_s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from repro.util.atomicio import atomic_write_text
from repro.util.validation import require

__all__ = ["SweepStatusWriter", "read_status", "format_status",
           "format_ledger", "STATUS_VERSION"]

PathLike = Union[str, Path]

#: Schema version stamped into every status document.
STATUS_VERSION = 2


def _rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MiB (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # macOS reports bytes; Linux and the BSDs report KiB
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


class SweepStatusWriter:
    """The live status file of one sweep.

    The executor calls :meth:`attach` with its document builder, then
    :meth:`publish` on every change and :meth:`finish` when the sweep
    returns (``"done"``) or raises (``"failed"``).  The builder runs
    only when a publish is due.
    """

    def __init__(self, path: PathLike, *, min_interval_s: float = 0.5) -> None:
        require(min_interval_s >= 0.0,
                f"min_interval_s must be >= 0, got {min_interval_s}")
        self.path = Path(path)
        self._min_interval_s = float(min_interval_s)
        self._started = time.monotonic()
        self._last_publish: Optional[float] = None
        self._state = "running"
        self._source: Callable[[], Mapping[str, object]] = lambda: {"cells": {}}
        self.publishes = 0

    def attach(self, source: Callable[[], Mapping[str, object]]) -> None:
        """Build the document from ``source`` from now on; publish it."""
        self._source = source
        self.publish(force=True)

    def snapshot(self) -> dict[str, object]:
        """The current status document as plain data."""
        body = self._source()
        elapsed = time.monotonic() - self._started
        total, done = body.get("cells_total"), body.get("cells_done")
        run = body.get("cells_run")
        eta: Optional[float] = None
        if (self._state == "running" and isinstance(total, int)
                and isinstance(done, int) and isinstance(run, int)
                and run > 0 and done < total):
            eta = elapsed / run * (total - done)
        return {
            "version": STATUS_VERSION,
            "state": self._state,
            "elapsed_s": round(elapsed, 3),
            "eta_s": None if eta is None else round(eta, 3),
            "rss_max_mb": _rss_mb(),
            **body,
        }

    def publish(self, *, force: bool = False) -> bool:
        """Atomically republish the status file (throttled unless forced)."""
        now = time.monotonic()
        if (not force and self._last_publish is not None
                and now - self._last_publish < self._min_interval_s):
            return False
        self._last_publish = now
        text = json.dumps(self.snapshot(), indent=2, sort_keys=False) + "\n"
        atomic_write_text(self.path, text)
        self.publishes += 1
        return True

    def finish(self, *, state: str = "done") -> None:
        """Final forced publish; flips ``state`` (idempotent)."""
        self._state = state
        self.publish(force=True)


# ----------------------------------------------------------------------
# the reader side (`repro obs status <file>`)
# ----------------------------------------------------------------------
def read_status(path: PathLike) -> dict:
    """Load a status document, with actionable errors on bad input."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p}: not a JSON status document: {exc}") from exc
    if not isinstance(doc, dict) or "state" not in doc or "cells" not in doc:
        raise ValueError(f"{p}: not a sweep status document "
                         f"(missing 'state'/'cells' fields)")
    return doc


def format_ledger(counters: Mapping[str, object]) -> str:
    """The one-line harness ledger of a sweep summary or status document."""
    return (f"harness: {counters.get('cells_run', 0)} cell(s) run, "
            f"{counters.get('checkpoint_hits', 0)} restored from checkpoint, "
            f"{counters.get('retries', 0)} retried, "
            f"{counters.get('timeouts', 0)} timed out, "
            f"{counters.get('pool_respawns', 0)} pool respawn(s), "
            f"{counters.get('cells_salvaged', 0)} salvaged")


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    s = int(seconds)
    if s >= 3600:
        return f"{s // 3600}h{(s % 3600) // 60:02d}m"
    if s >= 60:
        return f"{s // 60}m{s % 60:02d}s"
    return f"{seconds:.1f}s"


def format_status(doc: dict) -> str:
    """Render a status document as the `repro obs status` text view."""
    total = doc.get("cells_total")
    done = doc.get("cells_done", 0)
    progress = f"{done}/{total}" if total else str(done)
    eps = doc.get("events_per_sec")
    lines = [
        f"sweep {doc.get('state', '?')}: {progress} cells"
        + (f", jobs={doc['jobs']}" if doc.get("jobs") else ""),
        f"  elapsed {_fmt_duration(doc.get('elapsed_s'))}"
        f"   eta {_fmt_duration(doc.get('eta_s'))}"
        f"   sim events {doc.get('events_executed', 0):,}"
        + (f" ({eps:,.0f}/s)" if eps else "")
        + (f"   rss {doc['rss_max_mb']:.0f} MiB"
           if doc.get("rss_max_mb") else ""),
        "  " + format_ledger(doc),
    ]
    running = doc.get("cells_running") or []
    if running:
        lines.append("  running:")
        lines.extend(f"    {name}" for name in running)
    cells = (doc.get("cells") or {}).values()
    retrying = [c for c in cells if c.get("state") == "retrying"]
    if retrying:
        lines.append("  retrying:")
        lines.extend(f"    {c.get('label')} (retry {c.get('retries', '?')})"
                     for c in retrying)
    failed = [c for c in cells if c.get("state") == "failed"]
    if failed:
        lines.append("  failed:")
        lines.extend(f"    {c.get('label')}" for c in failed)
    return "\n".join(lines)
