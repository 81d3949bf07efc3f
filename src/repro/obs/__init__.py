"""repro.obs — the simulation telemetry layer.

Three cooperating pieces, all strictly opt-in (a run that attaches none
of them executes the exact pre-observability hot path):

* the event taxonomy (:mod:`repro.obs.events`) — typed structured
  events the kernel, drives, array, policies, and fault injector emit
  into a cell's :class:`JsonlTraceWriter`;
* :class:`DiskSampler` — the periodic per-disk time-series snapshot
  (utilization, temperature, speed, queue depth, cumulative energy);
* exporters (:mod:`repro.obs.export`) and rollups
  (:mod:`repro.obs.summarize`) — deterministic JSONL traces, CSV/JSON
  time-series, and the ``repro obs summarize`` tables.

``ObsConfig`` bundles the per-run switches and travels inside
:class:`~repro.experiments.parallel.RunSpec` for parallel sweeps.
Beside them, :class:`SweepStatusWriter` publishes the sweep executor's
ledger as a live status file (:mod:`repro.obs.status`).
"""

from repro.obs.config import ObsConfig
from repro.obs.events import ALL_EVENT_TYPES
from repro.obs.export import (
    JsonlTraceWriter,
    read_trace,
    timeseries_to_csv_text,
    write_timeseries,
)
from repro.obs.log import get_logger, setup_logging
from repro.obs.federate import (
    merge_trace_files,
    shard_segment_path,
)
from repro.obs.sampler import SAMPLE_COLUMNS, DiskSampler, TimeSeries
from repro.obs.status import (
    SweepStatusWriter,
    format_status,
    read_status,
)
from repro.obs.summarize import (
    DiskRollup,
    TraceSummary,
    format_summary,
    summarize_records,
    summarize_traces,
)

__all__ = [
    "ALL_EVENT_TYPES",
    "DiskRollup",
    "DiskSampler",
    "JsonlTraceWriter",
    "ObsConfig",
    "SAMPLE_COLUMNS",
    "SweepStatusWriter",
    "TimeSeries",
    "TraceSummary",
    "format_status",
    "format_summary",
    "get_logger",
    "merge_trace_files",
    "read_status",
    "read_trace",
    "setup_logging",
    "shard_segment_path",
    "summarize_records",
    "summarize_traces",
    "timeseries_to_csv_text",
    "write_timeseries",
]
