"""repro.obs — the simulation telemetry layer.

Four cooperating pieces, all strictly opt-in (a run that attaches none
of them executes the exact pre-observability hot path):

* :class:`TraceBus` + the event taxonomy (:mod:`repro.obs.events`) —
  typed structured events emitted by the kernel, drives, array,
  policies, and fault injector;
* :class:`DiskSampler` — the periodic per-disk time-series snapshot
  (utilization, temperature, speed, queue depth, cumulative energy);
* :class:`KernelProfiler` — per-handler event-loop timing attached to
  the :class:`~repro.sim.engine.Simulator`;
* exporters (:mod:`repro.obs.export`) and rollups
  (:mod:`repro.obs.summarize`) — deterministic JSONL traces, CSV/JSON
  time-series, and the ``repro obs summarize`` tables.

``ObsConfig`` bundles the per-run switches and travels inside
:class:`~repro.experiments.parallel.RunSpec` for parallel sweeps.
"""

from repro.obs.bus import TraceBus
from repro.obs.config import ObsConfig
from repro.obs.events import ALL_EVENT_TYPES, TraceEvent
from repro.obs.export import (
    JsonlTraceWriter,
    event_to_json,
    read_trace,
    timeseries_to_csv_text,
    write_timeseries,
)
from repro.obs.log import get_logger, setup_logging
from repro.obs.profiler import HandlerProfile, KernelProfiler, ProfileSummary
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
    summarize_trace,
    summarize_traces,
)

__all__ = [
    "ALL_EVENT_TYPES",
    "DiskRollup",
    "DiskSampler",
    "HandlerProfile",
    "JsonlTraceWriter",
    "KernelProfiler",
    "ObsConfig",
    "ProfileSummary",
    "SAMPLE_COLUMNS",
    "SweepStatusWriter",
    "TimeSeries",
    "TraceBus",
    "TraceEvent",
    "TraceSummary",
    "event_to_json",
    "format_status",
    "format_summary",
    "get_logger",
    "merge_trace_files",
    "read_status",
    "read_trace",
    "setup_logging",
    "shard_segment_path",
    "summarize_records",
    "summarize_trace",
    "summarize_traces",
    "timeseries_to_csv_text",
    "write_timeseries",
]
