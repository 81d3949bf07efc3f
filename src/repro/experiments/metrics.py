"""Metrics collection and the per-run result record.

The paper's three metrics (Sec. 5.1): mean response time over all file
access requests, energy consumed serving the whole request set, and the
array AFR from PRESS.  ``RequestMetrics`` gathers the first on the
completion path; the rest are computed from the array and model at the
end of the run and frozen into a :class:`SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.disk.drive import Job
from repro.faults.metrics import FaultSummary
from repro.redundancy.metrics import RedundancySummary
from repro.obs.sampler import TimeSeries
from repro.press.model import DiskFactors
from repro.util.validation import require

__all__ = ["RequestMetrics", "SimulationResult"]


class RequestMetrics:
    """Accumulates per-request response times (user requests only).

    Used as the runner's job-completion callback; internal jobs
    (migrations, cache copies) are ignored here by construction — they
    never carry a ``request``.
    """

    def __init__(self, expected: int,
                 on_all_done: "Callable[[], None] | None" = None) -> None:
        require(expected >= 0, f"expected must be >= 0, got {expected}")
        self._expected = expected
        self._response_times = np.empty(expected, dtype=np.float64)
        self._count = 0
        self._failed = 0
        self._on_all_done = on_all_done

    # ------------------------------------------------------------------
    def on_complete(self, job: Job) -> None:
        """Job-completion callback; records user-request response times."""
        req = job.request
        if req is None:
            return
        count = self._count
        if count + self._failed >= self._expected:
            raise ValueError("more completions than expected requests")
        self._response_times[count] = req.completion_time - req.arrival_time
        self._count = count + 1
        if count + 1 + self._failed >= self._expected and self._on_all_done is not None:
            self._on_all_done()

    def on_failed(self, job: Job) -> None:
        """A user request was failed permanently (fault injection).

        Failed requests count toward the expected total — the run's stop
        condition is "every request terminated", not "every request
        served" — but contribute nothing to the response-time arrays.
        """
        if job.request is None:
            return
        if self._count + self._failed >= self._expected:
            raise ValueError("more terminations than expected requests")
        self._failed += 1
        if self._count + self._failed >= self._expected and self._on_all_done is not None:
            self._on_all_done()

    def close_dispatch(self, dispatched: int) -> None:
        """Dispatch is over: ``dispatched`` requests entered the array.

        The expected total is known up front, so this only checks it.
        """
        require(dispatched == self._expected,
                f"dispatched {dispatched} requests, expected {self._expected}")

    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """User requests completed (served) so far."""
        return self._count

    @property
    def failed(self) -> int:
        """User requests permanently failed so far."""
        return self._failed

    @property
    def all_done(self) -> bool:
        """Whether every expected request has terminated (served or failed)."""
        return self._count + self._failed >= self._expected

    @property
    def response_times_s(self) -> np.ndarray:
        """Response times of completed requests (copy-free slice)."""
        return self._response_times[:self._count]

    def mean_response_s(self) -> float:
        """The paper's headline performance metric."""
        require(self._count > 0, "no completed requests")
        return float(self.response_times_s.mean())

    def percentile_response_s(self, q: float) -> float:
        """Response-time percentile (q in [0, 100])."""
        require(self._count > 0, "no completed requests")
        return float(np.percentile(self.response_times_s, q))


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Everything one simulation cell reports (one point of Fig. 7)."""

    policy_name: str
    n_disks: int
    n_requests: int
    duration_s: float
    mean_response_s: float
    p95_response_s: float
    p99_response_s: float
    total_energy_j: float
    #: Array AFR (percent) = max over per-disk PRESS AFRs (Sec. 3.5).
    array_afr_percent: float
    per_disk: tuple[DiskFactors, ...]
    total_transitions: int
    internal_jobs: int
    energy_breakdown_j: dict[str, float] = field(default_factory=dict)
    policy_detail: dict[str, object] = field(default_factory=dict)
    #: Realized-reliability outcome; ``None`` when fault injection is off.
    faults: FaultSummary | None = None
    #: Kernel events the run executed (a sharded cell sums its shards').
    events_executed: int = 0
    #: Wall-clock seconds of the event-loop drain alone: workload
    #: generation, layout, finalize and the PRESS assessment are outside
    #: it, and a sharded cell sums its shards' drains (not the elapsed
    #: time of a parallel fan-out).
    #: Measurement noise, not simulation output — excluded from equality
    #: so serial/parallel sweeps still compare bit-for-bit.
    wall_clock_s: float = field(default=0.0, compare=False)
    #: Per-disk sampled telemetry; ``None`` unless sampling was enabled.
    timeseries: TimeSeries | None = None
    #: Redundancy-group outcome + CTMC reliability; ``None`` unless a
    #: ``--redundancy`` scheme was active.
    redundancy: RedundancySummary | None = None

    @property
    def energy_kwh(self) -> float:
        """Total energy in kWh (for the cost model)."""
        return self.total_energy_j / 3.6e6

    @property
    def events_per_sec(self) -> float:
        """Simulation throughput (kernel events per wall-clock second)."""
        if self.wall_clock_s <= 0.0:
            return 0.0
        return self.events_executed / self.wall_clock_s

    @property
    def worst_disk(self) -> DiskFactors:
        """The disk that set the array AFR."""
        return max(self.per_disk, key=lambda f: f.afr_percent)

    def summary_row(self) -> dict[str, object]:
        """Flat dict for tabular reporting."""
        row: dict[str, object] = {
            "policy": self.policy_name,
            "disks": self.n_disks,
            "AFR_%": round(self.array_afr_percent, 3),
            "energy_kJ": round(self.total_energy_j / 1e3, 1),
            "mean_resp_ms": round(self.mean_response_s * 1e3, 2),
            "p95_resp_ms": round(self.p95_response_s * 1e3, 2),
            "transitions": self.total_transitions,
            "events": self.events_executed,
            "wall_s": round(self.wall_clock_s, 2),
            "events_per_s": round(self.events_per_sec),
        }
        if self.faults is not None:
            row.update(self.faults.summary_row())
        if self.redundancy is not None:
            row.update(self.redundancy.summary_row())
        return row
