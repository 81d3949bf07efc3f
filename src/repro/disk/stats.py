"""Per-drive operating statistics consumed by PRESS and the reports.

The speed-transition count here is one of the three ESRRA factors the
PRESS model needs per disk (Sec. 3); ``PRESSModel.evaluate_array``
normalizes it to a per-day rate from the disk's closed ledger, beside
the thermal model's mean temperature and the meter's utilization.

``DiskStats`` also tracks served-request counters used by the
performance metrics and by policies (READ's FPT is file-level and lives
in :mod:`repro.core.popularity`; this is the disk-level view).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.util.units import SECONDS_PER_DAY
from repro.util.validation import require_non_negative, require_positive

_INF = math.inf

__all__ = ["DiskStats"]


@dataclass
class DiskStats:
    """Mutable per-drive counters updated by the drive state machine."""

    disk_id: int
    requests_served: int = 0
    internal_jobs_served: int = 0
    mb_served: float = 0.0
    speed_transitions_total: int = 0
    #: Transition counts bucketed by simulated day index (floor(t / 86400)).
    transitions_by_day: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    # ------------------------------------------------------------------
    def record_service(self, size_mb: float, internal: bool) -> None:
        """Count one completed job of ``size_mb``."""
        if not (0.0 < size_mb < _INF):
            require_positive(size_mb, "size_mb")
        self.mb_served += size_mb
        if internal:
            self.internal_jobs_served += 1
        else:
            self.requests_served += 1

    def record_transition(self, at_time_s: float) -> None:
        """Count one speed transition occurring at simulated ``at_time_s``."""
        if not (0.0 <= at_time_s < _INF):
            require_non_negative(at_time_s, "at_time_s")
        self.speed_transitions_total += 1
        self.transitions_by_day[int(at_time_s // SECONDS_PER_DAY)] += 1

    # ------------------------------------------------------------------
    def transitions_on_day(self, day_index: int) -> int:
        """Transitions recorded during one simulated day."""
        return self.transitions_by_day.get(day_index, 0)

    def max_transitions_per_day(self) -> int:
        """Worst single-day transition count (0 when none occurred)."""
        return max(self.transitions_by_day.values(), default=0)
