"""The observability switchboard: what one simulation run records.

``ObsConfig`` is frozen plain data so it rides inside a
:class:`~repro.experiments.parallel.RunSpec` across the process-pool
boundary; the runner materializes the actual trace writer and sampler
from it per cell.  ``ObsConfig()`` (all fields off) is equivalent to passing
no config at all — the runner attaches nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.validation import require_positive

__all__ = ["ObsConfig"]


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """Per-run observability settings.

    Attributes
    ----------
    trace_path:
        Write the structured event trace to this JSONL file.
    metrics_path:
        Write the sampled per-disk time-series here (CSV, or a
        structured JSON document when the suffix is ``.json``).  Implies
        sampling at :attr:`sample_interval_s` or its default.
    sample_interval_s:
        Simulated seconds between per-disk time-series samples; ``None``
        disables the sampler (unless :attr:`metrics_path` forces it on
        at :data:`DEFAULT_SAMPLE_INTERVAL_S`).
    """

    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    sample_interval_s: Optional[float] = None

    #: Sampler cadence used when metrics output is requested without an
    #: explicit interval.
    DEFAULT_SAMPLE_INTERVAL_S = 60.0

    def __post_init__(self) -> None:
        if self.sample_interval_s is not None:
            require_positive(self.sample_interval_s, "sample_interval_s")

    @property
    def wants_sampler(self) -> bool:
        """Whether this config requires a :class:`DiskSampler`."""
        return self.sample_interval_s is not None or self.metrics_path is not None

    @property
    def effective_sample_interval_s(self) -> float:
        """The sampler cadence this config implies."""
        if self.sample_interval_s is not None:
            return self.sample_interval_s
        return self.DEFAULT_SAMPLE_INTERVAL_S

    @property
    def enabled(self) -> bool:
        """Whether any observability feature is on."""
        return self.trace_path is not None or self.wants_sampler
