"""Kernel profiling: where does event-loop time actually go?

The :class:`~repro.sim.engine.Simulator` accepts a profiler via
:meth:`~repro.sim.engine.Simulator.set_profiler`; while one is attached
the drain loop times every dispatched action with ``perf_counter`` and
calls :meth:`KernelProfiler.record` with the handler's qualified name.
Handlers group naturally by qualname — ``TwoSpeedDrive._complete``,
``run_simulation.<locals>.dispatch_next``, ``PeriodicTask._fire`` — which
is exactly the "per event type" breakdown the ROADMAP's perf work needs.

The attached-profiler loop is a *separate* code path: with no profiler
the kernel runs the original branch-free drain, so profiling-off runs
pay nothing (and stay inside the throughput regression gate).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

__all__ = ["HandlerProfile", "KernelProfiler", "ProfileSummary",
           "DEFAULT_HANDLER_BUCKETS_S"]

#: Log-spaced per-dispatch wall-clock buckets (seconds): 1 us .. 1 s.
DEFAULT_HANDLER_BUCKETS_S: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)


@dataclass(frozen=True, slots=True)
class HandlerProfile:
    """Frozen per-handler timing rollup (picklable)."""

    handler: str
    calls: int
    total_s: float
    max_s: float
    #: Counts per bucket of :data:`DEFAULT_HANDLER_BUCKETS_S` plus one
    #: overflow bucket at the end.
    bucket_counts: tuple[int, ...]

    @property
    def mean_us(self) -> float:
        """Mean per-call wall-clock in microseconds."""
        return self.total_s / self.calls * 1e6 if self.calls else 0.0

    def summary_row(self) -> dict[str, object]:
        """Flat dict for tabular reporting."""
        return {
            "handler": self.handler,
            "calls": self.calls,
            "total_ms": round(self.total_s * 1e3, 2),
            "mean_us": round(self.mean_us, 2),
            "max_us": round(self.max_s * 1e6, 1),
        }


@dataclass(frozen=True, slots=True)
class ProfileSummary:
    """Frozen whole-run kernel profile attached to a SimulationResult."""

    events_executed: int
    wall_clock_s: float
    #: Per-handler rollups, heaviest total time first.
    handlers: tuple[HandlerProfile, ...]
    bucket_bounds_s: tuple[float, ...] = DEFAULT_HANDLER_BUCKETS_S

    @property
    def events_per_sec(self) -> float:
        """Dispatch throughput over the profiled portion of the run."""
        return self.events_executed / self.wall_clock_s if self.wall_clock_s > 0 else 0.0


class _HandlerStat:
    """Mutable accumulator for one handler qualname."""

    __slots__ = ("calls", "total_s", "max_s", "bucket_counts")

    def __init__(self, n_buckets: int) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self.bucket_counts = [0] * (n_buckets + 1)


class KernelProfiler:
    """Accumulates per-handler dispatch timings for one kernel run.

    The kernel calls :meth:`record` once per dispatched event — the
    accumulator is three adds, a compare, and a bisect, keeping the
    profiled path usable on multi-hundred-thousand-event runs.
    """

    def __init__(self,
                 bucket_bounds_s: Sequence[float] = DEFAULT_HANDLER_BUCKETS_S) -> None:
        self._bounds = tuple(float(b) for b in bucket_bounds_s)
        self._stats: dict[str, _HandlerStat] = {}
        self._total_s = 0.0
        self._events = 0

    # ------------------------------------------------------------------
    def record(self, handler: str, elapsed_s: float) -> None:
        """Charge one dispatch of ``handler`` that took ``elapsed_s``."""
        stat = self._stats.get(handler)
        if stat is None:
            stat = _HandlerStat(len(self._bounds))
            self._stats[handler] = stat
        stat.calls += 1
        stat.total_s += elapsed_s
        if elapsed_s > stat.max_s:
            stat.max_s = elapsed_s
        stat.bucket_counts[bisect.bisect_left(self._bounds, elapsed_s)] += 1
        self._total_s += elapsed_s
        self._events += 1

    # ------------------------------------------------------------------
    def summary(self, *, wall_clock_s: float | None = None) -> ProfileSummary:
        """Freeze into a :class:`ProfileSummary`.

        ``wall_clock_s`` defaults to the summed in-handler time; pass
        the enclosing run's wall clock for a throughput figure that
        includes the kernel's own (heap) overhead.
        """
        wall = self._total_s if wall_clock_s is None else wall_clock_s
        handlers = tuple(sorted(
            (HandlerProfile(handler=name, calls=s.calls, total_s=s.total_s,
                            max_s=s.max_s, bucket_counts=tuple(s.bucket_counts))
             for name, s in self._stats.items()),
            key=lambda h: (-h.total_s, h.handler)))
        return ProfileSummary(events_executed=self._events, wall_clock_s=wall,
                              handlers=handlers, bucket_bounds_s=self._bounds)
