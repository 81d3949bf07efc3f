"""Per-figure reproduction functions (the experiment index of DESIGN.md).

Each ``figureNN_*`` function returns the data series of the matching
paper figure; the benchmark files under ``benchmarks/`` call these and
print the rows.  Figures 2-5 are model curves (fast, deterministic);
Figure 7 is the trace-driven policy comparison (the expensive sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.experiments.metrics import SimulationResult
from repro.experiments.parallel import RunSpec
from repro.experiments.resilience import (
    ResilienceConfig,
    ResilienceSummary,
    run_cells_resilient,
)
from repro.experiments.runner import ExperimentConfig
from repro.faults import FaultConfig
from repro.redundancy.scheme import GroupScheme
from repro.obs import ObsConfig
from repro.press.frequency import FrequencyReliability
from repro.press.model import PRESSModel
from repro.press.temperature import TemperatureReliability
from repro.press.utilization import UtilizationReliability
from repro.util.validation import require

__all__ = [
    "figure2b_series",
    "figure3b_series",
    "figure4a_series",
    "figure4b_series",
    "figure5_surface",
    "Figure7Results",
    "figure7_comparison",
    "headline_summary",
]

#: The array sizes of the paper's sweep (Sec. 5.1: "from 6 to 16").
PAPER_DISK_COUNTS: tuple[int, ...] = (6, 8, 10, 12, 14, 16)
#: The three compared algorithms (Sec. 5).
PAPER_POLICIES: tuple[str, ...] = ("read", "maid", "pdc")


def figure2b_series(n_points: int = 26) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 2b: temperature-reliability function (AFR % vs degC)."""
    return TemperatureReliability().curve(n_points)


def figure3b_series(n_points: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 3b: utilization-reliability function (AFR % vs util %)."""
    return UtilizationReliability().curve(n_points)


def figure4a_series(n_points: int = 17) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 4a: extended IDEMA start/stop adder (AFR % vs events/day)."""
    return FrequencyReliability().idema_curve(n_points)


def figure4b_series(n_points: int = 17) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 4b: frequency-reliability function, Eq. 3 (AFR % vs /day)."""
    return FrequencyReliability().curve(n_points)


def figure5_surface(temp_c: float, *, n_util: int = 16, n_freq: int = 17,
                    press: PRESSModel | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fig. 5a/5b: the PRESS AFR surface at a fixed temperature.

    Returns (utilization % grid, frequency/day grid, AFR % surface of
    shape ``(n_util, n_freq)``).  The paper shows 40 degC (5a, low
    speed) and 50 degC (5b, high speed).
    """
    model = press or PRESSModel()
    utils = np.linspace(25.0, 100.0, n_util)
    freqs = np.linspace(0.0, 1600.0, n_freq)
    return utils, freqs, model.afr_surface(temp_c, utils, freqs)


# ----------------------------------------------------------------------
# Figure 7: the policy comparison sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Figure7Results:
    """All three Fig. 7 panels for one workload condition."""

    disk_counts: tuple[int, ...]
    #: policy name -> one SimulationResult per disk count.
    results: dict[str, tuple[SimulationResult, ...]]
    #: What the sweep executor absorbed while producing the results
    #: (see :mod:`repro.experiments.resilience`).
    resilience: ResilienceSummary

    def series(self, metric: str) -> dict[str, np.ndarray]:
        """Extract one panel: metric in {'afr', 'energy', 'response'}."""
        getters = {
            "afr": lambda r: r.array_afr_percent,
            "energy": lambda r: r.total_energy_j,
            "response": lambda r: r.mean_response_s,
        }
        require(metric in getters, f"metric must be one of {sorted(getters)}")
        get = getters[metric]
        return {name: np.array([get(r) for r in runs], dtype=np.float64)
                for name, runs in self.results.items()}


def _cell_obs(base: Optional[ObsConfig], policy: str, n_disks: int) -> Optional[ObsConfig]:
    """Derive one cell's telemetry config from the sweep-wide one.

    Output paths gain a ``-<policy>-<disks>`` stem suffix so every cell
    writes its own trace/metrics file.
    """
    if base is None:
        return None

    def _suffixed(p: Optional[str]) -> Optional[str]:
        if p is None:
            return None
        path = Path(p)
        return str(path.with_name(f"{path.stem}-{policy}-{n_disks}{path.suffix}"))

    if base.trace_path is None and base.metrics_path is None:
        return base
    return replace(base, trace_path=_suffixed(base.trace_path),
                   metrics_path=_suffixed(base.metrics_path))


def figure7_comparison(config: ExperimentConfig | None = None, *,
                       disk_counts: Sequence[int] = PAPER_DISK_COUNTS,
                       policies: Sequence[str] = PAPER_POLICIES,
                       policy_kwargs: dict[str, dict] | None = None,
                       faults: FaultConfig | None = None,
                       obs: ObsConfig | None = None,
                       redundancy: GroupScheme | None = None,
                       jobs: int = 1,
                       resilience: ResilienceConfig | None = None,
                       checkpoint=None,
                       shards: int | None = None,
                       stream_chunk: int | None = None,
                       bus=None) -> Figure7Results:
    """Run the Fig. 7 sweep: every policy at every array size, same trace.

    ``policy_kwargs`` maps policy name -> config overrides (only tests
    set it; the ablation benches run single cells through
    :mod:`repro.experiments.sweeps` instead).  The workload is
    materialized once (via the content-keyed cache) and shared by every
    cell.  ``jobs`` fans the
    cells over a process pool; results are identical for any value.
    ``faults`` turns on in-run fault injection for every cell, adding
    realized-reliability metrics next to the paper's three.
    ``redundancy`` attaches a group scheme to every cell (array sizes
    must be multiples of its group size); it composes with ``shards``.
    ``obs`` enables telemetry per cell; any output paths it names are
    suffixed with the cell's ``<policy>-<disks>`` so parallel cells
    never write to the same file.

    The cells run through the sweep executor
    (:func:`~repro.experiments.resilience.run_cells_resilient`), whose
    harness fault ledger always lands in
    :attr:`Figure7Results.resilience`.  ``resilience`` sets per-cell
    retries/timeouts (default: none); ``checkpoint`` (path or
    :class:`~repro.experiments.resilience.SweepCheckpoint`) restores
    cells already journaled instead of re-running them.  Results are
    identical under any of these.

    ``shards`` switches every cell to sharded streamed execution (see
    :mod:`repro.experiments.shard`): each array is split into ``shards``
    disk groups simulated independently (one shard sub-cell each, so the
    pool/checkpoint machinery applies per *shard*, not per cell) and
    merged in fixed reduction order.  ``shards`` must divide every entry
    of ``disk_counts``; incompatible with ``faults`` (see
    :func:`~repro.experiments.shard.require_shardable`).  ``obs`` composes
    with ``shards``: each shard sub-cell runs its own telemetry stack
    (untagged events under global disk ids) and the merge federates
    the segments into the cell's named trace/metrics artifacts (see
    :mod:`repro.obs.federate`).  ``stream_chunk`` bounds streamed-generation
    memory (requests per chunk; ``None`` = the stream layer's default).

    ``bus`` is the harness trace bus: sweep/cell span events (and, when
    sharding, the merge spans) always land on it, feeding ``repro sweep
    --status-out``'s live status file.
    """
    cfg = config or ExperimentConfig()
    kwargs = policy_kwargs or {}
    cells = [
        RunSpec(policy=name, n_disks=n, workload=cfg.workload,
                policy_kwargs=kwargs.get(name, {}),
                disk_params=cfg.disk_params, faults=faults,
                obs=_cell_obs(obs, name, n), redundancy=redundancy)
        for name in policies for n in disk_counts
    ]
    specs = cells
    if shards is not None:
        from repro.experiments.shard import merge_cell, shard_specs
        from repro.workload.stream import DEFAULT_CHUNK_SIZE

        # ALL shard sub-cells of ALL cells go through the one batch below,
        # so one checkpoint file and one harness fault ledger cover the
        # sweep, and resume granularity is one shard
        chunk = stream_chunk if stream_chunk is not None else DEFAULT_CHUNK_SIZE
        specs = [spec for cell in cells
                 for spec in shard_specs(cell, shards, chunk_size=chunk)]
    done, summary = run_cells_resilient(
        specs, jobs=jobs, config=resilience, checkpoint=checkpoint, bus=bus)
    if shards is not None:
        done = [merge_cell(cell, done[k * shards:(k + 1) * shards], bus)  # type: ignore[arg-type]
                for k, cell in enumerate(cells)]
    per_policy = len(disk_counts)
    results = {name: tuple(done[i * per_policy:(i + 1) * per_policy])
               for i, name in enumerate(policies)}
    return Figure7Results(disk_counts=tuple(disk_counts), results=results,
                          resilience=summary)


def headline_summary(fig7: Figure7Results, *, baseline: str = "read") -> dict[str, dict[str, float]]:
    """The Sec. 5.2 headline numbers: baseline's mean/max improvement per
    metric against each competitor.

    Positive percentages = baseline is lower (better) on that metric,
    matching the paper's phrasing ("24.9% and 50.8% reliability
    improvement compared with MAID and PDC").
    """
    require(baseline in fig7.results, f"baseline {baseline!r} not in results")
    out: dict[str, dict[str, float]] = {}
    for metric in ("afr", "energy", "response"):
        series = fig7.series(metric)
        base = series[baseline]
        for other, vals in series.items():
            if other == baseline:
                continue
            rel = (vals - base) / vals * 100.0
            out.setdefault(metric, {})[f"vs_{other}_mean_%"] = float(rel.mean())
            out[metric][f"vs_{other}_max_%"] = float(rel.max())
    return out
