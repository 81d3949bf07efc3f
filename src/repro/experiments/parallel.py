"""Picklable cell specs and the sweep entry point.

A *cell* is one (policy, configuration, array size, workload) simulation
— the unit the figures and sweeps iterate over.  :class:`RunSpec` captures
everything a cell needs as plain picklable data, :func:`run_cell` runs
one in the current process, and :func:`run_cells` runs a batch through
the one sweep executor, :func:`repro.experiments.resilience
.run_cells_resilient` (serial in-process for ``jobs=1``, a process pool
otherwise).

Design notes
------------
* Results are returned in input order regardless of completion order,
  and every cell is seeded solely by its spec — parallel and serial
  execution are bit-identical (asserted by the test suite).
* A cell failure is re-raised as :class:`CellExecutionError` carrying
  the failing spec, so a sweep error message names the exact cell
  instead of a bare traceback from an anonymous subprocess.
* The executor looks :func:`run_cell` up on this module at call time,
  so rebinding ``parallel.run_cell`` (as a profiler does to time every
  cell) reaches every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, cast

from repro.disk.parameters import TwoSpeedDiskParams
from repro.experiments.metrics import SimulationResult
from repro.experiments.runner import make_policy, run_simulation
from repro.faults import FaultConfig
from repro.obs import ObsConfig
from repro.redundancy.scheme import GroupScheme
from repro.workload.cache import cached_generate
from repro.workload.stream import WorkloadLike

if TYPE_CHECKING:
    from repro.experiments.shard import ShardCellSpec

__all__ = ["CellExecutionError", "RunSpec", "run_cell", "run_cells"]


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell as pure, picklable data.

    Attributes
    ----------
    policy:
        Registry name understood by
        :func:`repro.experiments.runner.make_policy` (e.g. ``"read"``).
    policy_kwargs:
        Keyword arguments forwarded into the policy's config dataclass.
    n_disks:
        Array size for this cell.
    workload:
        Full workload description; materialized through the content-keyed
        cache, so identical configs across specs share one generation.
    disk_params:
        Device model (``None`` = the module default).  Every cell boots
        its drives at high speed, serves queues FCFS and scores with the
        default PRESS model; a study of another PRESS model rescores one
        run's factors (:meth:`~repro.press.model.PRESSModel
        .rescore_factors`) instead of re-simulating.
    faults:
        Fault-injection configuration (``None`` = injection off).  The
        config is frozen plain data and the resulting
        :class:`~repro.faults.FaultSummary` is picklable, so fault cells
        fan out over the process pool like any other.
    obs:
        Telemetry configuration (``None`` = everything off).  Frozen
        plain data; the cell materializes its own trace writer and
        sampler, and the resulting time-series is picklable tuples, so
        telemetry survives the pool boundary.  File-writing
        options (``trace_path``/``metrics_path``) make sense only on
        single-cell specs — parallel cells would race on one path.
    """

    policy: str
    n_disks: int
    workload: WorkloadLike
    policy_kwargs: Mapping[str, object] = field(default_factory=dict)
    disk_params: Optional[TwoSpeedDiskParams] = None
    faults: Optional[FaultConfig] = None
    obs: Optional[ObsConfig] = None
    #: Set on the sub-cells a sharded run fans out (see
    #: :mod:`repro.experiments.shard`): the cell then simulates one shard
    #: of the array over the *streamed* workload and returns a
    #: ``ShardCellResult`` (an open partial result the shard merger
    #: closes), not a ``SimulationResult``.  ``None`` = ordinary cell.
    shard: "Optional[ShardCellSpec]" = None
    #: Redundancy-group scheme (``None`` = no layout; see
    #: :mod:`repro.redundancy`).  Frozen plain data, pickles across the
    #: pool like the rest of the spec.
    redundancy: Optional[GroupScheme] = None

    def label(self) -> str:
        """Compact human-readable cell name for errors and progress."""
        kwargs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.policy_kwargs.items()))
        suffix = f" [{kwargs}]" if kwargs else ""
        if self.shard is not None:
            suffix += (f" [shard {self.shard.index + 1}"
                       f"/{self.shard.plan.n_shards}]")
        return f"{self.policy} x {self.n_disks} disks{suffix}"


class CellExecutionError(RuntimeError):
    """A cell failed; carries the spec so sweeps can name the culprit."""

    def __init__(self, spec: RunSpec, cause: BaseException) -> None:
        super().__init__(f"cell {spec.label()} failed: {cause!r}")
        self.spec = spec
        self.cause = cause


def run_cell(spec: RunSpec) -> SimulationResult:
    """Execute one cell in the current process.

    Shard sub-cells (``spec.shard`` set) stream their workload and
    return a ``ShardCellResult`` — an open partial result only
    :func:`repro.experiments.shard.merge_shard_results` can consume.
    The cast below keeps the common signature; only the shard fan-out
    in :func:`~repro.experiments.shard.run_sharded` builds such specs,
    and it knows the real type of what comes back.
    """
    if spec.shard is not None:
        from repro.experiments.shard import run_shard_cell

        return cast(SimulationResult, run_shard_cell(spec))
    fileset, trace = cached_generate(spec.workload)
    policy = make_policy(spec.policy, **dict(spec.policy_kwargs))
    return run_simulation(policy, fileset, trace, n_disks=spec.n_disks,
                          disk_params=spec.disk_params,
                          faults=spec.faults, obs=spec.obs,
                          redundancy=spec.redundancy)


def run_cells(specs: Iterable[RunSpec], *, jobs: int = 1,
              resilience=None, checkpoint=None) -> list[SimulationResult]:
    """Execute cells, returning results in input order.

    ``jobs=1`` (default) runs serially in-process; ``jobs>1`` fans out
    over a process pool.  Both paths produce identical results — specs
    carry all the state a cell reads, so placement does not matter.

    This is :func:`~repro.experiments.resilience.run_cells_resilient`
    minus its summary and its harness bus: ``resilience`` (a
    :class:`~repro.experiments.resilience.ResilienceConfig`; the default
    retries nothing) sets per-cell retries/timeouts, and ``checkpoint``
    (a path or :class:`~repro.experiments.resilience.SweepCheckpoint`)
    journals and restores cells.  The first SIGINT/SIGTERM drains the
    in-flight cells and raises
    :class:`~repro.experiments.resilience.SweepInterrupted`.
    """
    from repro.experiments.resilience import run_cells_resilient

    results, _summary = run_cells_resilient(
        specs, jobs=jobs, config=resilience, checkpoint=checkpoint)
    return results
