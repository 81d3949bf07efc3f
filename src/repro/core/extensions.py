"""READ extensions from the paper's own insights and future work.

* :class:`RotatingREADPolicy` — Sec. 3.5 insight 2: "workload-skew based
  energy-saving schemes need to rotate the role of workhorse disks
  regularly so that the scenario that a particular subset of disks is
  always running at high temperature can be prevented."  Every
  ``rotation_epochs`` epochs, the longest-serving hot disk swaps roles
  (speed + files) with a cold disk.  The swap's speed changes go through
  READ's normal transition budget and its file moves through the normal
  migration path — rotation is not free, which is exactly the trade-off
  worth measuring (see ``benchmarks/bench_extensions.py``).

* :class:`ReplicatingREADPolicy` — Sec. 6 future work 1: "One possible
  solution is to use file replication technique."  The top-k hottest
  files get a replica on a second hot disk; requests pick the
  least-backlogged copy.  Replicas divert load without migration cost
  once created (creation is one internal write), trading capacity for
  lower queueing on the hottest disks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.read_strategy import READConfig, READPolicy
from repro.disk.parameters import DiskSpeed
from repro.util.validation import require
from repro.workload.request import Request

__all__ = [
    "RotatingREADConfig",
    "RotatingREADPolicy",
    "ReplicatingREADConfig",
    "ReplicatingREADPolicy",
]


# ----------------------------------------------------------------------
# role rotation
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RotatingREADConfig(READConfig):
    """READ plus workhorse-role rotation.

    ``rotation_epochs``: a role swap is attempted every this many FRD
    epochs (1 = every epoch).
    """

    rotation_epochs: int = 4

    def __post_init__(self) -> None:
        READConfig.__post_init__(self)
        require(self.rotation_epochs >= 1,
                f"rotation_epochs must be >= 1, got {self.rotation_epochs}")


class RotatingREADPolicy(READPolicy):
    """READ with periodic hot/cold role swaps (PRESS insight 2)."""

    name = "read-rotate"

    def __init__(self, config: RotatingREADConfig | None = None) -> None:
        super().__init__(config or RotatingREADConfig())
        self.rotations_performed = 0
        #: cumulative epochs each disk has spent in the hot role
        self._hot_tenure: np.ndarray | None = None
        #: current physical membership of the hot role (starts as the
        #: layout's prefix; rotation permutes it)
        self._hot_set: set[int] = set()

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["rotation_epochs"] = self.config.rotation_epochs
        info["rotations_performed"] = self.rotations_performed
        return info

    def initial_layout(self) -> None:
        super().initial_layout()
        array = self._require_bound()
        self._hot_tenure = np.zeros(array.n_disks, dtype=np.float64)
        self._hot_set = set(int(d) for d in self.layout.hot_ids)

    def _on_epoch(self, tick: int) -> None:
        super()._on_epoch(tick)
        assert self._hot_tenure is not None
        for d in self._hot_set:
            self._hot_tenure[d] += 1.0
        if (tick + 1) % self.config.rotation_epochs == 0:
            self._rotate_once()

    def _rotate_once(self) -> None:
        """Swap the longest-tenured hot disk with the coolest cold disk."""
        array = self._require_bound()
        assert self._hot_tenure is not None and self._budget is not None
        cold_set = [d for d in range(array.n_disks) if d not in self._hot_set]
        if not cold_set or not self._hot_set:
            return
        hot = max(self._hot_set, key=lambda d: self._hot_tenure[d])
        cold = min(cold_set, key=lambda d: self._hot_tenure[d])

        # both speed changes must fit in the transition budget, or the
        # rotation is skipped this round (reliability first)
        if not (self._budget.available(hot) and self._budget.available(cold)):
            return
        self._budget.spend(hot)
        self._budget.spend(cold)
        array.drive(cold).request_speed(DiskSpeed.HIGH)
        array.drive(hot).request_speed(DiskSpeed.LOW)

        # swap resident files (charged as normal migrations)
        hot_files = [int(f) for f in array.files_on(hot)]
        cold_files = [int(f) for f in array.files_on(cold)]
        moved = 0
        for fid in hot_files:
            if array.migrate_file(fid, cold):
                moved += 1
        for fid in cold_files:
            if array.migrate_file(fid, hot):
                moved += 1
        self.migrations_performed += moved

        self._hot_set.remove(hot)
        self._hot_set.add(cold)
        self.rotations_performed += 1


# ----------------------------------------------------------------------
# replication
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ReplicatingREADConfig(READConfig):
    """READ plus top-k hot-file replication.

    ``replicate_top_k``: how many of the epoch's hottest files carry a
    replica.  ``0`` disables replication (degenerates to plain READ).
    """

    replicate_top_k: int = 10

    def __post_init__(self) -> None:
        READConfig.__post_init__(self)
        require(self.replicate_top_k >= 0,
                f"replicate_top_k must be >= 0, got {self.replicate_top_k}")


class ReplicatingREADPolicy(READPolicy):
    """READ with hot-file replicas across the hot zone (future work 1)."""

    name = "read-replicate"

    def __init__(self, config: ReplicatingREADConfig | None = None) -> None:
        super().__init__(config or ReplicatingREADConfig())
        #: file_id -> replica disk (one replica per file; the primary
        #: stays in the array's placement map)
        self._replicas: dict[int, int] = {}
        #: replica bytes parked per disk (capacity bookkeeping)
        self._replica_mb: np.ndarray | None = None
        self.replicas_created = 0

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["replicate_top_k"] = self.config.replicate_top_k
        info["active_replicas"] = len(self._replicas)
        return info

    def initial_layout(self) -> None:
        super().initial_layout()
        self._replica_mb = np.zeros(self._require_bound().n_disks, dtype=np.float64)

    # ------------------------------------------------------------------
    def route(self, request: Request) -> None:
        array = self._require_bound()
        assert self._tracker is not None and self._controller is not None
        self._tracker.record(request.file_id)
        primary = array.location_of(request.file_id)
        target = primary
        replica = self._replicas.get(request.file_id)
        if replica is not None:
            # pick the least-backlogged copy
            if array.drive(replica).queue_length < array.drive(primary).queue_length:
                target = replica
        self._controller.check_spin_up(target)
        self.submit(request, disk_id=target)

    # ------------------------------------------------------------------
    # degraded mode (fault injection)
    # ------------------------------------------------------------------
    def alternate_targets(self, file_id: int) -> tuple[int, ...]:
        """A file's replica is a servable alternate to its primary."""
        replica = self._replicas.get(file_id)
        return () if replica is None else (replica,)

    def on_disk_failed(self, disk_id: int) -> None:
        """Replicas on a failed disk are gone; drop the metadata.

        The next epoch's :meth:`_refresh_replicas` re-creates replicas
        for files that are still hot.
        """
        if self._replica_mb is None:
            return
        for fid in [f for f, d in self._replicas.items() if d == disk_id]:
            del self._replicas[fid]
        self._replica_mb[disk_id] = 0.0

    # ------------------------------------------------------------------
    def _on_epoch(self, tick: int) -> None:
        assert self._tracker is not None
        counts = self._tracker.current_counts.copy()
        super()._on_epoch(tick)
        if self.config.replicate_top_k == 0 or counts.sum() == 0:
            return
        self._refresh_replicas(counts)

    def _refresh_replicas(self, counts: np.ndarray) -> None:
        array = self._require_bound()
        assert self._replica_mb is not None and self.layout is not None
        top = np.argsort(-counts, kind="stable")[:self.config.replicate_top_k]
        top_set = {int(f) for f in top if counts[f] > 0}

        # drop replicas of files that cooled (metadata only)
        for fid in [f for f in self._replicas if f not in top_set]:
            disk = self._replicas.pop(fid)
            self._replica_mb[disk] -= self.fileset.size_of(fid)

        hot_ids = [int(d) for d in self.layout.hot_ids]
        if len(hot_ids) < 2:
            return  # nowhere distinct to put a replica
        for fid in top_set:
            if fid in self._replicas:
                continue
            primary = array.location_of(fid)
            size = self.fileset.size_of(fid)
            candidates = [d for d in hot_ids if d != primary and
                          array.disk_is_up(d) and
                          array.free_mb(d) - self._replica_mb[d] >= size]
            if not candidates:
                continue
            dest = min(candidates, key=lambda d: array.drive(d).queue_length)
            self._replicas[fid] = dest
            self._replica_mb[dest] += size
            array.submit_internal(dest, size)  # the replica write
            self.replicas_created += 1
