"""MAID — Massive Array of Idle Disks (Colarelli & Grunwald, SC'02).

The paper's description (Sec. 2, Sec. 4): "copy the required data to a
set of 'cache disks' and put all the other disks in low-power mode.
Later accesses to the data may then hit the data on the cache disk(s)."
With two-speed disks MAID becomes the hybrid the paper evaluates: cache
disks run permanently at high speed, passive disks sink to low speed
after an idle period and return to high speed under demand.

Implementation model
--------------------
* ``n_cache_disks`` drives (the first ids) are cache disks; they hold
  *copies*, managed LRU by capacity.  The remaining passive drives hold
  every file's primary copy, round-robin by size rank.
* A request for a cached file is served by its cache disk (and refreshes
  LRU recency).  A miss is served by the passive disk and, on
  completion, the file is copied into cache: an internal write job on
  the least-loaded cache disk (the read side piggybacks on the just-
  completed user read, costing no extra passive-disk work).  The file
  only counts as cached once the write completes — concurrent misses on
  an in-flight copy keep hitting the passive disk rather than reading a
  half-written copy.
* Eviction is a metadata operation (no I/O): LRU entries are dropped
  until the new copy fits.

Reliability character (what PRESS sees): cache disks accumulate very
high utilization at permanently high temperature — exactly the
workhorse-overuse effect the paper's Sec. 1 calls out — while passive
disks rack up speed transitions under bursty misses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.disk.drive import Job
from repro.obs import events as ev
from repro.policies.base import Policy, SpeedControlConfig, SpeedController
from repro.util.validation import require, require_fraction
from repro.workload.request import Request

__all__ = ["MAIDConfig", "MAIDPolicy"]


@dataclass(frozen=True, slots=True)
class MAIDConfig:
    """MAID tuning knobs.

    Attributes
    ----------
    n_cache_disks:
        Cache-disk count; ``None`` means ``max(1, round(n_disks / 4))``
        (the 1:3 cache-to-passive ratio of the original MAID paper's
        smaller configs).
    cache_fraction_of_data:
        Total logical cache size as a fraction of the stored data set.
        MAID's cache is by construction smaller than the data (that is
        the point of the passive tier); the fraction bounds hit rate and
        therefore how often passive disks are disturbed.  The per-disk
        physical capacity still caps the budget.
    speed:
        Shared idleness/spin-up knobs for the passive disks.
    """

    n_cache_disks: Optional[int] = None
    cache_fraction_of_data: float = 0.5
    #: Like PDC, a miss spins the passive disk up on any arrival — the
    #: passive tier is meant to be asleep, not a slow service class.
    speed: SpeedControlConfig = SpeedControlConfig(
        idle_threshold_s=20.0, spin_up_queue_len=1, spin_up_wait_s=0.5)

    def __post_init__(self) -> None:
        if self.n_cache_disks is not None:
            require(self.n_cache_disks >= 1,
                    f"n_cache_disks must be >= 1, got {self.n_cache_disks}")
        require_fraction(self.cache_fraction_of_data, "cache_fraction_of_data")
        require(self.cache_fraction_of_data > 0.0, "cache_fraction_of_data must be > 0")


class MAIDPolicy(Policy):
    """MAID with two-speed passive disks (the paper's comparison baseline)."""

    name = "maid"

    def __init__(self, config: MAIDConfig | None = None) -> None:
        super().__init__()
        self.config = config or MAIDConfig()
        self._n_cache = 0
        self._controller: Optional[SpeedController] = None
        #: file_id -> cache disk, in LRU order (oldest first).
        self._cache: OrderedDict[int, int] = OrderedDict()
        #: files whose cache copy is still being written.
        self._copying: set[int] = set()
        #: logical MB of copies held per cache disk.
        self._cache_used_mb: Optional[np.ndarray] = None
        #: cached result of :meth:`_cache_budget_mb` (set at layout time).
        self._budget_mb: Optional[float] = None
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        return {"name": self.name, "n_cache_disks": self._n_cache,
                "idle_threshold_s": self.config.speed.idle_threshold_s}

    def is_cache_disk(self, disk_id: int) -> bool:
        """Whether ``disk_id`` is one of the always-on cache disks."""
        return disk_id < self._n_cache

    # ------------------------------------------------------------------
    def initial_layout(self) -> None:
        """Reserve cache disks, spread primaries over passive disks."""
        array = self._require_bound()
        n = array.n_disks
        cfg = self.config
        self._n_cache = cfg.n_cache_disks if cfg.n_cache_disks is not None else max(1, round(n / 4))
        require(self._n_cache < n,
                f"MAID needs at least one passive disk (n_cache={self._n_cache}, n={n})")
        n_passive = n - self._n_cache

        order = self.fileset.ids_sorted_by_size()
        placement = np.empty(len(self.fileset), dtype=np.int64)
        placement[order] = self._n_cache + (np.arange(len(order)) % n_passive)
        array.place_all(placement)

        self._cache_used_mb = np.zeros(self._n_cache, dtype=np.float64)
        self._budget_mb = None  # recompute below against the new array
        self._budget_mb = self._cache_budget_mb()
        # cache disks pinned high; passive disks idle down via controller
        self._controller = SpeedController(
            self.sim, array, cfg.speed,
            eligible=lambda d: not self.is_cache_disk(d),
        )

    # ------------------------------------------------------------------
    def route(self, request: Request) -> None:
        """Serve from cache on a hit; on a miss, serve passive + copy in."""
        self._require_bound()
        fid = request.file_id
        cached_on = self._cache.get(fid)
        if cached_on is not None and fid not in self._copying:
            self.cache_hits += 1
            if self.trace is not None:
                self.trace.emit(ev.POLICY_CACHE_HIT, self.sim.now,
                                file=fid, disk=cached_on)
            self._cache.move_to_end(fid)  # LRU refresh
            self.submit(request, disk_id=cached_on)
            return

        self.cache_misses += 1
        primary = self.array.location_of(fid)
        if self.trace is not None:
            self.trace.emit(ev.POLICY_CACHE_MISS, self.sim.now,
                            file=fid, disk=primary)
        assert self._controller is not None
        self._controller.check_spin_up(primary)
        job = self.submit(request, disk_id=primary)
        # job.failed is only set this early when the fault domain failed
        # the submit synchronously — nothing was read, so nothing to copy
        if cached_on is None and fid not in self._copying and not job.failed:
            self._start_copy(fid, job)

    def on_disk_idle(self, disk_id: int) -> None:
        if self._controller is not None:
            self._controller.on_disk_idle(disk_id)

    def on_disk_busy(self, disk_id: int) -> None:
        if self._controller is not None:
            self._controller.on_disk_busy(disk_id)

    def shutdown(self) -> None:
        if self._controller is not None:
            self._controller.shutdown()

    # ------------------------------------------------------------------
    # degraded mode (fault injection)
    # ------------------------------------------------------------------
    def alternate_targets(self, file_id: int) -> tuple[int, ...]:
        """A completed cache copy is a servable alternate to the primary."""
        disk = self._cache.get(file_id)
        if disk is not None and file_id not in self._copying:
            return (disk,)
        return ()

    def on_disk_failed(self, disk_id: int) -> None:
        """Drop cache metadata that pointed at the failed disk.

        A failed passive disk needs no cache-side action (its files'
        copies remain servable); a failed cache disk loses every copy it
        held — the copies are re-created by later misses, the rebuild
        only restores primary data.
        """
        if not self.is_cache_disk(disk_id) or self._cache_used_mb is None:
            return
        for fid in [f for f, d in self._cache.items() if d == disk_id]:
            del self._cache[fid]
        self._cache_used_mb[disk_id] = 0.0

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def _cache_budget_mb(self) -> float:
        """Per-cache-disk logical budget: data-relative, capacity-capped.

        Fixed once the policy is laid out (fileset, cache count, and
        capacity never change mid-run), so the value is computed once in
        :meth:`initial_layout` and reused on the per-miss path.
        """
        if self._budget_mb is not None:
            return self._budget_mb
        per_disk = (self.config.cache_fraction_of_data * self.fileset.total_mb
                    / max(self._n_cache, 1))
        return min(per_disk, 0.95 * self.array.params.capacity_mb)

    def _start_copy(self, fid: int, triggering_job: Job) -> None:
        """After the miss read completes, write the file into cache."""
        size = self.fileset.size_of(fid)
        if size > self._cache_budget_mb():
            return  # pathological: file larger than a cache disk's budget
        self._copying.add(fid)

        def _after_user_read(_job: Job) -> None:
            target = self._pick_cache_disk(size)
            if target is None or not self._evict_until_fits(target, size):
                # no room even after eviction (e.g. space pinned by other
                # in-flight copies): skip caching this access, don't fail
                self._copying.discard(fid)
                return
            self._cache_used_mb[target] += size

            def _after_cache_write(_wjob: Job) -> None:
                self._copying.discard(fid)
                if _wjob.failed:
                    # cache disk died before the copy landed: release the
                    # charged space, leave the file uncached
                    self._cache_used_mb[target] -= size
                    return
                self._cache[fid] = target  # becomes visible (and LRU-newest) now
                if self.trace is not None:
                    self.trace.emit(ev.POLICY_CACHE_INSERT, self.sim.now,
                                    file=fid, disk=target)

            self.array.submit_internal(target, size, on_complete=_after_cache_write)

        # chain onto the user read without clobbering the metrics callback
        prev = triggering_job.on_complete

        def _chained(job: Job) -> None:
            if prev is not None:
                prev(job)
            if job.failed:
                # the miss read never finished (disk failure); there is
                # nothing to copy — the retry path re-serves the request
                self._copying.discard(fid)
                return
            _after_user_read(job)

        triggering_job.on_complete = _chained

    def _pick_cache_disk(self, size_mb: float) -> Optional[int]:
        """Least-loaded cache disk that could hold ``size_mb`` after eviction."""
        assert self._cache_used_mb is not None
        if self._n_cache == 0:
            return None
        candidate = int(np.argmin(self._cache_used_mb))
        if self.array.drives[candidate].is_failed:
            up = [d for d in range(self._n_cache)
                  if not self.array.drives[d].is_failed]
            if not up:
                return None
            candidate = min(up, key=lambda d: float(self._cache_used_mb[d]))
        return candidate if size_mb <= self._cache_budget_mb() else None

    def _evict_until_fits(self, cache_disk: int, size_mb: float) -> bool:
        """Drop LRU entries on ``cache_disk`` until ``size_mb`` fits.

        Returns ``False`` when even a fully evicted disk cannot take the
        file — possible when in-flight copies (charged but not yet
        evictable) pin the space; the caller then skips caching.
        """
        budget = self._cache_budget_mb()
        if self._cache_used_mb[cache_disk] + size_mb <= budget:
            return True
        for fid in list(self._cache):  # insertion order: oldest first
            if self._cache[fid] != cache_disk:
                continue
            del self._cache[fid]
            self._cache_used_mb[cache_disk] -= self.fileset.size_of(fid)
            if self._cache_used_mb[cache_disk] + size_mb <= budget:
                return True
        return self._cache_used_mb[cache_disk] + size_mb <= budget
