"""Redundancy-group geometry: membership, replica sets, health.

:class:`RedundancyGroups` binds a :class:`~repro.redundancy.scheme.GroupScheme`
to a concrete array size and answers the pure index questions the fault
path asks: which disks form a group, which hold copies of a primary's
data, which survivors can reconstruct it, and how healthy each group is
under a given up/down predicate.  It deliberately holds no references to
the simulator or the array — callers pass ``is_up`` as a function — so
it stays trivially testable and sits below ``repro.faults`` in the
layering.

Layout conventions
------------------
* Groups are contiguous disk-id blocks: group ``g`` owns disks
  ``[g * group_size, (g + 1) * group_size)``.
* Fault domains slice each group into contiguous blocks of
  ``group_size / fault_domains``; domain ``d`` is array-wide (the d-th
  block of *every* group lives in the same rack/datacenter), so one
  domain outage degrades every group simultaneously — the correlated
  failure mode independent-disk models miss.
* Mirror replica sets are the residue classes of the local index modulo
  ``stride = group_size / replicas``; copy ``i`` of local index ``li``
  sits at ``(li % stride) + i * stride``.  With ``fault_domains ==
  replicas`` (the presets) the domain block size equals ``stride``, so
  the ``i``-th copy of every file lands in the ``i``-th domain —
  exactly the "one replica per datacenter" placement of ``mirror3dc``.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator

from repro.redundancy.scheme import GroupScheme
from repro.util.validation import require

__all__ = ["GroupHealth", "RedundancyGroups"]

#: Up/down predicate over disk ids (the injector passes the array's view).
IsUp = Callable[[int], bool]


class GroupHealth(enum.Enum):
    """Classification of one group's state under the current failures.

    ``HEALTHY``
        every member up.
    ``DEGRADED``
        failures absorbed with slack left (reads reconstruct, but at
        least one more failure is survivable).
    ``CRITICAL``
        exactly at the fault-tolerance edge: data still servable, any
        further failure in the wrong place loses it.
    ``LOST``
        some data in the group has no reconstruction path until rebuild.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    CRITICAL = "critical"
    LOST = "lost"


class RedundancyGroups:
    """Pure geometry of an array partitioned into redundancy groups."""

    def __init__(self, scheme: GroupScheme, n_disks: int) -> None:
        require(n_disks >= 1, f"n_disks must be >= 1, got {n_disks}")
        require(n_disks % scheme.group_size == 0,
                f"n_disks {n_disks} must be a multiple of the "
                f"{scheme.name!r} group size {scheme.group_size}")
        self.scheme = scheme
        self.n_disks = n_disks
        self.n_groups = n_disks // scheme.group_size
        #: local indices per fault-domain block
        self._domain_block = scheme.group_size // scheme.fault_domains
        #: replica sets per group (mirror); group_size for parity/none
        self._stride = (scheme.group_size // scheme.replicas
                        if scheme.kind == "mirror" else scheme.group_size)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def group_of(self, disk_id: int) -> int:
        """Group index owning ``disk_id``."""
        return disk_id // self.scheme.group_size

    def members(self, group_id: int) -> range:
        """Disk ids of one group, ascending."""
        base = group_id * self.scheme.group_size
        return range(base, base + self.scheme.group_size)

    def domain_of(self, disk_id: int) -> int:
        """Array-wide fault domain of ``disk_id``."""
        return (disk_id % self.scheme.group_size) // self._domain_block

    def disks_in_domain(self, domain: int) -> Iterator[int]:
        """All disks (across every group) in one fault domain."""
        require(0 <= domain < self.scheme.fault_domains,
                f"domain must be in [0, {self.scheme.fault_domains}), got {domain}")
        first = domain * self._domain_block
        for base in range(0, self.n_disks, self.scheme.group_size):
            yield from range(base + first, base + first + self._domain_block)

    def copy_disks(self, disk_id: int) -> tuple[int, ...]:
        """Disks holding (copies or shards of) ``disk_id``'s data.

        Mirror: the replica set.  Parity: every group member (each
        stripe spans the whole group).  None: just the disk itself.
        """
        scheme = self.scheme
        if scheme.kind == "none":
            return (disk_id,)
        base = self.group_of(disk_id) * scheme.group_size
        if scheme.kind == "parity":
            return tuple(self.members(self.group_of(disk_id)))
        local = (disk_id - base) % self._stride
        return tuple(base + local + i * self._stride
                     for i in range(scheme.replicas))

    def loss_units(self) -> list[tuple[int, ...]]:
        """Disk ids of every independent data-loss unit, in disk order.

        A parity (or ``none``) group loses data as a whole; a mirror
        group splits into its replica sets, each of which loses data
        only when every copy is down.  The units partition the array.
        """
        per_group = self.scheme.group_size // self.scheme.loss_unit_size
        return [self.copy_disks(base + local)
                for base in range(0, self.n_disks, self.scheme.group_size)
                for local in range(per_group)]

    # ------------------------------------------------------------------
    # degraded-mode serving and rebuild
    # ------------------------------------------------------------------
    def reconstruct_targets(self, primary: int, is_up: IsUp) -> tuple[int, ...]:
        """Disks a degraded read of ``primary``'s data must touch.

        Mirror: the first live copy (a full-size read).  Parity: the
        ``k`` lowest-id live group members other than ``primary`` (one
        shard-sized read each).  Empty tuple when the data is
        unreconstructable — fewer than ``k`` survivors, or no live copy.
        """
        scheme = self.scheme
        if scheme.kind == "none":
            return ()
        if scheme.kind == "mirror":
            for copy in self.copy_disks(primary):
                if copy != primary and is_up(copy):
                    return (copy,)
            return ()
        survivors = [d for d in self.members(self.group_of(primary))
                     if d != primary and is_up(d)]
        if len(survivors) < scheme.data_shards:
            return ()
        return tuple(survivors[:scheme.data_shards])

    def rebuild_sources(self, disk_id: int, is_up: IsUp) -> tuple[int, ...]:
        """Disks a rebuild of ``disk_id`` streams from.

        Mirror: every live copy peer (the copy stream parallelizes).
        Parity: ``k`` live members (each contributes its shard of every
        lost stripe — the k-fold read amplification of erasure rebuild).
        Empty when the group is lost (rebuild then models a cold
        restore, not a reconstruction).
        """
        return self.reconstruct_targets(disk_id, is_up)

    def servable(self, primary: int, is_up: IsUp) -> bool:
        """True when ``primary``'s data is readable right now."""
        return is_up(primary) or bool(self.reconstruct_targets(primary, is_up))

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health_of(self, group_id: int, is_up: IsUp) -> GroupHealth:
        """Classify one group under the current failure pattern."""
        scheme = self.scheme
        members = self.members(group_id)
        down = sum(1 for d in members if not is_up(d))
        if down == 0:
            return GroupHealth.HEALTHY
        if scheme.kind == "parity":
            tolerance = scheme.fault_tolerance
            if down > tolerance:
                return GroupHealth.LOST
            if down == tolerance:
                return GroupHealth.CRITICAL
            return GroupHealth.DEGRADED
        if scheme.kind == "mirror":
            base = group_id * scheme.group_size
            min_live = min(
                sum(1 for i in range(scheme.replicas)
                    if is_up(base + local + i * self._stride))
                for local in range(self._stride))
            if min_live == 0:
                return GroupHealth.LOST
            if min_live == 1:
                # note: a 2-way mirror is CRITICAL (never DEGRADED) the
                # moment either copy fails — it has no slack
                return GroupHealth.CRITICAL
            return GroupHealth.DEGRADED
        return GroupHealth.LOST  # kind == "none": any failure is loss

    def health_snapshot(self, is_up: IsUp) -> tuple[GroupHealth, ...]:
        """Health of every group, in group order."""
        return tuple(self.health_of(g, is_up) for g in range(self.n_groups))
