"""READ's zone sizing and round-robin placement (Fig. 6, lines 3-7).

From gamma (Eq. 5) the hot-disk count is

    HD = gamma * n / (gamma + 1),    CD = n - HD

(rounded, clamped so both zones are non-empty), hot disks run high
speed, cold disks low speed, and files are dealt round-robin within
their zone: "the first file (supposed most popular one) onto the first
disk, the second file onto the second disk, and so on" — ordered
dealing spreads the *hottest* files across *different* hot disks, which
is what evens utilization out (the paper's third PRESS insight).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.popularity import PopularitySplit
from repro.util.validation import require, require_positive

__all__ = ["ZoneLayout", "compute_zone_layout", "round_robin_zone_placement"]


@dataclass(frozen=True, slots=True)
class ZoneLayout:
    """The hot/cold partition of a disk array."""

    n_disks: int
    n_hot: int

    def __post_init__(self) -> None:
        require(self.n_disks >= 2, f"READ needs >= 2 disks, got {self.n_disks}")
        require(1 <= self.n_hot <= self.n_disks - 1,
                f"n_hot must leave both zones non-empty, got {self.n_hot}/{self.n_disks}")

    @property
    def hot_ids(self) -> np.ndarray:
        """Hot-zone disk ids (the low-numbered disks, matching Fig. 6)."""
        return np.arange(self.n_hot, dtype=np.int64)

    @property
    def cold_ids(self) -> np.ndarray:
        """Cold-zone disk ids."""
        return np.arange(self.n_hot, self.n_disks, dtype=np.int64)

    def is_hot(self, disk_id: int) -> bool:
        """Whether a disk belongs to the hot zone."""
        return 0 <= disk_id < self.n_hot


def compute_zone_layout(gamma: float, n_disks: int) -> ZoneLayout:
    """Fig. 6 line 3: ``HD = gamma * n / (gamma + 1)``, both zones >= 1."""
    require_positive(gamma, "gamma")
    require(n_disks >= 2, f"READ needs >= 2 disks, got {n_disks}")
    n_hot = int(round(gamma * n_disks / (gamma + 1.0)))
    n_hot = min(max(n_hot, 1), n_disks - 1)
    return ZoneLayout(n_disks=n_disks, n_hot=n_hot)


def round_robin_zone_placement(split: PopularitySplit, layout: ZoneLayout,
                               sizes_mb: np.ndarray, capacity_mb: float) -> np.ndarray:
    """Deal popular files over hot disks and unpopular over cold disks.

    Round-robin in popularity order within each zone (Fig. 6, lines
    6-7), skipping disks whose remaining capacity cannot hold the file
    (the paper assumes capacity is ample; the guard keeps the invariant
    "every file placed, no disk over capacity" under any input).

    Returns ``placement[file_id] -> disk_id``.

    Raises
    ------
    ValueError
        If some file cannot fit anywhere in its zone *or the other zone*
        (the array is simply too small for the data set).
    """
    sizes = np.asarray(sizes_mb, dtype=np.float64)
    require(sizes.size == split.n_files, "sizes length must match the split population")
    require_positive(capacity_mb, "capacity_mb")

    placement = np.full(split.n_files, -1, dtype=np.int64)
    free = np.full(layout.n_disks, capacity_mb, dtype=np.float64)

    def deal(file_ids: np.ndarray, zone: np.ndarray) -> None:
        cursor = 0
        for fid in file_ids:
            size = float(sizes[fid])
            # first try the zone round-robin, then anywhere with space
            for attempt in range(zone.size):
                disk = int(zone[(cursor + attempt) % zone.size])
                if free[disk] >= size:
                    placement[fid] = disk
                    free[disk] -= size
                    cursor = (cursor + attempt + 1) % zone.size
                    break
            else:
                spill = int(np.argmax(free))
                require(free[spill] >= size,
                        f"file {fid} ({size} MB) does not fit on any disk")
                placement[fid] = spill
                free[spill] -= size

    deal(split.popular_ids, layout.hot_ids)
    deal(split.unpopular_ids, layout.cold_ids)
    return placement
