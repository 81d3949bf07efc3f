"""Synthetic WorldCup98-like workload generator.

The real trace the paper uses (WorldCup98 day 05-09: 4 079 files,
1 480 081 requests, 58.4 ms mean inter-arrival) is not redistributable
here, so this module synthesizes a workload matching the statistics the
paper itself uses to characterize it:

* Zipf-like popularity with exponent ``alpha`` in [0, 1] (Sec. 4);
* popularity inversely correlated with file size (READ's stated
  assumption for its first placement round);
* Poisson arrivals with a configurable mean inter-arrival (58.4 ms for
  the paper's light condition; the heavy condition time-compresses it).

This module holds the config and the deterministic tables (file sizes,
rank -> file mappings); ``repro.workload.stream`` samples the requests.
See DESIGN.md "Substitutions" for why this preserves the evaluated
behaviour: the three policies consume only (arrival time, file id, size).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.util.rngtools import SeedLike, rng_from
from repro.util.validation import require, require_in_range, require_positive
from repro.workload.files import FileSet

__all__ = ["SyntheticWorkloadConfig", "WorldCupLikeWorkload"]

#: Mean inter-arrival of the paper's trace day (Sec. 5.1), seconds.
WORLDCUP_MEAN_INTERARRIVAL_S = 0.0584
#: Distinct files in the paper's trace day (Sec. 5.1).
WORLDCUP_N_FILES = 4079


@dataclass(frozen=True, slots=True)
class SyntheticWorkloadConfig:
    """Parameters of a synthetic WC98-like workload.

    Attributes
    ----------
    n_files / n_requests:
        Population and trace length.  Defaults are the paper's file count
        and a trace long enough for stable statistics at laptop scale
        (the full 1.48 M requests are a flag away).
    zipf_alpha:
        Popularity skew in [0, 1] (Sec. 4: "α typically varying between
        0 and 1").
    mean_interarrival_s:
        Poisson mean gap; 0.0584 s reproduces the paper's light load.
    size_popularity_correlation:
        1.0 ranks popularity exactly inverse to size (paper assumption);
        0.0 shuffles popularity independently of size; intermediate
        values blend the two rankings (noisy real-world correlation).
    popularity_drift / drift_segments:
        Temporal popularity churn: the trace is split into
        ``drift_segments`` equal-length phases and between consecutive
        phases a ``popularity_drift`` fraction of the popularity ranks
        are re-dealt to different files.  Real web traces (WC98
        included) shift which objects are hot over the day; a static
        mapping would let reorganizing policies converge once and then
        idle, hiding exactly the churn the paper's evaluation exercises.
        The Zipf *marginal* distribution is unchanged — only the
        rank -> file identity moves.
    bursty:
        Use the ON/OFF bursty arrival process instead of plain Poisson.
    """

    n_files: int = WORLDCUP_N_FILES
    n_requests: int = 200_000
    zipf_alpha: float = 0.8
    mean_interarrival_s: float = WORLDCUP_MEAN_INTERARRIVAL_S
    size_popularity_correlation: float = 1.0
    popularity_drift: float = 0.2
    drift_segments: int = 8
    bursty: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.n_files >= 1, f"n_files must be >= 1, got {self.n_files}")
        require(self.n_requests >= 0, f"n_requests must be >= 0, got {self.n_requests}")
        require_in_range(self.zipf_alpha, 0.0, 1.0, "zipf_alpha")
        require_positive(self.mean_interarrival_s, "mean_interarrival_s")
        require_in_range(self.size_popularity_correlation, 0.0, 1.0,
                         "size_popularity_correlation")
        require_in_range(self.popularity_drift, 0.0, 1.0, "popularity_drift")
        require(self.drift_segments >= 1,
                f"drift_segments must be >= 1, got {self.drift_segments}")

    def heavy(self, intensity: float = 8.0) -> "SyntheticWorkloadConfig":
        """The paper's heavy-load condition: ``intensity`` times the
        arrival rate over the *same* simulated horizon.

        Scaling the request count along with the rate keeps the trace
        duration constant, so epoch-based policies face the same number
        of reorganization opportunities under both conditions.
        """
        require_positive(intensity, "intensity")
        return replace(self,
                       mean_interarrival_s=self.mean_interarrival_s / intensity,
                       n_requests=int(round(self.n_requests * intensity)))


class WorldCupLikeWorkload:
    """The file population and popularity mappings of a config.

    Everything here is deterministic in ``config.seed``, as is the
    request stream ``repro.workload.stream.SyntheticStream`` samples over
    these tables, so the same config always produces bit-identical
    traces: every policy is evaluated against the *same* request stream
    (the paper's fairness requirement, Sec. 3.5).
    """

    def __init__(self, config: SyntheticWorkloadConfig | None = None) -> None:
        self.config = config or SyntheticWorkloadConfig()

    # ------------------------------------------------------------------
    def build_fileset(self) -> FileSet:
        """Create the file population (sizes only; ids are dense ranks)."""
        cfg = self.config
        rng = rng_from(cfg.seed)
        return FileSet.web_like(cfg.n_files, seed=rng)

    def popularity_order(self, fileset: FileSet, seed: SeedLike = None) -> np.ndarray:
        """Map popularity rank -> file id.

        Rank 0 is the most popular file.  With full correlation the
        smallest file is rank 0 (paper assumption); with zero correlation
        the mapping is a uniform permutation; in between, each file's
        rank score blends its size rank with uniform noise.
        """
        cfg = self.config
        rng = rng_from(cfg.seed + 1 if seed is None else seed)
        n = len(fileset)
        size_rank = np.empty(n, dtype=np.float64)
        size_rank[fileset.ids_sorted_by_size()] = np.arange(n, dtype=np.float64)
        noise_rank = rng.permutation(n).astype(np.float64)
        w = cfg.size_popularity_correlation
        score = w * size_rank + (1.0 - w) * noise_rank
        return np.argsort(score, kind="stable").astype(np.int64)

    def drifted_orders(self, fileset: FileSet) -> list[np.ndarray]:
        """One rank -> file mapping per trace segment (see config docs).

        Segment 0 is the base :meth:`popularity_order`; each subsequent
        segment re-deals ``popularity_drift * n`` randomly chosen rank
        slots among themselves (a derangement-style rotation), so hot
        ranks land on previously-cold files while the Zipf marginal is
        preserved.
        """
        cfg = self.config
        rng = rng_from(cfg.seed + 3)
        order = self.popularity_order(fileset)
        orders = [order]
        n = len(fileset)
        n_moved = int(round(cfg.popularity_drift * n))
        for _seg in range(1, cfg.drift_segments):
            order = order.copy()
            if n_moved >= 2:
                slots = rng.choice(n, size=n_moved, replace=False)
                order[slots] = np.roll(order[slots], 1)
            orders.append(order)
        return orders
