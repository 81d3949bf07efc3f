"""File populations and web-realistic size distributions.

The WorldCup98 day the paper replays holds 4 079 distinct files with
small average size ("average file sizes in the real web workload are
much smaller than a normal stripping block size 512 KB", Sec. 4).  Web
object sizes are classically modeled as lognormal body + Pareto tail
(Crovella & Bestavros); both pieces are provided and the synthetic
generator combines them.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.util.rngtools import SeedLike, rng_from
from repro.util.validation import require, require_positive
from repro.workload.request import FileSpec

__all__ = ["FileSet", "lognormal_web_sizes", "pareto_web_sizes", "hybrid_web_sizes"]


def lognormal_web_sizes(n: int, median_kb: float = 6.0, sigma: float = 1.3,
                        seed: SeedLike = None) -> np.ndarray:
    """Lognormal web object sizes, returned in **MB**.

    Defaults give a median of ~6 KB, typical of 1998-era static web
    content (the WC98 trace is dominated by small GIFs and HTML).
    """
    require(n >= 0, f"n must be >= 0, got {n}")
    require_positive(median_kb, "median_kb")
    require_positive(sigma, "sigma")
    rng = rng_from(seed)
    sizes_kb = rng.lognormal(mean=np.log(median_kb), sigma=sigma, size=n)
    return sizes_kb / 1024.0


def pareto_web_sizes(n: int, tail_alpha: float = 1.2, min_kb: float = 30.0,
                     seed: SeedLike = None) -> np.ndarray:
    """Pareto-tailed large-object sizes, returned in **MB**.

    Models the heavy tail (images, archives, media) that a pure lognormal
    underestimates.  ``tail_alpha`` just above 1 gives the infinite-variance
    tail reported for web traffic.
    """
    require(n >= 0, f"n must be >= 0, got {n}")
    require_positive(tail_alpha, "tail_alpha")
    require_positive(min_kb, "min_kb")
    rng = rng_from(seed)
    sizes_kb = min_kb * (1.0 + rng.pareto(tail_alpha, size=n))
    return sizes_kb / 1024.0


def hybrid_web_sizes(n: int, tail_fraction: float = 0.05, seed: SeedLike = None,
                     **kwargs: float) -> np.ndarray:
    """Lognormal body with a Pareto tail mixed in, returned in **MB**.

    ``tail_fraction`` of the files are drawn from the Pareto tail.  Extra
    keyword arguments are routed by prefix: ``median_kb``/``sigma`` to the
    lognormal body, ``tail_alpha``/``min_kb`` to the Pareto tail.
    """
    require(n >= 0, f"n must be >= 0, got {n}")
    require(0.0 <= tail_fraction <= 1.0, f"tail_fraction must be in [0,1], got {tail_fraction}")
    rng = rng_from(seed)
    body_kw = {k: v for k, v in kwargs.items() if k in ("median_kb", "sigma")}
    tail_kw = {k: v for k, v in kwargs.items() if k in ("tail_alpha", "min_kb")}
    unknown = set(kwargs) - set(body_kw) - set(tail_kw)
    require(not unknown, f"unknown size-model parameters: {sorted(unknown)}")
    sizes = lognormal_web_sizes(n, seed=rng, **body_kw)
    n_tail = int(round(tail_fraction * n))
    if n_tail > 0:
        tail_idx = rng.choice(n, size=n_tail, replace=False)
        sizes[tail_idx] = pareto_web_sizes(n_tail, seed=rng, **tail_kw)
    return sizes


class FileSet:
    """An immutable collection of :class:`FileSpec`, indexed by dense id.

    Sizes are held in a single numpy array so the simulator's hot path
    (service-time computation) is a vectorizable array lookup rather than
    attribute access on millions of objects.
    """

    def __init__(self, sizes_mb: Sequence[float] | np.ndarray) -> None:
        arr = np.asarray(sizes_mb, dtype=np.float64)
        require(arr.ndim == 1, "sizes_mb must be 1-D")
        require(arr.size >= 1, "a FileSet must contain at least one file")
        require(bool(np.all(np.isfinite(arr)) and np.all(arr > 0)),
                "all file sizes must be finite and > 0")
        self._sizes = arr.copy()
        self._sizes.setflags(write=False)
        self._total_mb = float(self._sizes.sum())

    # ------------------------------------------------------------------
    @classmethod
    def web_like(cls, n_files: int, seed: SeedLike = None) -> "FileSet":
        """Build a web-realistic file set (lognormal body + Pareto tail)."""
        return cls(hybrid_web_sizes(n_files, seed=seed))

    @classmethod
    def uniform(cls, n_files: int, size_mb: float) -> "FileSet":
        """Build a file set where every file has the same size."""
        require_positive(size_mb, "size_mb")
        return cls(np.full(n_files, size_mb, dtype=np.float64))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._sizes.size)

    def __iter__(self) -> Iterator[FileSpec]:
        for i in range(len(self)):
            yield FileSpec(i, float(self._sizes[i]))

    def __getitem__(self, file_id: int) -> FileSpec:
        return FileSpec(int(file_id), float(self._sizes[file_id]))

    @property
    def sizes_mb(self) -> np.ndarray:
        """Read-only array of file sizes in MB, indexed by file id."""
        return self._sizes

    def size_of(self, file_id: int) -> float:
        """Size in MB of one file."""
        return float(self._sizes[file_id])

    @property
    def total_mb(self) -> float:
        """Total stored bytes across all files, in MB."""
        return self._total_mb

    def ids_sorted_by_size(self, descending: bool = False) -> np.ndarray:
        """File ids sorted by size (stable).

        READ's original placement round sorts files by size,
        non-decreasing, under the assumption that popularity is inversely
        correlated with size (Sec. 4).
        """
        order = np.argsort(self._sizes, kind="stable")
        return order[::-1] if descending else order
