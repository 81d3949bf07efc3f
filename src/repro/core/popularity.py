"""READ's popularity mathematics (paper Sec. 4, Eqs. 4-5).

Given the skew parameter theta (see :func:`repro.workload.zipf.skew_theta`
for the definition and the resolved ambiguity), READ derives:

* the popular-file count  ``|Fp| = (1 - theta) * m``;
* delta, the popular/unpopular *count* ratio (Eq. 4):
  ``delta = (1 - theta) / theta``;
* gamma, the hot/cold *disk* ratio (Eq. 5), driven by the ratio of the
  total popular load to the total unpopular load with the same
  ``(1-theta)/theta`` prefactor:

      gamma = (1 - theta) * sum_{i in Fp} h_i
              ----------------------------------
              theta       * sum_{j in Fu} h_j

where a file's load is ``h_i = lambda_i * s_i`` (access rate x size,
Sec. 4 — service time proportional to size under whole-file reads).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require, require_in_range
from repro.workload.zipf import zipf_probabilities

__all__ = [
    "PopularitySplit",
    "popular_file_count",
    "split_by_popularity",
    "popular_unpopular_ratio_delta",
    "zone_load_ratio_gamma",
    "estimate_file_loads",
]

#: theta is kept strictly inside (0, 1): 0 would declare *every* file
#: popular with an infinite load prefactor, 1 would declare none (and
#: Eq. 4's delta divides by theta).
_THETA_EPS = 1e-6


def _check_theta(theta: float) -> float:
    return require_in_range(theta, _THETA_EPS, 1.0 - _THETA_EPS, "theta")


def popular_file_count(theta: float, n_files: int) -> int:
    """``|Fp| = (1 - theta) * m`` (Sec. 4), clamped to [1, m-1].

    The clamp keeps both file classes non-empty — READ's zones are
    meaningless otherwise (and the paper's Fig. 6 assumes both exist).
    """
    _check_theta(theta)
    require(n_files >= 2, f"READ needs at least 2 files, got {n_files}")
    count = int(round((1.0 - theta) * n_files))
    return min(max(count, 1), n_files - 1)


def popular_unpopular_ratio_delta(theta: float) -> float:
    """Eq. 4: ``delta = (1 - theta) / theta``."""
    _check_theta(theta)
    return (1.0 - theta) / theta


@dataclass(frozen=True, slots=True)
class PopularitySplit:
    """The popular/unpopular partition of the file population.

    ``popular_ids`` are ordered most-popular-first; ``unpopular_ids``
    continue the same ranking.  Together they are a permutation of
    ``0..m-1``.
    """

    popular_ids: np.ndarray
    unpopular_ids: np.ndarray
    theta: float

    @property
    def n_files(self) -> int:
        """Total population size."""
        return int(self.popular_ids.size + self.unpopular_ids.size)


def split_by_popularity(ranking: np.ndarray, theta: float) -> PopularitySplit:
    """Split a most-popular-first ``ranking`` of file ids at ``|Fp|``.

    ``ranking`` is any permutation of file ids ordered by (estimated or
    measured) popularity — size order for READ's first round, FPT counts
    afterwards (Fig. 6, lines 5 and 10).
    """
    ids = np.asarray(ranking, dtype=np.int64)
    require(ids.ndim == 1 and ids.size >= 2, "ranking must be 1-D with >= 2 files")
    sorted_ids = np.sort(ids)
    require(bool(np.array_equal(sorted_ids, np.arange(ids.size))),
            "ranking must be a permutation of 0..m-1")
    n_pop = popular_file_count(theta, ids.size)
    return PopularitySplit(popular_ids=ids[:n_pop].copy(),
                           unpopular_ids=ids[n_pop:].copy(),
                           theta=float(theta))


def estimate_file_loads(sizes_mb: np.ndarray, ranking: np.ndarray, *,
                        zipf_alpha: float = 0.8,
                        counts: np.ndarray | None = None) -> np.ndarray:
    """Per-file load ``h_i = lambda_i * s_i`` indexed by file id.

    With observed ``counts`` (FPT), the access rate is the count itself
    (loads are only ever used in ratios, so the epoch length cancels).
    Without counts — READ's first round — rates are *assumed* Zipf over
    the provided ranking with exponent ``zipf_alpha``, implementing the
    paper's "popularity ... is inversely correlated to its size"
    bootstrap.
    """
    sizes = np.asarray(sizes_mb, dtype=np.float64)
    ids = np.asarray(ranking, dtype=np.int64)
    require(sizes.ndim == 1 and sizes.size == ids.size,
            "sizes and ranking must be 1-D with equal length")
    if counts is not None:
        rates = np.asarray(counts, dtype=np.float64)
        require(rates.size == sizes.size, "counts length must match sizes")
        require(bool(np.all(rates >= 0)), "counts must be non-negative")
        return rates * sizes
    probs = zipf_probabilities(ids.size, zipf_alpha)
    rates = np.empty(ids.size, dtype=np.float64)
    rates[ids] = probs  # rank r gets probability of rank r
    return rates * sizes


def zone_load_ratio_gamma(split: PopularitySplit, loads: np.ndarray) -> float:
    """Eq. 5: the hot/cold disk-count ratio gamma.

    ``loads`` is indexed by file id (see :func:`estimate_file_loads`).
    Degenerate workloads are clamped rather than raised: zero unpopular
    load yields a large-but-finite gamma (every disk but one hot), zero
    popular load a small-but-positive one.
    """
    h = np.asarray(loads, dtype=np.float64)
    require(h.size == split.n_files, "loads length must match the split population")
    require(bool(np.all(h >= 0)), "loads must be non-negative")
    popular_load = float(h[split.popular_ids].sum())
    unpopular_load = float(h[split.unpopular_ids].sum())
    prefactor = popular_unpopular_ratio_delta(split.theta)
    if unpopular_load <= 0.0:
        return 1e6
    if popular_load <= 0.0:
        return 1e-6
    return prefactor * popular_load / unpopular_load
