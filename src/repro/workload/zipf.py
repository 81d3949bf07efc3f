"""Zipf-like popularity: sampling, measurement, and the paper's skew parameter.

The paper (Sec. 4) assumes web requests follow a Zipf-like law: the
relative probability of a request for the *i*-th most popular file is
proportional to ``1 / i**alpha`` with ``alpha`` in ``[0, 1]``.

It additionally summarizes a workload with a single *skew parameter*

    theta = log(A) / log(B)   (logs "base 100")

"where A percent of all accesses are directed to B percent of files",
and sets the popular-file count to ``|Fp| = (1 - theta) * m``.

Read with A, B as raw percentages that formula yields theta > 1 whenever
A > B (always true for a skewed workload) and hence a *negative* popular
file count — clearly not intended.  Read with A, B as fractions of 1
(equivalently: both logs taken after dividing by 100, which is the only
sense in which "base 100" produces a normalized quantity) it yields
``theta = ln(A/100) / ln(B/100)`` in ``(0, 1]``, with theta == 1 exactly
for a uniform workload (A == B) and theta -> 0 as skew grows.  That is
the reading implemented here; see DESIGN.md "Known internal
inconsistencies", item 3.
"""

from __future__ import annotations

import numpy as np

from repro.util.rngtools import SeedLike, rng_from
from repro.util.validation import require, require_in_range

__all__ = [
    "zipf_probabilities",
    "zipf_sample_ranks",
    "measure_access_skew",
    "skew_theta",
    "theta_from_counts",
    "fit_zipf_alpha",
]


def zipf_probabilities(n: int, alpha: float) -> np.ndarray:
    """Probability vector of a Zipf-like law over ranks ``1..n``.

    ``p[i] ∝ 1 / (i+1)**alpha`` (0-indexed array, rank 1 at index 0).
    ``alpha = 0`` is uniform; ``alpha = 1`` is classic Zipf.  Values
    outside ``[0, 1]`` are accepted (the generator is more general than
    the paper needs) but must be finite and non-negative.
    """
    require(n >= 1, f"n must be >= 1, got {n}")
    require_in_range(alpha, 0.0, 10.0, "alpha")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-alpha
    return weights / weights.sum()


def zipf_sample_ranks(n_files: int, alpha: float, n_samples: int,
                      seed: SeedLike = None) -> np.ndarray:
    """Draw ``n_samples`` popularity *ranks* (0-indexed) i.i.d. from a Zipf law.

    Uses inverse-CDF sampling on the exact finite distribution (not the
    unbounded ``numpy.random.zipf``, whose support is infinite and whose
    exponent must exceed 1).  Vectorized: one ``searchsorted`` over all
    samples.  The CDF's final entry is clamped to exactly 1.0 so float
    round-off never excludes the last rank.
    """
    require(n_samples >= 0, f"n_samples must be >= 0, got {n_samples}")
    cdf = np.cumsum(zipf_probabilities(n_files, alpha))
    cdf[-1] = 1.0
    rng = rng_from(seed)
    u = rng.random(n_samples)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def measure_access_skew(access_counts: np.ndarray, top_fraction: float = 0.2) -> float:
    """Fraction of accesses that hit the ``top_fraction`` most-accessed files.

    This is the empirical "A" of the paper's A/B rule for B =
    ``top_fraction`` (e.g. ``top_fraction=0.2`` asks the 80/20 question).
    Returns a fraction in [0, 1].  Ties are broken by taking the largest
    counts first, so the result is the maximal such fraction.
    """
    counts = np.asarray(access_counts, dtype=np.float64)
    require(counts.ndim == 1 and counts.size >= 1, "access_counts must be a non-empty 1-D array")
    require(np.all(counts >= 0), "access_counts must be non-negative")
    require_in_range(top_fraction, 0.0, 1.0, "top_fraction")
    total = counts.sum()
    if total == 0:
        return 0.0
    k = max(1, int(round(top_fraction * counts.size)))
    # partial selection of the k largest counts; O(n) vs O(n log n) full sort
    top = np.partition(counts, counts.size - k)[counts.size - k:]
    return float(top.sum() / total)


def skew_theta(accesses_percent: float, files_percent: float) -> float:
    """The paper's skew parameter theta = ln(A/100) / ln(B/100).

    Parameters are percentages: ``accesses_percent`` (A) of all accesses
    go to the ``files_percent`` (B) most popular files.  Returns theta in
    (0, 1]; theta == 1 for a uniform workload (A == B), smaller for more
    skew.  A must be >= B (the top B% of files receive at least their
    proportional share by definition).
    """
    a = require_in_range(accesses_percent, 1e-9, 100.0, "accesses_percent") / 100.0
    b = require_in_range(files_percent, 1e-9, 100.0, "files_percent") / 100.0
    require(a >= b, f"accesses_percent ({accesses_percent}) must be >= files_percent ({files_percent})")
    if a >= 1.0 - 1e-12:
        # log(1) == 0: all accesses in the top B% -> maximal skew
        return 0.0 if b < 1.0 - 1e-12 else 1.0
    return float(np.log(a) / np.log(b))


def theta_from_counts(access_counts: np.ndarray, top_fraction: float = 0.2) -> float:
    """Estimate theta directly from observed access counts.

    Measures A empirically for B = ``top_fraction`` and applies
    :func:`skew_theta`.  This is what READ's epoch re-estimation
    (Fig. 6, line 11 "Re-calculate the skew parameter theta") uses.
    """
    a_fraction = measure_access_skew(access_counts, top_fraction)
    if a_fraction <= 0.0:
        return 1.0  # no accesses observed: treat as uniform (no skew evidence)
    a_pct = max(a_fraction * 100.0, top_fraction * 100.0)  # enforce A >= B
    return skew_theta(a_pct, top_fraction * 100.0)


def fit_zipf_alpha(access_counts: np.ndarray) -> float:
    """Least-squares fit of the Zipf exponent alpha from access counts.

    Sorts counts into rank order and regresses ``log(count)`` on
    ``log(rank)``; the slope's negation is alpha.  Zero counts are
    excluded (log undefined); needs at least two distinct non-zero ranks.
    """
    counts = np.sort(np.asarray(access_counts, dtype=np.float64))[::-1]
    counts = counts[counts > 0]
    require(counts.size >= 2, "need at least two non-zero access counts to fit alpha")
    ranks = np.arange(1, counts.size + 1, dtype=np.float64)
    slope, _intercept = np.polyfit(np.log(ranks), np.log(counts), 1)
    return float(max(0.0, -slope))
