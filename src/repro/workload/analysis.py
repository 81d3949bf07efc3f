"""Windowed trace analysis: the workload properties the policies feel.

The evaluation's dynamics hinge on workload features a whole-trace
summary hides: burstiness (drives idleness-threshold churn), popularity
churn between windows (drives MAID misses and PDC/READ migrations), and
working-set size (drives cache sizing).  This module computes them per
window, so an experimenter can *measure* whether a trace sits in the
regime a policy was tuned for.

All functions take the window length in seconds and operate on the
numpy arrays inside :class:`~repro.workload.trace.Trace` — no Python
loops over requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require, require_positive
from repro.workload.trace import Trace

__all__ = [
    "windowed_request_counts",
    "index_of_dispersion",
    "working_set_sizes",
    "popularity_churn",
    "TraceAnalysis",
    "analyze_trace",
]


def _window_index(trace: Trace, window_s: float) -> tuple[np.ndarray, int]:
    require_positive(window_s, "window_s")
    require(len(trace) >= 1, "empty trace")
    idx = np.floor_divide(trace.times_s, window_s).astype(np.int64)
    n_windows = int(idx[-1]) + 1
    return idx, n_windows


def windowed_request_counts(trace: Trace, window_s: float) -> np.ndarray:
    """Requests per window (length = ceil(duration / window))."""
    idx, n_windows = _window_index(trace, window_s)
    return np.bincount(idx, minlength=n_windows).astype(np.int64)


def index_of_dispersion(trace: Trace, window_s: float) -> float:
    """Variance-to-mean ratio of windowed counts.

    1.0 for a Poisson process; substantially above 1 means bursty — the
    regime where spin-down policies pay transition costs (Sec. 5.2's
    "idle time is not long enough to compensate" effect).  The trailing
    window is dropped when partial (it is systematically under-filled
    and would inflate the variance of any process).
    """
    counts = windowed_request_counts(trace, window_s)
    n_full = int(trace.duration_s // window_s)  # windows fully covered
    if 2 <= n_full < counts.size:
        counts = counts[:n_full]
    require(counts.size >= 2, "need at least 2 full windows for dispersion")
    mean = counts.mean()
    require(mean > 0, "trace has no requests in the analysis horizon")
    return float(counts.var() / mean)


def working_set_sizes(trace: Trace, window_s: float) -> np.ndarray:
    """Distinct files touched per window."""
    idx, n_windows = _window_index(trace, window_s)
    out = np.zeros(n_windows, dtype=np.int64)
    # unique (window, file) pairs, counted per window
    pairs = np.unique(np.stack([idx, trace.file_ids]), axis=1)
    np.add.at(out, pairs[0], 1)
    return out


def popularity_churn(trace: Trace, n_files: int, window_s: float, *,
                     top_k: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """How much the popularity ranking moves between adjacent windows.

    Returns two arrays of length ``n_windows - 1``:

    * Spearman rank correlation of the full per-file count vectors
      (1.0 = static popularity, toward 0 = reshuffled);
    * Jaccard overlap of the top-``top_k`` sets (what a cache or a hot
      zone actually keys on).
    """
    # scipy.stats costs over a second to import and nothing on the
    # simulation path needs it, so only trace analysis pays for it
    from scipy import stats as sstats

    require(n_files >= 1, "n_files must be >= 1")
    require(top_k >= 1, "top_k must be >= 1")
    idx, n_windows = _window_index(trace, window_s)
    require(n_windows >= 2, "need at least 2 windows for churn")
    counts = np.zeros((n_windows, n_files), dtype=np.int64)
    np.add.at(counts, (idx, trace.file_ids), 1)

    spearman = np.empty(n_windows - 1, dtype=np.float64)
    jaccard = np.empty(n_windows - 1, dtype=np.float64)
    k = min(top_k, n_files)
    for w in range(n_windows - 1):
        a, b = counts[w], counts[w + 1]
        if a.sum() == 0 or b.sum() == 0:
            spearman[w] = 0.0
            jaccard[w] = 0.0
            continue
        rho = sstats.spearmanr(a, b).statistic
        spearman[w] = 0.0 if np.isnan(rho) else float(rho)
        jaccard[w] = _topk_jaccard(a, b, k)
    return spearman, jaccard


def _topk_set(counts: np.ndarray, k: int) -> set[int]:
    order = np.argsort(-counts, kind="stable")[:k]
    return {int(f) for f in order if counts[f] > 0}


def _topk_jaccard(a: np.ndarray, b: np.ndarray, k: int) -> float:
    top_a, top_b = _topk_set(a, k), _topk_set(b, k)
    union = top_a | top_b
    return len(top_a & top_b) / len(union) if union else 0.0


@dataclass(frozen=True, slots=True)
class TraceAnalysis:
    """Windowed-analysis summary of one trace."""

    window_s: float
    n_windows: int
    mean_rate_per_s: float
    index_of_dispersion: float
    mean_working_set: float
    max_working_set: int
    mean_rank_correlation: float
    mean_topk_jaccard: float


def analyze_trace(trace: Trace, n_files: int, *, window_s: float = 300.0,
                  top_k: int = 50) -> TraceAnalysis:
    """One-call windowed characterization (used by examples and the CLI)."""
    counts = windowed_request_counts(trace, window_s)
    ws = working_set_sizes(trace, window_s)
    if counts.size >= 2:
        spearman, jaccard = popularity_churn(trace, n_files, window_s, top_k=top_k)
        rho = float(spearman.mean())
        jac = float(jaccard.mean())
        iod = index_of_dispersion(trace, window_s)
    else:
        rho, jac, iod = 1.0, 1.0, 1.0
    return TraceAnalysis(
        window_s=window_s,
        n_windows=int(counts.size),
        mean_rate_per_s=float(counts.sum() / (counts.size * window_s)),
        index_of_dispersion=iod,
        mean_working_set=float(ws.mean()),
        max_working_set=int(ws.max()),
        mean_rank_correlation=rho,
        mean_topk_jaccard=jac,
    )
