"""Workload substrate: files, popularity, arrivals, traces.

The paper evaluates READ/MAID/PDC with a trace-driven simulation over the
WorldCup98 web trace (Sec. 5.1).  This package provides everything needed
to either *replay* that trace (a reader for the real WC98 binary record
format, :mod:`repro.workload.wc98`) or *synthesize* a statistically
equivalent one (:mod:`repro.workload.synthetic`): Zipf-like popularity
with tunable skew, heavy-tailed web file sizes, and Poisson or bursty
arrival processes.  One sampler draws every synthetic trace:
:class:`~repro.workload.stream.SyntheticStream` yields it in chunks, and
:func:`~repro.workload.stream.materialize` fills a whole trace from
those chunks.  Any chunk size gives the same bits.

All downstream consumers see only :class:`~repro.workload.trace.Trace`
(arrival times + file ids) plus a :class:`~repro.workload.files.FileSet`
(sizes), which is exactly the information the paper's algorithms use.
"""

from repro.workload.request import FileSpec, Request
from repro.workload.files import FileSet, lognormal_web_sizes, pareto_web_sizes
from repro.workload.zipf import (
    zipf_probabilities,
    zipf_sample_ranks,
    measure_access_skew,
    skew_theta,
    fit_zipf_alpha,
)
from repro.workload.arrival import diurnal_poisson_arrivals
from repro.workload.trace import Trace, TraceStats
from repro.workload.synthetic import SyntheticWorkloadConfig, WorldCupLikeWorkload
from repro.workload.cache import (
    WorkloadCache,
    cached_generate,
    default_cache,
    workload_key,
)
from repro.workload.wc98 import WC98Record, read_wc98, write_wc98, wc98_to_trace
from repro.workload.analysis import (
    TraceAnalysis,
    analyze_trace,
    index_of_dispersion,
    popularity_churn,
    windowed_request_counts,
    working_set_sizes,
)

__all__ = [
    "FileSpec",
    "Request",
    "FileSet",
    "lognormal_web_sizes",
    "pareto_web_sizes",
    "zipf_probabilities",
    "zipf_sample_ranks",
    "measure_access_skew",
    "skew_theta",
    "fit_zipf_alpha",
    "diurnal_poisson_arrivals",
    "Trace",
    "TraceStats",
    "SyntheticWorkloadConfig",
    "WorldCupLikeWorkload",
    "WorkloadCache",
    "cached_generate",
    "default_cache",
    "workload_key",
    "WC98Record",
    "read_wc98",
    "write_wc98",
    "wc98_to_trace",
    "TraceAnalysis",
    "analyze_trace",
    "index_of_dispersion",
    "popularity_churn",
    "windowed_request_counts",
    "working_set_sizes",
]
