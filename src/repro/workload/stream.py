"""The one synthetic trace sampler: chunked request generation.

:class:`SyntheticStream` is the only code that draws a synthetic trace's
arrivals and popularity ranks.  It yields ``(times, ids)`` chunks: the
absolute arrival times (float64) and dense file ids (int64) of
consecutive requests, so peak per-request state is one chunk plus the
bounded popularity tables.  :func:`materialize` fills a whole
:class:`~repro.workload.trace.Trace` from those chunks; streaming
consumers (shard sub-cells) take them one at a time.

The chunk size is buffering, never data: any chunking concatenates to
the same arrays, bit for bit.  Three properties hold that, and
``tests/workload/test_stream.py`` checks the result with hypothesis
(every chunk size equals one whole-trace chunk) and pins the bits of a
Poisson and a bursty trace by sha256:

1. *RNG prefix stability*: ``Generator.exponential``/``random`` drawn
   in consecutive slices produce the same values as one large draw, so
   every chunking consumes the identical bitstream.  Bursty runs clamp
   their lengths against the *total* request count
   (:func:`~repro.workload.arrival.onoff_bursty_gap_runs`), never
   against a chunk.
2. *cumsum carry*: ``np.cumsum`` accumulates sequentially, so adding
   the running total into the first gap of each chunk **before** the
   chunk-local cumsum takes the same float additions, in the same
   order, as one cumsum over the whole trace.
3. *Fixed draw order*: one generator (seeded ``seed + 2``) draws all
   arrivals, then all ranks.  The stream clones the seed and runs the
   arrival draws to exhaustion (discarding them) to position the rank
   generator, trading one cheap extra pass for O(chunk) memory.

The frozen :class:`SyntheticStreamSpec` is the picklable, digestible
handle the experiment layer passes around in place of realized arrays;
the workload cache keys it on its config's content (chunk size never
enters the digest — see ``repro.workload.cache``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from repro.util.rngtools import rng_from
from repro.util.validation import require
from repro.workload.arrival import onoff_bursty_gap_runs
from repro.workload.files import FileSet
from repro.workload.synthetic import SyntheticWorkloadConfig, WorldCupLikeWorkload
from repro.workload.trace import Trace
from repro.workload.zipf import zipf_sample_ranks

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Chunk",
    "SyntheticStream",
    "SyntheticStreamSpec",
    "WorkloadLike",
    "open_stream",
    "materialize",
]

#: Requests per yielded chunk (~1 MB of trace arrays) — the default for
#: every streaming consumer; any value produces the same concatenated
#: trace, this one just balances numpy efficiency against peak RSS.
DEFAULT_CHUNK_SIZE = 65_536

#: One chunk of arrivals: request times (float64) and file ids (int64),
#: as equal-length numpy arrays.
Chunk = tuple[np.ndarray, np.ndarray]


# ----------------------------------------------------------------------
# synthetic stream
# ----------------------------------------------------------------------
def _gap_runs(cfg: SyntheticWorkloadConfig, rng: np.random.Generator,
              chunk_size: int) -> Iterator[np.ndarray]:
    """Inter-arrival gaps in generation order, bounded-memory.

    Consumes ``rng`` identically whatever ``chunk_size`` is, which is
    what lets a second pass over this generator position the rank RNG.
    """
    n = cfg.n_requests
    if cfg.bursty:
        yield from onoff_bursty_gap_runs(n, cfg.mean_interarrival_s, seed=rng)
        return
    i = 0
    while i < n:
        take = min(chunk_size, n - i)
        yield rng.exponential(cfg.mean_interarrival_s, size=take)
        i += take


def _rechunk(runs: Iterable[np.ndarray], chunk_size: int) -> Iterator[np.ndarray]:
    """Reassemble arbitrarily-sized runs into ``chunk_size`` blocks (the
    last one shorter): non-overlapping slices of freshly joined memory,
    which the caller may modify."""
    buf: list[np.ndarray] = []
    have = 0
    for arr in runs:
        buf.append(arr)
        have += arr.size
        if have >= chunk_size:
            joined = np.concatenate(buf)
            stop = have - have % chunk_size
            for lo in range(0, stop, chunk_size):
                yield joined[lo:lo + chunk_size]
            buf = [joined[stop:]]
            have -= stop
    if have:
        yield np.concatenate(buf)


class SyntheticStream:
    """The request stream of a :class:`SyntheticWorkloadConfig`, in chunks.

    ``fileset`` is built once; every ``chunks()`` call replays the same
    stream from the start.  The popularity tables (drift orders) are
    O(n_files * drift_segments) and built once per ``chunks()`` call.
    """

    def __init__(self, config: SyntheticWorkloadConfig) -> None:
        self.config = config
        self._workload = WorldCupLikeWorkload(config)
        self._fileset: FileSet | None = None

    @property
    def fileset(self) -> FileSet:
        if self._fileset is None:
            self._fileset = self._workload.build_fileset()
        return self._fileset

    @property
    def n_requests(self) -> int:
        return self.config.n_requests

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[Chunk]:
        """Yield ``(times, ids)`` chunks of ``chunk_size`` requests (the
        last one shorter), with absolute arrival times."""
        require(chunk_size >= 1, f"chunk_size must be >= 1, got {chunk_size}")
        cfg = self.config
        n_files = len(self.fileset)
        orders = self._workload.drifted_orders(self.fileset)
        bounds = np.linspace(0, cfg.n_requests, len(orders) + 1).astype(np.int64)

        # rank RNG pre-pass: replay the arrival draws (discarded) so the
        # rank generator starts where the last arrival draw left it
        rng_ranks = rng_from(cfg.seed + 2)
        for _ in _gap_runs(cfg, rng_ranks, chunk_size):
            pass

        rng_arrivals = rng_from(cfg.seed + 2)
        carry = 0.0
        start = 0
        for chunk_gaps in _rechunk(_gap_runs(cfg, rng_arrivals, chunk_size),
                                   chunk_size):
            n = chunk_gaps.size
            # fold the running total into the first gap *before* the
            # chunk-local cumsum: the accumulator then takes the same
            # float additions, in the same order, as one global cumsum
            chunk_gaps[0] += carry
            times = np.cumsum(chunk_gaps)
            carry = float(times[-1])

            ranks = zipf_sample_ranks(n_files, cfg.zipf_alpha, n, seed=rng_ranks)
            file_ids = np.empty(n, dtype=np.int64)
            pos = start
            while pos < start + n:
                seg = int(np.searchsorted(bounds, pos, side="right")) - 1
                hi = min(int(bounds[seg + 1]), start + n)
                sl = slice(pos - start, hi - start)
                file_ids[sl] = orders[seg][ranks[sl]]
                pos = hi
            start += n
            yield times, file_ids


# ----------------------------------------------------------------------
# specs: the picklable handles the experiment layer passes around
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SyntheticStreamSpec:
    """Streamed form of a synthetic workload config.

    Carries no realized arrays; :func:`open_stream` builds the
    generator.  Its cache digest is defined to equal
    ``workload_key(config)``: a spec and its config name the same trace,
    so they share one cache entry.
    """

    config: SyntheticWorkloadConfig


WorkloadLike = Union[SyntheticWorkloadConfig, SyntheticStreamSpec]


def open_stream(workload: WorkloadLike) -> SyntheticStream:
    """The :class:`SyntheticStream` of a config or spec."""
    if isinstance(workload, SyntheticStreamSpec):
        return SyntheticStream(workload.config)
    return SyntheticStream(workload)


def materialize(workload: WorkloadLike) -> tuple[FileSet, Trace]:
    """Realize a workload as a ``(FileSet, Trace)`` pair.

    The one way to build a whole synthetic trace: the two trace arrays
    are allocated once and filled chunk by chunk from the stream.
    """
    stream = open_stream(workload)
    times = np.empty(stream.n_requests, dtype=np.float64)
    ids = np.empty(stream.n_requests, dtype=np.int64)
    start = 0
    for chunk_times, chunk_ids in stream.chunks():
        stop = start + chunk_times.size
        times[start:stop] = chunk_times
        ids[start:stop] = chunk_ids
        start = stop
    return stream.fileset, Trace(times, ids)
