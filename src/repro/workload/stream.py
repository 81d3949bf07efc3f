"""Constant-memory streaming workloads (chunked request generation).

Every sweep used to materialize its full request list before simulating —
two float64/int64 arrays per trace, ~16 bytes a request, which caps the
reachable scale by memory long before by simulation time.  This module converts
workload generation to *chunked iteration*: a stream yields
:class:`TraceChunk` blocks whose concatenation is bit-identical to the
materialized :class:`~repro.workload.trace.Trace`, while peak state is
one chunk plus the bounded popularity tables.

:class:`SyntheticStream` is the chunked twin of
:class:`~repro.workload.synthetic.WorldCupLikeWorkload`.  Bit-identity
with the batch path rests on three properties, each pinned by a
hypothesis test in ``tests/workload/test_stream.py``:

1. *RNG prefix stability*: ``Generator.exponential``/``random`` drawn
   in consecutive slices produce the same values as one large draw, so
   chunked arrival/rank sampling consumes the identical bitstream.
   Bursty runs additionally clamp run lengths against the *global*
   request count (:func:`~repro.workload.arrival.onoff_bursty_gap_runs`).
2. *cumsum carry*: ``np.cumsum`` accumulates sequentially, so adding
   the running total into the first gap of each chunk **before** the
   chunk-local cumsum reproduces the batch float-op grouping exactly.
3. *RNG pre-pass*: the batch path draws all arrivals, then all ranks,
   from one generator.  The stream clones the seed and runs the
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
from repro.workload.zipf import zipf_cdf

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "TraceChunk",
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


@dataclass(frozen=True, slots=True)
class TraceChunk:
    """One block of a streamed trace: absolute times + dense file ids.

    Chunks carry *absolute* arrival times (the stream owns the cumsum
    carry), so consumers never need to re-base; concatenating the fields
    of every chunk reproduces ``Trace.times_s`` / ``Trace.file_ids``.
    """

    times_s: np.ndarray
    file_ids: np.ndarray

    def __len__(self) -> int:
        return self.times_s.size


# ----------------------------------------------------------------------
# synthetic stream
# ----------------------------------------------------------------------
def _gap_runs(cfg: SyntheticWorkloadConfig, rng: np.random.Generator,
              chunk_size: int) -> Iterator[np.ndarray]:
    """Inter-arrival gaps in generation order, bounded-memory.

    Consumes ``rng`` exactly as the batch arrival samplers do (same
    draws, same order), which is what lets a second pass over this
    generator position the rank RNG.
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
    """Reassemble arbitrarily-sized runs into owned ``chunk_size`` blocks."""
    buf: list[np.ndarray] = []
    have = 0
    for arr in runs:
        buf.append(arr)
        have += arr.size
        while have >= chunk_size:
            out = np.empty(chunk_size, dtype=np.float64)
            filled = 0
            while filled < chunk_size:
                head = buf[0]
                take = min(head.size, chunk_size - filled)
                out[filled:filled + take] = head[:take]
                if take == head.size:
                    buf.pop(0)
                else:
                    buf[0] = head[take:]
                filled += take
            have -= chunk_size
            yield out
    if have:
        out = np.empty(have, dtype=np.float64)
        filled = 0
        for head in buf:
            out[filled:filled + head.size] = head
            filled += head.size
        yield out


class SyntheticStream:
    """Chunked twin of :class:`WorldCupLikeWorkload` — bit-identical output.

    ``materialize(SyntheticStream(cfg))`` equals
    ``WorldCupLikeWorkload(cfg).generate()`` array-for-array for every
    config and every chunk size; peak per-request state is one chunk.
    The popularity tables (drift orders, Zipf CDF) are O(n_files *
    drift_segments) and built once per ``chunks()`` call.
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

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[TraceChunk]:
        require(chunk_size >= 1, f"chunk_size must be >= 1, got {chunk_size}")
        cfg = self.config
        fileset = self.fileset
        orders = self._workload.drifted_orders(fileset)
        bounds = np.linspace(0, cfg.n_requests, len(orders) + 1).astype(np.int64)
        cdf = zipf_cdf(len(fileset), cfg.zipf_alpha)

        # rank RNG pre-pass: replay the arrival draws (discarded) so the
        # generator sits exactly where the batch path's sits when it
        # starts sampling ranks
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

            u = rng_ranks.random(n)
            ranks = np.searchsorted(cdf, u, side="right").astype(np.int64)
            file_ids = np.empty(n, dtype=np.int64)
            pos = start
            while pos < start + n:
                seg = int(np.searchsorted(bounds, pos, side="right")) - 1
                hi = min(int(bounds[seg + 1]), start + n)
                sl = slice(pos - start, hi - start)
                file_ids[sl] = orders[seg][ranks[sl]]
                pos = hi
            start += n
            yield TraceChunk(times, file_ids)


# ----------------------------------------------------------------------
# specs: the picklable handles the experiment layer passes around
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SyntheticStreamSpec:
    """Streamed form of a synthetic workload config.

    Carries no realized arrays; :func:`open_stream` builds the
    generator.  Its cache digest is defined to equal ``workload_key(config)`` so the
    streamed and materialized forms share one cache entry (they produce
    bit-identical traces).
    """

    config: SyntheticWorkloadConfig


WorkloadLike = Union[SyntheticWorkloadConfig, SyntheticStreamSpec]


def open_stream(workload: WorkloadLike) -> SyntheticStream:
    """The :class:`SyntheticStream` of a config or spec."""
    if isinstance(workload, SyntheticStreamSpec):
        return SyntheticStream(workload.config)
    return SyntheticStream(workload)


def materialize(workload: WorkloadLike,
                chunk_size: int = DEFAULT_CHUNK_SIZE) -> tuple[FileSet, Trace]:
    """Drain a stream into a realized ``(FileSet, Trace)`` pair.

    The bridge for consumers that need whole arrays (the workload cache
    when handed a spec, tests); by the stream contract the result is
    bit-identical to :meth:`WorldCupLikeWorkload.generate`.
    """
    stream = open_stream(workload)
    times: list[np.ndarray] = []
    ids: list[np.ndarray] = []
    for chunk in stream.chunks(chunk_size):
        times.append(chunk.times_s)
        ids.append(chunk.file_ids)
    times_all = (np.concatenate(times) if times
                 else np.empty(0, dtype=np.float64))
    ids_all = (np.concatenate(ids) if ids
               else np.empty(0, dtype=np.int64))
    return stream.fileset, Trace(times_all, ids_all)
