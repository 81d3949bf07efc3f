"""Streaming workload generation: one sampler, chunk-size invariant.

``SyntheticStream.chunks`` is the only sampler of a synthetic trace, so
its bits are pinned two ways: a sha256 of ``materialize``'s arrays for a
Poisson and a bursty config (recorded when a separate batch sampler
still produced them), and hypothesis over the generator's parameter
space showing that any chunking concatenates to one whole-trace chunk.
The cache-key contract is pinned too: a workload's digest is a function
of its spec, never of how it was buffered.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.cache import workload_key
from repro.workload.stream import (
    DEFAULT_CHUNK_SIZE,
    SyntheticStream,
    SyntheticStreamSpec,
    materialize,
    open_stream,
)
from repro.workload.synthetic import SyntheticWorkloadConfig


def concatenated(cfg, chunk_size):
    """The ``(times, ids)`` arrays of every ``chunk_size`` chunk, joined."""
    chunks = list(SyntheticStream(cfg).chunks(chunk_size))
    return (np.concatenate([t for t, _ in chunks]),
            np.concatenate([f for _, f in chunks]))


def assert_chunks_identical(a, b):
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


# ----------------------------------------------------------------------
# synthetic streams: pinned bits, and hypothesis over the parameter space
# ----------------------------------------------------------------------
class TestSyntheticStreamEquivalence:
    @pytest.mark.parametrize("bursty, sha256", [
        (False, "1af5f8b0ff90a8540f273273f13f795ddd660c3bf268050c4aa31df9880ff504"),
        (True, "28df8fdb581b3b5a800fa815fa64bd8e45a079eb2b189b1255c16627a04b8a80"),
    ])
    def test_materialized_trace_bits_are_pinned(self, bursty, sha256):
        cfg = SyntheticWorkloadConfig(n_files=300, n_requests=20_000, seed=11,
                                      bursty=bursty)
        fileset, trace = materialize(cfg)
        digest = hashlib.sha256()
        for arr in (fileset.sizes_mb, trace.times_s, trace.file_ids):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == sha256

    @given(
        n_requests=st.integers(1, 3_000),
        chunk_size=st.integers(1, 4_096),
        seed=st.integers(0, 2**31 - 1),
        bursty=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_chunking_equals_one_whole_chunk(self, n_requests,
                                                 chunk_size, seed, bursty):
        cfg = SyntheticWorkloadConfig(n_files=40, n_requests=n_requests,
                                      seed=seed, bursty=bursty)
        [whole] = SyntheticStream(cfg).chunks(n_requests)
        assert_chunks_identical(concatenated(cfg, chunk_size), whole)

    @given(chunk_a=st.integers(1, 997), chunk_b=st.integers(1, 997))
    @settings(max_examples=20, deadline=None)
    def test_chunk_size_never_changes_the_stream(self, chunk_a, chunk_b):
        cfg = SyntheticWorkloadConfig(n_files=30, n_requests=1_500, seed=5,
                                      bursty=True)
        assert_chunks_identical(concatenated(cfg, chunk_a),
                                concatenated(cfg, chunk_b))

    def test_chunks_partition_the_request_count(self):
        cfg = SyntheticWorkloadConfig(n_files=20, n_requests=1_000, seed=9)
        stream = SyntheticStream(cfg)
        lengths = [times.size for times, _ in stream.chunks(333)]
        assert sum(lengths) == cfg.n_requests
        assert all(n == 333 for n in lengths[:-1])
        assert stream.n_requests == cfg.n_requests

    def test_times_are_globally_nondecreasing_across_chunks(self):
        cfg = SyntheticWorkloadConfig(n_files=20, n_requests=2_000, seed=13,
                                      bursty=True)
        last = -np.inf
        for times, _ in SyntheticStream(cfg).chunks(101):
            assert times[0] >= last
            assert np.all(np.diff(times) >= 0)
            last = times[-1]

    def test_bad_chunk_size_rejected(self):
        cfg = SyntheticWorkloadConfig(n_files=10, n_requests=100, seed=1)
        with pytest.raises(ValueError):
            next(SyntheticStream(cfg).chunks(0))

    def test_open_stream_coerces_all_forms(self):
        cfg = SyntheticWorkloadConfig(n_files=10, n_requests=100, seed=1)
        from_cfg = open_stream(cfg)
        from_spec = open_stream(SyntheticStreamSpec(cfg))
        assert isinstance(from_cfg, SyntheticStream)
        assert isinstance(from_spec, SyntheticStream)
        assert from_cfg.config == from_spec.config == cfg


# ----------------------------------------------------------------------
# cache keying: the digest is spec-derived, buffering-independent
# ----------------------------------------------------------------------
class TestStreamCacheKeys:
    def test_stream_spec_shares_the_config_digest(self):
        cfg = SyntheticWorkloadConfig(n_files=25, n_requests=500, seed=3)
        assert workload_key(SyntheticStreamSpec(cfg)) == workload_key(cfg)

    def test_digest_has_no_chunk_size_input(self):
        # the key API takes no buffering parameters at all: whatever
        # chunk size later drains the stream, the cache entry is shared
        cfg = SyntheticWorkloadConfig(n_files=25, n_requests=500, seed=3)
        key = workload_key(cfg)
        for chunk_size in (1, 97, DEFAULT_CHUNK_SIZE):
            for _ in SyntheticStream(cfg).chunks(chunk_size):
                pass
            assert workload_key(cfg) == key
