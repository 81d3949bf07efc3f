"""Streaming workload generation: chunked == materialized, bit for bit.

The streaming layer's whole contract is that chunked generation is a
pure re-buffering of the batch generators — same RNG draws, same
arithmetic, same arrays — for *any* chunk size.  These tests pin that
with hypothesis over the synthetic generator's parameter space and pin
the cache-key contract: a workload's digest is a function of its spec,
never of how it was buffered.
"""

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
from repro.workload.synthetic import SyntheticWorkloadConfig, WorldCupLikeWorkload


def assert_traces_identical(a, b):
    """Bit-exact equality of two (FileSet, Trace) pairs."""
    fs_a, tr_a = a
    fs_b, tr_b = b
    np.testing.assert_array_equal(fs_a.sizes_mb, fs_b.sizes_mb)
    np.testing.assert_array_equal(tr_a.times_s, tr_b.times_s)
    np.testing.assert_array_equal(tr_a.file_ids, tr_b.file_ids)


# ----------------------------------------------------------------------
# synthetic streams: hypothesis over the generator's parameter space
# ----------------------------------------------------------------------
class TestSyntheticStreamEquivalence:
    @given(
        n_requests=st.integers(1, 3_000),
        chunk_size=st.integers(1, 4_096),
        seed=st.integers(0, 2**31 - 1),
        bursty=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_equals_materialized_generation(self, n_requests,
                                                    chunk_size, seed, bursty):
        cfg = SyntheticWorkloadConfig(n_files=40, n_requests=n_requests,
                                      seed=seed, bursty=bursty)
        batch = WorldCupLikeWorkload(cfg).generate()
        streamed = materialize(cfg, chunk_size=chunk_size)
        assert_traces_identical(batch, streamed)

    @given(chunk_a=st.integers(1, 997), chunk_b=st.integers(1, 997))
    @settings(max_examples=20, deadline=None)
    def test_chunk_size_never_changes_the_stream(self, chunk_a, chunk_b):
        cfg = SyntheticWorkloadConfig(n_files=30, n_requests=1_500, seed=5,
                                      bursty=True)
        assert_traces_identical(materialize(cfg, chunk_size=chunk_a),
                                materialize(cfg, chunk_size=chunk_b))

    def test_chunks_partition_the_request_count(self):
        cfg = SyntheticWorkloadConfig(n_files=20, n_requests=1_000, seed=9)
        stream = SyntheticStream(cfg)
        lengths = [len(c) for c in stream.chunks(333)]
        assert sum(lengths) == cfg.n_requests
        assert all(n == 333 for n in lengths[:-1])
        assert stream.n_requests == cfg.n_requests

    def test_times_are_globally_nondecreasing_across_chunks(self):
        cfg = SyntheticWorkloadConfig(n_files=20, n_requests=2_000, seed=13,
                                      bursty=True)
        last = -np.inf
        for chunk in SyntheticStream(cfg).chunks(101):
            assert chunk.times_s[0] >= last
            assert np.all(np.diff(chunk.times_s) >= 0)
            last = chunk.times_s[-1]

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
            fs, tr = materialize(cfg, chunk_size=chunk_size)
            assert workload_key(cfg) == key
