"""Stripe layout math: chunking, wrapping, accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.striping import PAPER_STRIPE_UNIT_MB, StripeLayout


class TestChunking:
    def test_paper_stripe_unit(self):
        assert PAPER_STRIPE_UNIT_MB == pytest.approx(0.512)

    def test_small_file_single_chunk(self):
        layout = StripeLayout(4, stripe_unit_mb=0.5)
        chunks = layout.chunks_of(file_id=2, size_mb=0.3)
        assert len(chunks) == 1
        assert chunks[0].disk_id == 2
        assert chunks[0].size_mb == 0.3

    def test_exact_unit_stays_whole(self):
        layout = StripeLayout(4, stripe_unit_mb=0.5)
        assert len(layout.chunks_of(0, 0.5)) == 1

    def test_large_file_chunk_count_and_sizes(self):
        layout = StripeLayout(4, stripe_unit_mb=0.5)
        chunks = layout.chunks_of(file_id=0, size_mb=1.7)
        assert [c.size_mb for c in chunks] == pytest.approx([0.5, 0.5, 0.5, 0.2])
        assert [c.disk_id for c in chunks] == [0, 1, 2, 3]

    def test_start_disk_staggers_by_file_id(self):
        layout = StripeLayout(4, stripe_unit_mb=0.5)
        assert layout.chunks_of(1, 1.0)[0].disk_id == 1
        assert layout.chunks_of(5, 1.0)[0].disk_id == 1

    def test_wraps_past_array_size(self):
        layout = StripeLayout(2, stripe_unit_mb=0.5)
        chunks = layout.chunks_of(0, 1.6)
        assert [c.disk_id for c in chunks] == [0, 1, 0, 1]

    def test_invalid_inputs(self):
        layout = StripeLayout(4)
        with pytest.raises(ValueError):
            layout.chunks_of(-1, 1.0)
        with pytest.raises(ValueError):
            layout.chunks_of(0, 0.0)
        with pytest.raises(ValueError):
            StripeLayout(0)


@given(st.integers(1, 8), st.integers(0, 100), st.floats(0.01, 50.0))
@settings(max_examples=200)
def test_chunks_conserve_size(n_disks, file_id, size_mb):
    layout = StripeLayout(n_disks, stripe_unit_mb=0.512)
    chunks = layout.chunks_of(file_id, size_mb)
    assert sum(c.size_mb for c in chunks) == pytest.approx(size_mb)
    assert all(0 <= c.disk_id < n_disks for c in chunks)
    assert all(c.size_mb <= 0.512 + 1e-12 for c in chunks)
