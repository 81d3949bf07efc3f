"""FileSet and size-distribution generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.files import (
    FileSet,
    hybrid_web_sizes,
    lognormal_web_sizes,
    pareto_web_sizes,
)


class TestSizeDistributions:
    def test_lognormal_positive_and_deterministic(self):
        a = lognormal_web_sizes(1000, seed=1)
        b = lognormal_web_sizes(1000, seed=1)
        assert np.all(a > 0)
        np.testing.assert_array_equal(a, b)

    def test_lognormal_median_close_to_parameter(self):
        sizes = lognormal_web_sizes(50_000, median_kb=6.0, seed=2)
        assert np.median(sizes) * 1024 == pytest.approx(6.0, rel=0.1)

    def test_pareto_respects_minimum(self):
        sizes = pareto_web_sizes(5000, min_kb=30.0, seed=3)
        assert np.all(sizes * 1024 >= 30.0 - 1e-9)

    def test_pareto_heavier_tail_than_lognormal(self):
        ln = lognormal_web_sizes(50_000, seed=4)
        pa = pareto_web_sizes(50_000, seed=4)
        assert pa.max() > ln.max()

    def test_hybrid_mixes_tail(self):
        sizes = hybrid_web_sizes(10_000, tail_fraction=0.1, seed=5)
        assert sizes.size == 10_000
        assert np.all(sizes > 0)

    def test_hybrid_zero_tail_is_pure_lognormal_shape(self):
        sizes = hybrid_web_sizes(1000, tail_fraction=0.0, seed=6)
        assert np.all(sizes > 0)

    def test_hybrid_rejects_unknown_kwargs(self):
        with pytest.raises(ValueError, match="unknown"):
            hybrid_web_sizes(10, bogus_param=1.0)

    def test_empty_generation(self):
        assert lognormal_web_sizes(0).size == 0
        assert pareto_web_sizes(0).size == 0


class TestFileSet:
    def test_basic_accessors(self, tiny_fileset):
        assert len(tiny_fileset) == 8
        assert tiny_fileset.size_of(2) == 4.0
        assert tiny_fileset.total_mb == pytest.approx(30.0)
        assert tiny_fileset[1].size_mb == 2.0

    def test_iteration_yields_specs_in_id_order(self, tiny_fileset):
        specs = list(tiny_fileset)
        assert [s.file_id for s in specs] == list(range(8))

    def test_sizes_readonly(self, tiny_fileset):
        with pytest.raises(ValueError):
            tiny_fileset.sizes_mb[0] = 99.0

    def test_sorted_by_size_stable(self, tiny_fileset):
        order = tiny_fileset.ids_sorted_by_size()
        sizes = tiny_fileset.sizes_mb[order]
        assert np.all(np.diff(sizes) >= 0)
        # stability: equal sizes keep id order (1.0 MB files are ids 0, 4)
        assert list(order[:2]) == [0, 4]

    def test_sorted_descending(self, tiny_fileset):
        order = tiny_fileset.ids_sorted_by_size(descending=True)
        assert tiny_fileset.sizes_mb[order[0]] == 8.0

    def test_uniform_constructor(self):
        fs = FileSet.uniform(5, 2.5)
        assert np.all(fs.sizes_mb == 2.5)

    def test_web_like_constructor_deterministic(self):
        a = FileSet.web_like(100, seed=7)
        b = FileSet.web_like(100, seed=7)
        np.testing.assert_array_equal(a.sizes_mb, b.sizes_mb)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FileSet(np.array([]))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            FileSet(np.array([1.0, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FileSet(np.array([1.0, np.nan]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            FileSet(np.ones((2, 2)))

    @given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_total_is_sum_property(self, sizes):
        fs = FileSet(np.array(sizes))
        assert fs.total_mb == pytest.approx(sum(sizes), rel=1e-9)
