"""Utilization-reliability function (Fig. 3b): buckets and smooth mode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.press.utilization import GOOGLE_4YR_UTILIZATION_BUCKETS, UtilizationReliability


@pytest.fixture(scope="module")
def step():
    return UtilizationReliability()


@pytest.fixture(scope="module")
def smooth():
    return UtilizationReliability(smooth=True)


class TestPaperBuckets:
    def test_bucket_edges_match_sec_3_3(self, step):
        # low [25,50): 6.0; medium [50,75): 8.0; high [75,100]: 12.0
        assert step(30.0) == 6.0
        assert step(49.999) == 6.0
        assert step(50.0) == 8.0
        assert step(74.999) == 8.0
        assert step(75.0) == 12.0
        assert step(100.0) == 12.0

    def test_below_25_clamps_to_low(self, step):
        assert step(0.0) == 6.0
        assert step(10.0) == 6.0

class TestValidation:
    def test_above_100_rejected(self, step):
        with pytest.raises(ValueError):
            step(101.0)

    def test_negative_rejected(self, step):
        with pytest.raises(ValueError):
            step(-1.0)

    def test_nan_rejected(self, step):
        with pytest.raises(ValueError):
            step(float("nan"))

    def test_decreasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            UtilizationReliability(((25.0, 9.0), (50.0, 6.0), (75.0, 12.0)))


class TestSmoothVariant:
    def test_midpoints_hit_bucket_values(self, smooth):
        for edge, afr in GOOGLE_4YR_UTILIZATION_BUCKETS:
            assert smooth(edge + 12.5) == pytest.approx(afr)

    def test_smooth_is_monotone(self, smooth):
        utils, afrs = smooth.curve(300)
        assert np.all(np.diff(afrs) >= -1e-12)

    def test_smooth_interpolates_between_buckets(self, smooth):
        # halfway between low midpoint (37.5 -> 6) and medium (62.5 -> 8)
        assert smooth(50.0) == pytest.approx(7.0)

    @given(st.floats(0.0, 100.0))
    @settings(max_examples=200)
    def test_smooth_within_bucket_range(self, smooth, u):
        v = smooth(u)
        assert 6.0 - 1e-9 <= v <= 12.0 + 1e-9


class TestVectorized:
    def test_array_matches_scalar(self, step):
        utils = np.linspace(0, 100, 21)
        out = step(utils)
        for u, v in zip(utils, out):
            assert v == step(float(u))

    def test_curve_domain(self, step):
        utils, afrs = step.curve(16)
        assert utils[0] == 25.0 and utils[-1] == 100.0
        assert afrs[0] == 6.0 and afrs[-1] == 12.0
