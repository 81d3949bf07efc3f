"""Temperature-reliability function (Fig. 2b)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.press.temperature import GOOGLE_3YR_TEMPERATURE_ANCHORS, TemperatureReliability


@pytest.fixture(scope="module")
def f():
    return TemperatureReliability()


class TestAnchors:
    def test_anchor_values_exact(self, f):
        for temp, afr in GOOGLE_3YR_TEMPERATURE_ANCHORS:
            assert f(temp) == pytest.approx(afr)

    def test_paper_speed_temperatures(self, f):
        # the two PRESS operating points (Sec. 3.5)
        assert f(40.0) == pytest.approx(9.0)
        assert f(50.0) == pytest.approx(15.0)

class TestMonotonicity:
    def test_monotone_over_domain(self, f):
        temps, afrs = f.curve(200)
        assert np.all(np.diff(afrs) >= -1e-12)

    @given(st.floats(25.0, 50.0), st.floats(25.0, 50.0))
    @settings(max_examples=200)
    def test_pairwise_monotone(self, f, t1, t2):
        if t1 > t2:
            t1, t2 = t2, t1
        assert f(t1) <= f(t2) + 1e-12


class TestClamping:
    def test_below_domain_clamps_to_low_anchor(self, f):
        assert f(0.0) == pytest.approx(4.5)
        assert f(24.9) == pytest.approx(4.5)

    def test_above_domain_clamps_to_high_anchor(self, f):
        assert f(80.0) == pytest.approx(15.0)

    def test_nan_rejected(self, f):
        with pytest.raises(ValueError):
            f(float("nan"))


class TestVectorized:
    def test_array_input_matches_scalar(self, f):
        temps = np.array([30.0, 42.5, 55.0])
        out = f(temps)
        assert out.shape == (3,)
        for t, v in zip(temps, out):
            assert v == pytest.approx(f(float(t)))

    def test_scalar_returns_float(self, f):
        assert isinstance(f(33.0), float)

    def test_curve_shapes(self, f):
        temps, afrs = f.curve(11)
        assert temps.shape == afrs.shape == (11,)
        assert temps[0] == 25.0 and temps[-1] == 50.0


class TestCustomAnchors:
    def test_custom_anchor_set(self):
        g = TemperatureReliability(((20.0, 1.0), (60.0, 3.0)))
        assert g(20.0) == pytest.approx(1.0)
        assert g(40.0) == pytest.approx(2.0)

    def test_decreasing_afr_rejected(self):
        with pytest.raises(ValueError):
            TemperatureReliability(((20.0, 5.0), (30.0, 4.0)))

    def test_unsorted_temps_rejected(self):
        with pytest.raises(ValueError):
            TemperatureReliability(((30.0, 1.0), (20.0, 2.0)))

    def test_single_anchor_rejected(self):
        with pytest.raises(ValueError):
            TemperatureReliability(((30.0, 1.0),))
