"""AFR-to-rate conversion (:mod:`repro.press.hazard`) at fixed points.

The round trip ``1 - exp(-rate) == afr`` over the whole domain is the
property test in ``test_press_properties.py``.
"""

import numpy as np
import pytest

from repro.press.hazard import annual_failure_rate_to_rate


class TestRateConversion:
    def test_small_afr_approximately_linear(self):
        assert annual_failure_rate_to_rate(2.0) == pytest.approx(0.0202, abs=1e-3)

    def test_exact_inversion(self):
        rate = annual_failure_rate_to_rate(38.0)
        assert 1.0 - np.exp(-rate) == pytest.approx(0.38)

    def test_zero(self):
        assert annual_failure_rate_to_rate(0.0) == 0.0

    def test_bounds(self):
        with pytest.raises(ValueError):
            annual_failure_rate_to_rate(100.0)
        with pytest.raises(ValueError):
            annual_failure_rate_to_rate(-1.0)
