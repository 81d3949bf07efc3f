"""Sensitivity analysis: the paper's insight ranking, quantified."""

import numpy as np
import pytest

from repro.press.integrator import CombinationStrategy
from repro.press.model import PRESSModel
from repro.press.sensitivity import (
    DEFAULT_RANGES,
    FactorRange,
    partial_effect,
    tornado,
)


class TestTornado:
    def test_paper_insight_ranking(self):
        """Sec. 3.5: frequency > temperature >= utilization."""
        bars = tornado()
        order = [b.factor for b in bars]
        assert order[0] == "frequency"
        swings = {b.factor: b.swing for b in bars}
        assert swings["frequency"] > swings["temperature"]
        assert swings["temperature"] >= swings["utilization"]

    def test_bars_sorted_descending(self):
        bars = tornado()
        assert all(a.swing >= b.swing for a, b in zip(bars, bars[1:]))

    def test_swing_matches_endpoints(self):
        for bar in tornado():
            assert bar.swing == pytest.approx(abs(bar.afr_at_high - bar.afr_at_low))

    def test_custom_base_point(self):
        bars = tornado(base={"temperature": 50.0, "utilization": 90.0,
                             "frequency": 1500.0})
        assert {b.factor for b in bars} == {"temperature", "utilization", "frequency"}

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            tornado(base={"temperature": 40.0})

    def test_narrow_frequency_range_demotes_frequency(self):
        """At READ-like transition caps the frequency axis stops
        dominating — the model's advice is range-dependent."""
        ranges = dict(DEFAULT_RANGES)
        ranges["frequency"] = FactorRange(0.0, 40.0)
        assert tornado(ranges=ranges)[0].factor != "frequency"

    def test_sum_strategy_preserves_ranking(self):
        press = PRESSModel.with_strategy(CombinationStrategy.SUM)
        assert tornado(press)[0].factor == "frequency"


class TestPartialEffect:
    def test_frequency_curve_matches_direct_eval(self):
        press = PRESSModel()
        xs, ys = partial_effect("frequency", press=press, n_points=9)
        base = {"temperature": 42.5, "utilization": 50.0}
        for x, y in zip(xs, ys):
            assert y == pytest.approx(press.disk_afr(base["temperature"],
                                                     base["utilization"], float(x)))

    def test_temperature_curve_monotone(self):
        _, ys = partial_effect("temperature")
        assert np.all(np.diff(ys) >= -1e-12)

    def test_unknown_factor_rejected(self):
        with pytest.raises(ValueError):
            partial_effect("humidity")

    def test_custom_range(self):
        xs, _ = partial_effect("frequency", factor_range=FactorRange(0.0, 65.0))
        assert xs[-1] == 65.0


class TestDominantFactor:
    """The dominant factor is the first (largest-swing) tornado bar."""

    def test_default_is_frequency(self):
        assert tornado()[0].factor == "frequency"

    def test_factor_range_validation(self):
        with pytest.raises(ValueError):
            FactorRange(10.0, 5.0)
