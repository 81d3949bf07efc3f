"""Anchor presets: validity and the stability of paper conclusions."""

import pytest

from repro.press.presets import (
    TEMPERATURE_PRESETS,
    UTILIZATION_PRESETS,
    preset_names,
    press_model_preset,
)


class TestPresetConstruction:
    @pytest.mark.parametrize("temp_name", sorted(TEMPERATURE_PRESETS))
    @pytest.mark.parametrize("util_name", sorted(UTILIZATION_PRESETS))
    def test_every_combination_builds(self, temp_name, util_name):
        model = press_model_preset(temp_name, util_name)
        afr = model.disk_afr(45.0, 60.0, 100.0)
        assert afr > 0

    def test_default_is_the_paper_model(self, press):
        model = press_model_preset()
        for point in [(40.0, 30.0, 0.0), (50.0, 90.0, 500.0)]:
            assert model.disk_afr(*point) == pytest.approx(press.disk_afr(*point))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown temperature"):
            press_model_preset("bogus")
        with pytest.raises(ValueError, match="unknown utilization"):
            press_model_preset("paper-3yr", "bogus")

    def test_preset_names_cartesian(self):
        combos = preset_names()
        assert len(combos) == len(TEMPERATURE_PRESETS) * len(UTILIZATION_PRESETS)


class TestAnchorShapes:
    @pytest.mark.parametrize("name,anchors", sorted(TEMPERATURE_PRESETS.items()))
    def test_temperature_presets_monotone(self, name, anchors):
        afrs = [a for _, a in anchors]
        assert all(b >= a for a, b in zip(afrs, afrs[1:]))

    @pytest.mark.parametrize("name,buckets", sorted(UTILIZATION_PRESETS.items()))
    def test_utilization_presets_monotone(self, name, buckets):
        afrs = [a for _, a in buckets]
        assert all(b >= a for a, b in zip(afrs, afrs[1:]))

    def test_low_high_variants_bracket_default(self):
        lo = dict(TEMPERATURE_PRESETS["paper-3yr-low"])
        hi = dict(TEMPERATURE_PRESETS["paper-3yr-high"])
        mid = dict(TEMPERATURE_PRESETS["paper-3yr"])
        for temp in mid:
            assert lo[temp] < mid[temp] < hi[temp]

    def test_4yr_flatter_than_3yr(self):
        """The paper's stated reason for rejecting the 4-year data."""
        def span(anchors):
            afrs = [a for _, a in anchors]
            return afrs[-1] - afrs[0]
        assert span(TEMPERATURE_PRESETS["google-4yr"]) < span(
            TEMPERATURE_PRESETS["paper-3yr"])


class TestConclusionStability:
    """The reproduction's core robustness claim: orderings survive every
    reading of the digitized source charts."""

    @pytest.mark.parametrize("temp_name", sorted(TEMPERATURE_PRESETS))
    @pytest.mark.parametrize("util_name", sorted(UTILIZATION_PRESETS))
    def test_hot_busy_churny_disk_always_worse(self, temp_name, util_name):
        model = press_model_preset(temp_name, util_name)
        read_like = model.disk_afr(50.0, 30.0, 5.0)        # even load, capped
        maid_like = model.disk_afr(50.0, 80.0, 400.0)      # hot cache + churn
        pdc_like = model.disk_afr(50.0, 90.0, 900.0)       # concentration + churn
        assert read_like < maid_like < pdc_like

    @pytest.mark.parametrize("temp_name", sorted(TEMPERATURE_PRESETS))
    def test_frequency_still_dominates(self, temp_name):
        from repro.press.sensitivity import tornado
        model = press_model_preset(temp_name)
        assert tornado(model)[0].factor == "frequency"
