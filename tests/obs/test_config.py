"""ObsConfig semantics: what each combination of fields turns on."""

import pytest

from repro.obs.config import ObsConfig


class TestObsConfig:
    def test_default_is_all_off(self):
        cfg = ObsConfig()
        assert not cfg.enabled
        assert not cfg.wants_sampler

    def test_trace_only(self):
        cfg = ObsConfig(trace_path="t.jsonl")
        assert cfg.enabled
        assert not cfg.wants_sampler

    def test_metrics_path_implies_sampler_at_default_cadence(self):
        cfg = ObsConfig(metrics_path="ts.csv")
        assert cfg.enabled
        assert cfg.wants_sampler
        assert cfg.effective_sample_interval_s == ObsConfig.DEFAULT_SAMPLE_INTERVAL_S

    def test_explicit_interval_wins(self):
        cfg = ObsConfig(metrics_path="ts.csv", sample_interval_s=5.0)
        assert cfg.effective_sample_interval_s == 5.0

    def test_interval_without_path_still_samples(self):
        cfg = ObsConfig(sample_interval_s=2.0)
        assert cfg.wants_sampler
        assert cfg.enabled

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValueError):
            ObsConfig(sample_interval_s=0.0)
        with pytest.raises(ValueError):
            ObsConfig(sample_interval_s=-1.0)

    def test_frozen_and_hashable(self):
        cfg = ObsConfig(trace_path="t.jsonl")
        with pytest.raises(AttributeError):
            cfg.trace_path = "other"
        assert cfg == ObsConfig(trace_path="t.jsonl")
        assert hash(cfg) == hash(ObsConfig(trace_path="t.jsonl"))
