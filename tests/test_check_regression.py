"""The throughput regression gate (benchmarks/check_regression.py).

``compare()`` is pure, so tier-1 can exercise the gate logic — and
validate the committed baseline file — without measuring anything.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py")
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)

BASELINE = {"kernel_events_per_sec": 1_000_000.0,
            "sweep8_serial_s": 4.0, "sweep8_jobs4_s": 2.0}


class TestCompare:
    def test_identical_results_pass(self):
        assert check_regression.compare(dict(BASELINE), BASELINE) == []

    def test_improvements_pass(self):
        current = {"kernel_events_per_sec": 2_000_000.0,
                   "sweep8_serial_s": 1.0, "sweep8_jobs4_s": 0.5}
        assert check_regression.compare(current, BASELINE) == []

    def test_small_regression_within_threshold_passes(self):
        current = dict(BASELINE, kernel_events_per_sec=850_000.0)  # -15%
        assert check_regression.compare(current, BASELINE) == []

    def test_events_per_sec_drop_beyond_threshold_fails(self):
        current = dict(BASELINE, kernel_events_per_sec=700_000.0)  # -30%
        problems = check_regression.compare(current, BASELINE)
        assert len(problems) == 1
        assert "kernel_events_per_sec" in problems[0]

    def test_wall_clock_increase_beyond_threshold_fails(self):
        current = dict(BASELINE, sweep8_serial_s=5.0)  # +25%
        problems = check_regression.compare(current, BASELINE)
        assert len(problems) == 1
        assert "sweep8_serial_s" in problems[0]

    def test_missing_metrics_are_skipped(self):
        assert check_regression.compare({}, BASELINE) == []
        assert check_regression.compare(dict(BASELINE), {}) == []

    def test_custom_threshold(self):
        current = dict(BASELINE, kernel_events_per_sec=850_000.0)  # -15%
        problems = check_regression.compare(current, BASELINE, threshold=0.10)
        assert len(problems) == 1

    def test_rejects_nonsense_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            check_regression.compare(dict(BASELINE), BASELINE, threshold=0.0)

    def test_obs_disabled_cell_is_gated(self):
        base = dict(BASELINE, cell_obs_off_s=0.4)
        current = dict(base, cell_obs_off_s=0.6)  # +50%
        problems = check_regression.compare(current, base)
        assert len(problems) == 1
        assert "cell_obs_off_s" in problems[0]

    def test_traced_cell_is_gated(self):
        base = dict(BASELINE, cell_traced_s=1.5)
        current = dict(base, cell_traced_s=2.5)  # +67%
        problems = check_regression.compare(current, base)
        assert len(problems) == 1
        assert "cell_traced_s" in problems[0]


class TestTracingOverhead:
    def test_ratio_within_limit_passes(self):
        limit = check_regression.MAX_TRACING_OVERHEAD
        current = {"cell_obs_off_s": 0.4, "cell_traced_s": 0.4 * 0.9 * limit}
        assert check_regression.tracing_overhead(current) == []

    def test_ratio_beyond_limit_fails(self):
        limit = check_regression.MAX_TRACING_OVERHEAD
        current = {"cell_obs_off_s": 0.4, "cell_traced_s": 0.4 * 1.2 * limit}
        problems = check_regression.tracing_overhead(current)
        assert len(problems) == 1
        assert "tracing overhead" in problems[0]

    def test_custom_ratio(self):
        current = {"cell_obs_off_s": 1.0, "cell_traced_s": 2.5}
        assert check_regression.tracing_overhead(current, max_ratio=2.0)
        assert not check_regression.tracing_overhead(current, max_ratio=3.0)

    def test_missing_measurements_skip_the_check(self):
        assert check_regression.tracing_overhead({}) == []
        assert check_regression.tracing_overhead({"cell_obs_off_s": 0.4}) == []
        assert check_regression.tracing_overhead(
            {"cell_obs_off_s": 0.0, "cell_traced_s": 1.0}) == []

    def test_rejects_nonsense_ratio(self):
        with pytest.raises(ValueError, match="max_ratio"):
            check_regression.tracing_overhead({}, max_ratio=1.0)
        with pytest.raises(ValueError, match="max_shard_ratio"):
            check_regression.tracing_overhead({}, max_shard_ratio=1.0)

    def test_shard_ratio_within_limit_passes(self):
        limit = check_regression.MAX_SHARD_TRACING_OVERHEAD
        current = {"shard_obs_off_s": 1.5, "shard_traced_s": 1.5 * 0.9 * limit}
        assert check_regression.tracing_overhead(current) == []

    def test_shard_ratio_beyond_limit_fails(self):
        limit = check_regression.MAX_SHARD_TRACING_OVERHEAD
        current = {"shard_obs_off_s": 1.0, "shard_traced_s": 1.2 * limit}
        problems = check_regression.tracing_overhead(current)
        assert len(problems) == 1
        assert "shard tracing overhead" in problems[0]

    def test_both_pairs_checked_independently(self):
        current = {"cell_obs_off_s": 0.4, "cell_traced_s": 2.4,      # 6x > 3.5x
                   "shard_obs_off_s": 1.0, "shard_traced_s": 20.0}   # 20x > 7.5x
        problems = check_regression.tracing_overhead(current)
        assert len(problems) == 2


class TestKernelFloor:
    """The absolute floor on the batched SoA kernel rate."""

    def test_rate_above_floor_passes(self):
        current = {"kernel_events_per_sec": 4_000_000.0}
        assert check_regression.kernel_floor(current, floor=3_220_000) == []

    def test_rate_below_floor_fails(self):
        current = {"kernel_events_per_sec": 3_000_000.0}
        problems = check_regression.kernel_floor(current, floor=3_220_000)
        assert len(problems) == 1
        assert "floor" in problems[0]

    def test_missing_metric_skips_the_check(self):
        assert check_regression.kernel_floor({}) == []

    def test_default_floor_is_3x_the_object_seed_class(self):
        # the ISSUE gate: >= 3x the pre-SoA ~1.07M events/sec ceiling
        assert check_regression.FLOOR_KERNEL_EVENTS_PER_SEC >= 3_210_000


class TestCommittedBaseline:
    def test_baseline_file_is_well_formed(self):
        data = json.loads(check_regression.BASELINE_PATH.read_text())
        assert data["kernel_events_per_sec"] > 0
        assert data["sweep8_serial_s"] > 0
        assert data["sweep8_jobs4_s"] > 0
        # the seed snapshot documents what the perf work bought; the
        # sweep margin uses the same 1.5x floor as bench_throughput.py
        # (single-core host, ~20-40% session-to-session variance)
        seed = data["seed"]
        assert (data["kernel_events_per_sec_object"]
                >= seed["kernel_events_per_sec_object"] / 2.0)
        assert data["sweep8_serial_s"] <= seed["sweep8_serial_s"] / 1.5
        # the batched SoA kernel must clear the absolute floor with room
        assert data["kernel_events_per_sec"] >= (
            check_regression.FLOOR_KERNEL_EVENTS_PER_SEC)
        assert check_regression.kernel_floor(data) == []
        # the telemetry reference cells (unsharded and sharded) must
        # themselves satisfy their overhead caps
        assert data["cell_obs_off_s"] > 0
        assert data["cell_traced_s"] > 0
        assert data["shard_obs_off_s"] > 0
        assert data["shard_traced_s"] > 0
        assert check_regression.tracing_overhead(data) == []

    def test_baseline_passes_against_itself(self):
        data = json.loads(check_regression.BASELINE_PATH.read_text())
        assert check_regression.compare(data, data) == []

    def test_main_reports_missing_results(self, tmp_path):
        assert check_regression.main([str(tmp_path / "nope.json")]) == 2

    def test_main_flags_regression(self, tmp_path, capsys):
        bad = dict(json.loads(check_regression.BASELINE_PATH.read_text()))
        bad["kernel_events_per_sec"] = bad["kernel_events_per_sec"] * 0.5
        path = tmp_path / "throughput.json"
        path.write_text(json.dumps(bad))
        assert check_regression.main([str(path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestCiGate:
    """The combined gate script: importable helpers, graceful skips."""

    @pytest.fixture(scope="class")
    def ci_gate(self):
        import sys
        sys.modules.setdefault("check_regression", check_regression)
        spec = importlib.util.spec_from_file_location(
            "ci_gate", REPO_ROOT / "benchmarks" / "ci_gate.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_has_pytest_cov_is_boolean(self, ci_gate):
        assert isinstance(ci_gate.has_pytest_cov(), bool)

    def test_regression_check_skips_without_results(self, ci_gate, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(ci_gate, "RESULTS_PATH", tmp_path / "missing.json")
        assert ci_gate.run_regression_check() == 0
        assert "perf gate skipped" in capsys.readouterr().out

    def test_regression_check_runs_on_fresh_results(self, ci_gate, tmp_path,
                                                    monkeypatch, capsys):
        results = tmp_path / "throughput.json"
        # numbers far better than any plausible baseline: gate must pass
        results.write_text(json.dumps({"kernel_events_per_sec": 1e12,
                                       "sweep8_serial_s": 1e-6,
                                       "sweep8_jobs4_s": 1e-6}))
        monkeypatch.setattr(ci_gate, "RESULTS_PATH", results)
        assert ci_gate.run_regression_check() == 0
        assert "ok:" in capsys.readouterr().out
