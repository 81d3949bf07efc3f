"""Markdown report generation."""

import pytest

from repro.experiments.figures import figure7_comparison
from repro.experiments.report import render_markdown_report, write_markdown_report
from repro.experiments.runner import ExperimentConfig
from repro.obs import ObsConfig
from repro.workload.synthetic import SyntheticWorkloadConfig


@pytest.fixture(scope="module")
def small_fig7():
    cfg = ExperimentConfig(workload=SyntheticWorkloadConfig(
        n_files=80, n_requests=3_000, seed=5, mean_interarrival_s=0.01))
    return figure7_comparison(cfg, disk_counts=(3, 5),
                              policies=("read", "static-high"),
                              policy_kwargs={"read": {"epoch_s": 10.0}})


class TestRender:
    def test_contains_all_sections(self, small_fig7):
        md = render_markdown_report(small_fig7)
        assert md.startswith("# Policy comparison")
        assert "### Array AFR" in md
        assert "### Energy" in md
        assert "### Mean response time" in md
        assert "## read improvements" in md
        assert "## Worthwhileness vs the always-on array" in md

    def test_custom_title_and_no_baseline(self, small_fig7):
        md = render_markdown_report(small_fig7, title="My Study", baseline=None)
        assert md.startswith("# My Study")
        assert "improvements" not in md

    def test_tables_have_all_disk_counts(self, small_fig7):
        md = render_markdown_report(small_fig7)
        assert "| 3 |" in md
        assert "| 5 |" in md

    def test_worthwhile_rows_per_policy_and_size(self, small_fig7):
        md = render_markdown_report(small_fig7)
        # one verdict row per (non-reference policy, size): read x {3, 5}
        verdict_rows = [l for l in md.splitlines()
                        if l.startswith("| read |") and "worthwhile" in l]
        assert len(verdict_rows) == 2

    def test_runtime_section_present(self, small_fig7):
        md = render_markdown_report(small_fig7)
        assert "### Simulation runtime" in md
        assert "events/s" in md

    def test_runtime_telemetry_columns_only_when_captured(self, small_fig7,
                                                          tmp_path):
        # obs-off sweeps must not grow empty columns
        md = render_markdown_report(small_fig7)
        assert "samples" not in md
        assert "| metrics |" not in md

        cfg = ExperimentConfig(workload=SyntheticWorkloadConfig(
            n_files=80, n_requests=1_000, seed=5, mean_interarrival_s=0.01))
        obs = ObsConfig(metrics_path=str(tmp_path / "m.csv"),
                        sample_interval_s=5.0)
        fig7 = figure7_comparison(cfg, disk_counts=(3,), policies=("read",),
                                  obs=obs)
        md = render_markdown_report(fig7)
        runtime = md.split("### Simulation runtime")[1]
        header = next(l for l in runtime.splitlines() if l.startswith("|"))
        assert header.strip("|").split("|")[-1].strip() == "samples"
        row = next(l for l in runtime.splitlines() if l.startswith("| read |"))
        assert int(row.strip("|").split("|")[-1]) > 0

    def test_markdown_tables_well_formed(self, small_fig7):
        md = render_markdown_report(small_fig7)
        for line in md.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")


class TestWrite:
    def test_writes_file(self, small_fig7, tmp_path):
        path = write_markdown_report(small_fig7, tmp_path / "report.md")
        assert path.exists()
        assert path.read_text().startswith("# Policy comparison")


class TestFaultsSection:
    @pytest.fixture(scope="class")
    def faulted_fig7(self):
        from repro.faults import FaultConfig
        cfg = ExperimentConfig(workload=SyntheticWorkloadConfig(
            n_files=80, n_requests=3_000, seed=5, mean_interarrival_s=0.01))
        return figure7_comparison(
            cfg, disk_counts=(4,), policies=("read",),
            faults=FaultConfig(seed=3, accel=2e6, hazard_refresh_s=5.0,
                               repair_delay_s=10.0))

    def test_absent_without_faults(self, small_fig7):
        assert "Realized reliability" not in render_markdown_report(small_fig7)

    def test_realized_reliability_table(self, faulted_fig7):
        md = render_markdown_report(faulted_fig7)
        assert "### Realized reliability (fault injection)" in md
        assert "availability %" in md
        assert "data-loss events" in md
        assert "rebuild kJ" in md
        # the faults row carries the availability percentage column; the
        # runtime section's rows for the same cell do not
        rows = [l for l in md.splitlines()
                if l.startswith("| read | 4 |") and "91.7" in l]
        assert len(rows) == 1
