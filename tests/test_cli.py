"""CLI smoke-to-depth tests (small workloads so each command is fast)."""

import pytest

from repro.cli import build_parser, main

SMALL = ["--files", "100", "--requests", "2000", "--interarrival-ms", "20"]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected_at_parse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "bogus"])

    def test_all_registry_policies_accepted(self):
        parser = build_parser()
        for name in ("read", "maid", "pdc", "drpm", "static-high",
                     "read-rotate", "striped-static"):
            args = parser.parse_args(["simulate", "--policy", name])
            assert args.policy == name


class TestVersion:
    def test_version_flag_exits_zero_with_a_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # either the installed-dist version or the pyproject fallback;
        # both are dotted numerics, never the "unknown" last resort here
        assert out.split()[1][0].isdigit()

    def test_package_version_matches_pyproject(self):
        import re
        from pathlib import Path
        from repro.cli import _package_version
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml")
        declared = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(),
                             re.MULTILINE).group(1)
        assert _package_version() == declared


class TestSimulate:
    def test_basic_run(self, capsys):
        rc = main(["simulate", "--policy", "read", "--disks", "4", *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "read on 4 disks" in out
        assert "AFR_%" in out

    def test_per_disk_table(self, capsys):
        rc = main(["simulate", "--policy", "static-high", "--disks", "3",
                   "--per-disk", *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-disk ESRRA factors" in out
        assert out.count("50.0") >= 3  # three disks at high steady temp

    def test_heavy_flag(self, capsys):
        rc = main(["simulate", "--policy", "read", "--disks", "4",
                   "--heavy", "2", *SMALL])
        assert rc == 0


class TestTelemetryFlags:
    def test_simulate_trace_out(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        rc = main(["simulate", "--policy", "read", "--disks", "4",
                   "--trace-out", str(path), *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert path.stat().st_size > 0
        assert "wrote trace ->" in out

    def test_simulate_metrics_out_with_interval(self, tmp_path, capsys):
        path = tmp_path / "ts.csv"
        rc = main(["simulate", "--policy", "read", "--disks", "4",
                   "--metrics-out", str(path), "--sample-interval", "5",
                   *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert path.read_text().startswith("time_s,disk,")
        assert "wrote time-series ->" in out

    def test_compare_trace_out_suffixes_per_cell(self, tmp_path, capsys):
        base = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "--policies", "read,static-high",
                   "--disks", "4", "--trace-out", str(base), *SMALL])
        assert rc == 0
        assert (tmp_path / "sweep-read-4.jsonl").exists()
        assert (tmp_path / "sweep-static-high-4.jsonl").exists()
        assert "telemetry written per cell" in capsys.readouterr().out

    def test_obs_summarize_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["simulate", "--policy", "read", "--disks", "4",
                     "--trace-out", str(path), *SMALL]) == 0
        capsys.readouterr()
        rc = main(["obs", "summarize", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per event type" in out
        assert "per disk" in out
        assert "request.complete" in out

    def test_obs_summarize_json_document(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(["simulate", "--policy", "read", "--disks", "4",
                     "--trace-out", str(path), *SMALL]) == 0
        capsys.readouterr()
        rc = main(["obs", "summarize", "--json", str(path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == str(path)
        assert doc["total_events"] > 0
        assert doc["unknown_types"] == []
        assert any(row["event"] == "request.complete" for row in doc["by_type"])
        assert {row["disk"] for row in doc["by_disk"]} == {0, 1, 2, 3}

    def test_obs_summarize_missing_file(self, capsys):
        rc = main(["obs", "summarize", "/nonexistent/trace.jsonl"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_summarize_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        rc = main(["obs", "summarize", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_two_policy_sweep(self, capsys):
        rc = main(["sweep", "--policies", "read,static-high",
                   "--disks", "4,6", "--baseline", "read", *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "array AFR [%]" in out
        assert "energy [kJ]" in out
        assert "mean response [ms]" in out
        assert "read improvement" in out


class TestSweep:
    ARGS = ["sweep", "--policies", "read,static-high", "--disks", "4",
            "--baseline", "read", "--files", "60", "--requests", "800",
            "--interarrival-ms", "20"]

    def test_runs_and_writes_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        rc = main([*self.ARGS, "--checkpoint", str(ckpt)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "array AFR [%]" in out
        assert "harness: 2 cell(s) run, 0 restored from checkpoint" in out
        assert f"checkpoint -> {ckpt}" in out
        assert ckpt.exists()

    def test_resume_skips_completed_cells(self, capsys, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        assert main([*self.ARGS, "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()

        rc = main([*self.ARGS, "--resume", str(ckpt)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "harness: 0 cell(s) run, 2 restored from checkpoint" in out

    def test_resume_missing_checkpoint_is_an_error(self, capsys, tmp_path):
        rc = main([*self.ARGS, "--resume", str(tmp_path / "nope.ckpt")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "checkpoint to resume not found" in err

    def test_report_includes_resilience_section(self, capsys, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        report = tmp_path / "report.md"
        assert main([*self.ARGS, "--checkpoint", str(ckpt)]) == 0
        rc = main([*self.ARGS, "--resume", str(ckpt),
                   "--report", str(report)])
        assert rc == 0
        text = report.read_text()
        assert "### Harness resilience" in text
        assert "read improvements" in text

    def test_works_without_checkpoint(self, capsys):
        rc = main([*self.ARGS])
        out = capsys.readouterr().out
        assert rc == 0
        assert "harness: 2 cell(s) run" in out
        assert "checkpoint ->" not in out


class TestSweepTelemetry:
    ARGS = ["sweep", "--policies", "read", "--disks", "4", "--baseline", "",
            "--files", "60", "--requests", "800", "--interarrival-ms", "20"]

    def test_status_out_feed_readable_by_obs_status(self, tmp_path, capsys):
        status = tmp_path / "status.json"
        rc = main([*self.ARGS, "--status-out", str(status)])
        assert rc == 0
        assert "status feed ->" in capsys.readouterr().out
        rc = main(["obs", "status", str(status)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sweep done: 1/1 cells" in out

    def test_obs_status_json_document(self, tmp_path, capsys):
        import json

        status = tmp_path / "status.json"
        assert main([*self.ARGS, "--status-out", str(status)]) == 0
        capsys.readouterr()
        rc = main(["obs", "status", "--json", str(status)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "done"
        assert doc["cells_done"] == 1
        assert "read x 4 disks" in doc["cells"]

    def test_sharded_sweep_writes_segments_and_merged_trace(
            self, tmp_path, capsys):
        base = tmp_path / "trace.jsonl"
        rc = main([*self.ARGS, "--shards", "2", "--trace-out", str(base)])
        assert rc == 0
        assert "telemetry written per cell" in capsys.readouterr().out
        assert (tmp_path / "trace-read-4.jsonl").exists()
        assert (tmp_path / "trace-read-4.shard0000.jsonl").exists()
        assert (tmp_path / "trace-read-4.shard0001.jsonl").exists()

    def test_summarize_glob_rolls_segments_up(self, tmp_path, capsys):
        import json

        base = tmp_path / "trace.jsonl"
        assert main([*self.ARGS, "--shards", "2",
                     "--trace-out", str(base)]) == 0
        capsys.readouterr()
        rc = main(["obs", "summarize", "--json",
                   str(tmp_path / "trace-read-4.shard*.jsonl")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "shard0000" in doc["source"] and "shard0001" in doc["source"]
        # segments carry global disk ids: the rollup is array-wide
        assert {row["disk"] for row in doc["by_disk"]} == {0, 1, 2, 3}

    def test_summarize_accepts_multiple_paths(self, tmp_path, capsys):
        import json

        base = tmp_path / "trace.jsonl"
        assert main([*self.ARGS, "--shards", "2",
                     "--trace-out", str(base)]) == 0
        capsys.readouterr()
        s0 = str(tmp_path / "trace-read-4.shard0000.jsonl")
        s1 = str(tmp_path / "trace-read-4.shard0001.jsonl")
        rc = main(["obs", "summarize", "--json", s0, s1])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == f"{s0},{s1}"

    def test_faults_with_shards_is_a_capability_error(self, capsys):
        rc = main([*self.ARGS, "--faults", "on", "--shards", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--faults cannot be combined with --shards" in err

    def test_summarize_glob_without_matches_errors(self, tmp_path, capsys):
        rc = main(["obs", "summarize", str(tmp_path / "none.shard*.jsonl")])
        assert rc == 2
        assert "no trace files match" in capsys.readouterr().err

    def test_obs_status_missing_file_errors(self, tmp_path, capsys):
        rc = main(["obs", "status", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_status_rejects_non_status_json(self, tmp_path, capsys):
        p = tmp_path / "other.json"
        p.write_text('{"hello": 1}')
        rc = main(["obs", "status", str(p)])
        assert rc == 2
        assert "not a sweep status document" in capsys.readouterr().err


class TestPress:
    def test_point_evaluation(self, capsys):
        rc = main(["press", "--temp", "40", "--util", "30", "--freq", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "= 7.500 %" in out

    def test_surface(self, capsys):
        rc = main(["press", "--surface", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PRESS AFR % at 50 degC" in out
        assert "f=1600/d" in out


class TestWorthwhile:
    def test_read_vs_static(self, capsys):
        rc = main(["worthwhile", "--scheme", "read", "--reference",
                   "static-high", "--disks", "4", *SMALL])
        out = capsys.readouterr().out
        assert "net benefit" in out
        assert rc in (0, 3)  # verdict-dependent exit code

    def test_exit_code_reflects_verdict(self, capsys):
        # static-low vs static-high saves energy with a *lower* AFR ->
        # always worthwhile -> exit 0
        rc = main(["worthwhile", "--scheme", "static-low", "--reference",
                   "static-high", "--disks", "4", *SMALL])
        assert rc == 0


class TestReport:
    def test_report_command_writes_markdown(self, tmp_path, capsys):
        out_md = tmp_path / "r.md"
        rc = main(["sweep", "--report", str(out_md), "--policies",
                   "read,static-high", "--disks", "4", *SMALL])
        assert rc == 0
        assert f"wrote report -> {out_md}" in capsys.readouterr().out
        assert out_md.exists()
        assert "Array AFR" in out_md.read_text()


class TestTrace:
    def test_generate_and_info_roundtrip(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        rc = main(["trace", "generate", "--out", str(out_csv), *SMALL])
        assert rc == 0
        assert out_csv.exists()
        rc = main(["trace", "info", str(out_csv)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "requests          : 2000" in out

    def test_convert_wc98(self, tmp_path, capsys):
        from repro.workload.wc98 import WC98Record, write_wc98
        bin_path = tmp_path / "day.bin"
        write_wc98([WC98Record(1000 + i, 1, i % 5, 4000, 0, 2, 1, 0)
                    for i in range(50)], bin_path)
        out_csv = tmp_path / "day.csv"
        rc = main(["trace", "convert-wc98", str(bin_path), "--out", str(out_csv)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "decoded 50 records" in out
        assert out_csv.exists()

    def test_missing_file_is_error_exit(self, capsys):
        rc = main(["trace", "info", "/nonexistent/trace.csv"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    """Every bad invocation must exit 2 with a diagnostic on stderr —
    never a traceback, never a zero exit."""

    def test_unknown_policy_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--policy", "bogus", *SMALL])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_unknown_policy_in_compare_list(self, capsys):
        # --policies is free-form CSV, so this surfaces at run time
        rc = main(["sweep", "--policies", "read,bogus", "--disks", "4", *SMALL])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown policy 'bogus'" in err

    def test_unknown_policy_fails_before_any_cell_or_checkpoint(self, capsys, tmp_path):
        # a bad name is not a transient cell failure: no cell runs, no
        # retry sleeps, and no checkpoint is journaled
        ckpt = tmp_path / "F"
        rc = main(["sweep", "--policies", "read,bogus", "--disks", "4",
                   *SMALL, "--checkpoint", str(ckpt)])
        assert rc == 2
        assert "unknown policy 'bogus'" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_bad_jobs_count(self, capsys):
        rc = main(["sweep", "--policies", "read", "--disks", "4",
                   "--jobs", "0", *SMALL])
        assert rc == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_missing_trace_file(self, capsys):
        rc = main(["trace", "info", "/nonexistent/trace.csv"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_wc98_binary(self, capsys):
        rc = main(["trace", "convert-wc98", "/nonexistent/day.bin",
                   "--out", "/tmp/out.csv"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, fragment", [
        ("accel=banana", "bad --faults value for 'accel'"),
        ("nonsense=1", "unknown --faults key"),
        ("seed", "expected key=value"),
        ("", "--faults spec must not be empty"),
        ("accel=-5", "accel"),
    ])
    def test_invalid_faults_spec(self, capsys, spec, fragment):
        rc = main(["simulate", "--policy", "read", "--faults", spec, *SMALL])
        assert rc == 2
        assert fragment in capsys.readouterr().err


class TestFaultsFlag:
    def test_simulate_with_faults_prints_reliability_block(self, capsys):
        rc = main(["simulate", "--policy", "read", "--disks", "4",
                   "--faults", "seed=3,accel=200000", *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault injection:" in out
        assert "availability" in out

    def test_compare_with_faults_prints_availability_series(self, capsys):
        rc = main(["sweep", "--policies", "read", "--disks", "4",
                   "--faults", "on", *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "availability [%]" in out
        assert "data-loss events" in out


class TestRedundancyFlag:
    def test_simulate_prints_redundancy_block(self, capsys):
        rc = main(["simulate", "--policy", "read", "--disks", "8",
                   "--redundancy", "block4-2",
                   "--faults", "seed=3,accel=200000", *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "redundancy [block4-2]: 1 group(s)" in out
        assert "degraded reads" in out
        assert "rebuild fan-out" in out
        assert "CTMC: MTTDL" in out

    def test_redundancy_none_is_a_plain_run(self, capsys):
        rc = main(["simulate", "--policy", "read", "--disks", "4",
                   "--redundancy", "none", *SMALL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "redundancy [" not in out

    def test_unknown_scheme_is_usage_error(self, capsys):
        rc = main(["simulate", "--policy", "read", "--disks", "8",
                   "--redundancy", "raid6", *SMALL])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown --redundancy scheme" in err
        assert "block4-2" in err  # the error names the candidates

    def test_redundancy_with_shards_prices_like_unsharded(self, capsys,
                                                          tmp_path):
        # faults off, a redundancy layout only adds the CTMC assessment of
        # the run's PRESS rates, so a sharded static sweep must report the
        # same redundancy table as the unsharded one
        args = ["sweep", "--policies", "static-high", "--disks", "4",
                "--redundancy", "mirror2", *SMALL]

        def redundancy_table(path):
            text = path.read_text()
            start = text.index("### Redundancy groups")
            return text[start:text.index("### Simulation runtime")]

        plain, sharded = tmp_path / "plain.md", tmp_path / "sharded.md"
        assert main([*args, "--report", str(plain)]) == 0
        assert main([*args, "--shards", "2", "--report", str(sharded)]) == 0
        assert "sharded execution: 2 shard(s)" in capsys.readouterr().out
        table = redundancy_table(sharded)
        assert "| static-high | 4 | mirror2 | 2 |" in table
        assert table == redundancy_table(plain)

    def test_worthwhile_reports_ctmc_and_loss_model(self, capsys):
        rc = main(["worthwhile", "--scheme", "read", "--reference",
                   "static-high", "--disks", "4",
                   "--redundancy", "mirror2", *SMALL])
        out = capsys.readouterr().out
        assert rc in (0, 3)
        assert "CTMC [mirror2]" in out
        assert "loss model         : ctmc" in out

    def test_worthwhile_without_redundancy_uses_legacy_model(self, capsys):
        rc = main(["worthwhile", "--scheme", "read", "--reference",
                   "static-high", "--disks", "4", *SMALL])
        out = capsys.readouterr().out
        assert rc in (0, 3)
        assert "loss model         : per-disk-afr" in out
