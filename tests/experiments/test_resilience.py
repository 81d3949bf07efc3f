"""Resilient sweep engine: retries, pool recovery, checkpoint resume.

The heart of this suite is the determinism-under-fault contract: a sweep
that crashed, retried, was interrupted, and resumed must produce results
bit-identical to one that ran clean.  Worker-kill tests register suicide
policies in the parent's registry and rely on ``fork`` inheritance, so
they are skipped on spawn-only platforms.
"""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import time
from typing import Optional

import pytest

from repro.experiments import parallel
from repro.experiments import resilience as resil
from repro.experiments.parallel import CellExecutionError, RunSpec, run_cell, run_cells
from repro.experiments.resilience import (
    CellTimeoutError,
    ResilienceConfig,
    ResilienceSummary,
    SweepCheckpoint,
    SweepInterrupted,
    run_cells_resilient,
    spec_key,
)
from repro.experiments.metrics import SimulationResult
from repro.experiments.runner import _POLICY_REGISTRY
from repro.experiments.shard import ShardCellResult
from repro.obs import events as obs_events
from repro.obs.bus import TraceBus
from repro.policies.static import StaticHighPolicy
from repro.workload.synthetic import SyntheticWorkloadConfig

TINY = SyntheticWorkloadConfig(n_files=40, n_requests=600, seed=7,
                               mean_interarrival_s=0.01)

#: Zero-backoff config so retry tests don't sleep.
FAST = ResilienceConfig(max_retries=2, retry_backoff_s=0.0)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="suicide-policy tests need fork inheritance of the registry")


def tiny_specs(*policies: str) -> list[RunSpec]:
    return [RunSpec(policy=p, n_disks=4, workload=TINY) for p in policies]


def clean_run(specs: list[RunSpec]) -> list:
    """The independent reference: each cell run directly, no executor."""
    return [run_cell(s) for s in specs]


@pytest.fixture
def registry():
    """Register throwaway policies; always deregister afterwards."""
    added: list[str] = []

    def register(name, factory):
        _POLICY_REGISTRY[name] = factory
        added.append(name)

    yield register
    for name in added:
        _POLICY_REGISTRY.pop(name, None)


class TestSpecKey:
    def test_equal_specs_share_a_key(self):
        a, b = tiny_specs("read", "read")
        assert spec_key(a) == spec_key(b)

    def test_any_field_change_changes_the_key(self):
        base = RunSpec(policy="read", n_disks=4, workload=TINY)
        variants = [
            RunSpec(policy="maid", n_disks=4, workload=TINY),
            RunSpec(policy="read", n_disks=6, workload=TINY),
            RunSpec(policy="read", n_disks=4,
                    workload=SyntheticWorkloadConfig(n_files=40, n_requests=600,
                                                     seed=8,
                                                     mean_interarrival_s=0.01)),
            RunSpec(policy="read", n_disks=4, workload=TINY,
                    policy_kwargs={"adaptive_threshold": False}),
        ]
        keys = {spec_key(s) for s in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_kwargs_insertion_order_does_not_split_keys(self):
        a = RunSpec(policy="maid", n_disks=4, workload=TINY,
                    policy_kwargs={"cache_fraction": 0.2, "idle_spindown_s": 30.0})
        b = RunSpec(policy="maid", n_disks=4, workload=TINY,
                    policy_kwargs={"idle_spindown_s": 30.0, "cache_fraction": 0.2})
        assert spec_key(a) == spec_key(b)


class TestResilienceConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"retry_backoff_s": -0.1},
        {"cell_timeout_s": 0.0},
        {"max_pool_respawns": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    def test_backoff_is_deterministic_per_spec_and_attempt(self):
        cfg = ResilienceConfig(retry_backoff_s=0.5)
        key = spec_key(tiny_specs("read")[0])
        assert cfg.backoff_s(key, 0) == cfg.backoff_s(key, 0)
        assert cfg.backoff_s(key, 0) != cfg.backoff_s(key, 1)

    def test_backoff_grows_exponentially_within_jitter(self):
        cfg = ResilienceConfig(retry_backoff_s=0.25)
        for attempt in range(4):
            base = 0.25 * 2 ** attempt
            assert base <= cfg.backoff_s("k", attempt) <= 1.5 * base

    def test_zero_backoff_stays_zero(self):
        assert FAST.backoff_s("k", 3) == 0.0


class TestSweepCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        spec = tiny_specs("static-high")[0]
        result = run_cell(spec)
        ckpt = SweepCheckpoint(path)
        ckpt.record(spec_key(spec), result)
        assert path.exists()

        reloaded = SweepCheckpoint(path)
        assert reloaded.loaded == 1
        assert reloaded.get(spec_key(spec)) == result
        assert spec_key(spec) in reloaded

    def test_missing_file_starts_empty(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "new.ckpt")
        assert len(ckpt) == 0 and ckpt.loaded == 0 and ckpt.quarantined is None

    def test_truncated_pickle_is_quarantined(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        spec = tiny_specs("static-high")[0]
        good = SweepCheckpoint(path)
        good.record(spec_key(spec), run_cell(spec))
        path.write_bytes(path.read_bytes()[:20])  # tear the journal

        ckpt = SweepCheckpoint(path)
        assert ckpt.loaded == 0
        assert ckpt.quarantined == tmp_path / "sweep.ckpt.corrupt"
        assert ckpt.quarantined.exists()
        assert not path.exists()  # corpse moved aside, path free for reuse

    def test_garbage_bytes_are_quarantined(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        path.write_bytes(b"this was never a pickle")
        ckpt = SweepCheckpoint(path)
        assert ckpt.loaded == 0 and ckpt.quarantined is not None

    def test_unknown_version_is_quarantined(self, tmp_path):
        # 1-6 are the hand-numbered versions of older result layouts
        # (loading one would shift later slots); the version is now a
        # layout digest, so none of them can match
        for version in (1, 2, 3, 4, 5, 6, 999):
            path = tmp_path / f"sweep-v{version}.ckpt"
            path.write_bytes(pickle.dumps({"version": version, "cells": {}}))
            ckpt = SweepCheckpoint(path)
            assert ckpt.loaded == 0 and ckpt.quarantined is not None

    def test_current_version_round_trips(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        result = run_cell(tiny_specs("read")[0])
        SweepCheckpoint(path).record("k", result)
        ckpt = SweepCheckpoint(path)
        assert ckpt.quarantined is None and ckpt.get("k") == result
        assert pickle.loads(path.read_bytes())["version"] == resil.checkpoint_version()


def _layout(extra_field: bool, nested_field: bool) -> type:
    """A root result class with a nested one, fields chosen by flags."""
    nested_fields = [("x", int)] + ([("y", int)] if nested_field else [])
    Nested = dataclasses.make_dataclass("Nested", nested_fields, frozen=True, slots=True)
    root_fields = [("a", int), ("inner", Optional[Nested])]
    root_fields += [("b", float)] if extra_field else []
    return dataclasses.make_dataclass("Root", root_fields, frozen=True, slots=True)


class TestCheckpointVersion:
    """The version is derived from the pickled layout, never bumped by hand."""

    def test_version_is_stable_for_one_layout(self):
        assert (resil.layout_version(_layout(False, False))
                == resil.layout_version(_layout(False, False)))

    def test_changing_a_root_field_changes_the_version(self):
        assert (resil.layout_version(_layout(True, False))
                != resil.layout_version(_layout(False, False)))

    def test_changing_a_nested_field_changes_the_version(self):
        assert (resil.layout_version(_layout(False, True))
                != resil.layout_version(_layout(False, False)))

    def test_dropping_a_result_field_changes_the_checkpoint_version(self):
        fields = [(f.name, f.type) for f in dataclasses.fields(SimulationResult)]
        shrunk = dataclasses.make_dataclass(
            "SimulationResult", fields[:-1], frozen=True, slots=True)
        shrunk.__module__ = SimulationResult.__module__
        assert (resil.layout_version(shrunk, ShardCellResult)
                != resil.checkpoint_version())

    def test_checkpoint_of_an_older_layout_is_quarantined(self, tmp_path):
        old = resil.layout_version(_layout(True, True))
        path = tmp_path / "sweep.ckpt"
        path.write_bytes(pickle.dumps({"version": old, "cells": {}}))
        ckpt = SweepCheckpoint(path)
        assert ckpt.loaded == 0 and ckpt.quarantined is not None


class TestRunCellResilient:
    """One cell through ``run_cells(..., resilience=...)``."""

    def test_clean_cell_matches_plain_run_cell(self):
        spec = tiny_specs("read")[0]
        assert run_cells([spec], jobs=1, resilience=FAST) == [run_cell(spec)]

    def test_flaky_cell_retries_to_success(self, monkeypatch):
        spec = tiny_specs("read")[0]
        calls = {"n": 0}
        real = run_cell

        def flaky(s):
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return real(s)

        monkeypatch.setattr(parallel, "run_cell", flaky)
        assert run_cells([spec], jobs=1, resilience=FAST) == [real(spec)]
        assert calls["n"] == 3

    def test_budget_exhaustion_raises_with_spec_and_cause(self, monkeypatch):
        spec = tiny_specs("read")[0]
        monkeypatch.setattr(parallel, "run_cell",
                            lambda s: (_ for _ in ()).throw(OSError("always")))
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells([spec], jobs=1,
                      resilience=ResilienceConfig(max_retries=1,
                                                  retry_backoff_s=0.0))
        assert excinfo.value.spec == spec
        assert isinstance(excinfo.value.cause, OSError)


class TestSerialEngine:
    def test_matches_run_cells_bit_for_bit(self):
        specs = tiny_specs("read", "maid", "static-high")
        results, summary = run_cells_resilient(specs, jobs=1, config=FAST)
        assert results == clean_run(specs)
        assert summary == ResilienceSummary(cells_total=3, cells_run=3)
        assert not summary.eventful

    def test_default_config_fails_fast(self, monkeypatch):
        calls = []

        def failing(s):
            calls.append(s)
            raise OSError("transient")

        monkeypatch.setattr(parallel, "run_cell", failing)
        with pytest.raises(CellExecutionError):
            run_cells_resilient(tiny_specs("read"), jobs=1)
        assert len(calls) == 1

    def test_retries_are_counted_and_results_unchanged(self, monkeypatch):
        specs = tiny_specs("read", "static-high")
        expected = clean_run(specs)
        failures = {"left": 2}
        real = run_cell

        def flaky(s):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient")
            return real(s)

        monkeypatch.setattr(parallel, "run_cell", flaky)
        results, summary = run_cells_resilient(specs, jobs=1, config=FAST)
        assert results == expected
        assert summary.retries == 2 and summary.cells_run == 2

    def test_harness_retry_events_reach_the_bus(self, monkeypatch):
        specs = tiny_specs("read")
        failures = {"left": 1}
        real = run_cell

        def flaky(s):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient")
            return real(s)

        monkeypatch.setattr(parallel, "run_cell", flaky)
        bus = TraceBus()
        seen = []
        bus.subscribe(seen.append)
        run_cells_resilient(specs, jobs=1, config=FAST, bus=bus)
        retry = [e for e in seen if e.type == obs_events.HARNESS_CELL_RETRY]
        assert len(retry) == 1
        assert retry[0].data["attempt"] == 1
        assert retry[0].data["reason"] == "OSError"


class TestCheckpointResume:
    """The acceptance criterion: resumed == uninterrupted, bit for bit."""

    def test_resume_skips_done_cells_and_matches_clean_run(self, tmp_path):
        specs = tiny_specs("read", "maid", "static-high")
        clean = clean_run(specs)
        ckpt_path = tmp_path / "sweep.ckpt"

        # phase 1: only the first two cells, journaled
        first, summary1 = run_cells_resilient(specs[:2], jobs=1, config=FAST,
                                              checkpoint=ckpt_path)
        assert summary1.cells_run == 2 and summary1.checkpoint_hits == 0

        # phase 2: the full grid resumes over the same journal
        resumed, summary2 = run_cells_resilient(specs, jobs=1, config=FAST,
                                                checkpoint=ckpt_path)
        assert resumed == clean
        assert summary2.checkpoint_hits == 2 and summary2.cells_run == 1
        assert first == resumed[:2]

    def test_checkpoint_hits_emit_bus_events(self, tmp_path):
        specs = tiny_specs("read", "static-high")
        ckpt_path = tmp_path / "sweep.ckpt"
        run_cells_resilient(specs, jobs=1, config=FAST, checkpoint=ckpt_path)

        bus = TraceBus()
        seen = []
        bus.subscribe(seen.append)
        _, summary = run_cells_resilient(specs, jobs=1, config=FAST,
                                         checkpoint=ckpt_path, bus=bus)
        hits = [e for e in seen if e.type == obs_events.HARNESS_CHECKPOINT_HIT]
        assert len(hits) == 2 == summary.checkpoint_hits
        assert summary.cells_run == 0

    def test_corrupt_checkpoint_restarts_fresh(self, tmp_path):
        specs = tiny_specs("read", "static-high")
        ckpt_path = tmp_path / "sweep.ckpt"
        ckpt_path.write_bytes(b"\x80\x04 torn mid-write")
        results, summary = run_cells_resilient(specs, jobs=1, config=FAST,
                                               checkpoint=ckpt_path)
        assert results == clean_run(specs)
        assert summary.checkpoint_hits == 0 and summary.cells_run == 2
        assert (tmp_path / "sweep.ckpt.corrupt").exists()
        # the fresh journal was republished and is loadable
        assert SweepCheckpoint(ckpt_path).loaded == 2

    def test_changed_spec_invalidates_the_entry(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt"
        run_cells_resilient(tiny_specs("read"), jobs=1, config=FAST,
                            checkpoint=ckpt_path)
        other = [RunSpec(policy="read", n_disks=6, workload=TINY)]
        _, summary = run_cells_resilient(other, jobs=1, config=FAST,
                                         checkpoint=ckpt_path)
        assert summary.checkpoint_hits == 0 and summary.cells_run == 1


class TestInterrupt:
    def test_second_signal_escalates(self):
        flag = resil._InterruptFlag()
        flag(signal.SIGINT, None)
        assert flag.tripped
        with pytest.raises(KeyboardInterrupt):
            flag(signal.SIGINT, None)

    def test_sigint_drains_flushes_and_hints_resume(self, tmp_path, monkeypatch):
        specs = tiny_specs("read", "maid", "static-high")
        ckpt_path = tmp_path / "sweep.ckpt"
        state = {"calls": 0, "kill_at": 2}
        real = run_cell

        def wrapper(s):
            result = real(s)
            state["calls"] += 1
            if state["calls"] == state["kill_at"]:
                os.kill(os.getpid(), signal.SIGINT)  # handler sets the flag
            return result

        monkeypatch.setattr(parallel, "run_cell", wrapper)
        with pytest.raises(SweepInterrupted) as excinfo:
            run_cells_resilient(specs, jobs=1, config=FAST,
                                checkpoint=ckpt_path)
        exc = excinfo.value
        assert exc.done == 2 and exc.total == 3
        assert exc.checkpoint_path == ckpt_path
        assert f"--resume {ckpt_path}" in str(exc)
        # the interrupted cells are already journaled
        assert SweepCheckpoint(ckpt_path).loaded == 2

        # picking the sweep back up completes it, bit-identical to clean
        state["kill_at"] = None
        resumed, summary = run_cells_resilient(specs, jobs=1, config=FAST,
                                               checkpoint=ckpt_path)
        assert resumed == clean_run(specs)
        assert summary.checkpoint_hits == 2 and summary.cells_run == 1

    def test_interrupt_without_checkpoint_says_so(self, monkeypatch):
        specs = tiny_specs("read", "static-high")
        monkeypatch.setattr(
            parallel, "run_cell",
            lambda s: (_ for _ in ()).throw(KeyboardInterrupt()))
        with pytest.raises(SweepInterrupted) as excinfo:
            run_cells_resilient(specs, jobs=1, config=FAST)
        assert "no checkpoint" in str(excinfo.value)


@fork_only
class TestPoolRecovery:
    def test_worker_kill_exhausts_budget_and_names_the_cell(self, registry):
        registry("_kamikaze", lambda: os._exit(137))
        # both cells are suicidal: when the pool breaks, every in-flight
        # future raises, so any charged cell is legitimately the culprit
        specs = [RunSpec(policy="_kamikaze", n_disks=4, workload=TINY),
                 RunSpec(policy="_kamikaze", n_disks=6, workload=TINY)]
        cfg = ResilienceConfig(max_retries=0, retry_backoff_s=0.0,
                               max_pool_respawns=4)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells_resilient(specs, jobs=2, config=cfg)
        assert excinfo.value.spec.policy == "_kamikaze"

    def test_kill_once_recovers_bit_identical(self, registry, tmp_path):
        flag = tmp_path / "died-once"

        def kill_once():
            if not flag.exists():
                flag.write_text("x")
                os._exit(137)
            return StaticHighPolicy()

        registry("_killonce", kill_once)
        specs = [RunSpec(policy="read", n_disks=4, workload=TINY),
                 RunSpec(policy="_killonce", n_disks=4, workload=TINY),
                 RunSpec(policy="static-high", n_disks=4, workload=TINY)]
        cfg = ResilienceConfig(max_retries=2, retry_backoff_s=0.0,
                               max_pool_respawns=4)
        results, summary = run_cells_resilient(specs, jobs=2, config=cfg)

        # the crashed-and-retried cell is a static-high run in disguise;
        # its result must match a clean in-process run of the same cell
        clean = run_cell(RunSpec(policy="static-high", n_disks=4, workload=TINY))
        assert results[1] == clean
        assert results[0] == run_cell(specs[0])
        assert results[2] == clean
        assert summary.pool_respawns >= 1
        assert summary.retries + summary.cells_salvaged >= 1

    def test_survivors_reach_the_checkpoint(self, registry, tmp_path):
        registry("_kamikaze", lambda: os._exit(137))
        ckpt_path = tmp_path / "sweep.ckpt"
        good = [RunSpec(policy="read", n_disks=4, workload=TINY),
                RunSpec(policy="static-high", n_disks=4, workload=TINY)]
        specs = good + [RunSpec(policy="_kamikaze", n_disks=4, workload=TINY)]
        cfg = ResilienceConfig(max_retries=1, retry_backoff_s=0.0,
                               max_pool_respawns=6)
        with pytest.raises(CellExecutionError):
            run_cells_resilient(specs, jobs=2, config=cfg,
                                checkpoint=ckpt_path)

        # resume over the good cells only: anything journaled is reused,
        # and the final results match a clean run exactly
        results, summary = run_cells_resilient(good, jobs=1, config=FAST,
                                               checkpoint=ckpt_path)
        assert results == clean_run(good)
        assert summary.checkpoint_hits + summary.cells_run == len(good)

    def test_pool_results_match_serial(self):
        specs = tiny_specs("read", "maid", "static-high", "pdc")
        pooled, summary = run_cells_resilient(specs, jobs=2, config=FAST)
        assert pooled == clean_run(specs)
        assert summary.cells_run == 4 and not summary.eventful


@fork_only
class TestPoolTimeout:
    def test_hung_cell_times_out_without_watchdog(self, registry):
        def sleeper():
            time.sleep(60.0)
            return StaticHighPolicy()  # pragma: no cover - killed first

        registry("_sleeper", sleeper)
        specs = [RunSpec(policy="read", n_disks=4, workload=TINY),
                 RunSpec(policy="_sleeper", n_disks=4, workload=TINY)]
        cfg = ResilienceConfig(max_retries=0, retry_backoff_s=0.0,
                               cell_timeout_s=2.0, max_pool_respawns=4,
                               watchdog=False)
        start = time.monotonic()
        with pytest.raises(CellTimeoutError) as excinfo:
            run_cells_resilient(specs, jobs=2, config=cfg)
        assert excinfo.value.spec.policy == "_sleeper"
        assert excinfo.value.timeout_s == 2.0
        assert time.monotonic() - start < 30.0  # nowhere near the 60s hang


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells_resilient([], jobs=0)

    def test_rejects_non_specs(self):
        with pytest.raises(ValueError, match="RunSpec"):
            run_cells_resilient([object()], jobs=1)

    def test_empty_specs(self, tmp_path):
        results, summary = run_cells_resilient([], jobs=1)
        assert results == [] and summary.cells_total == 0

    def test_summary_row_is_flat(self):
        row = ResilienceSummary(cells_total=3, cells_run=2,
                                checkpoint_hits=1).summary_row()
        assert row["cells_total"] == 3 and row["checkpoint_hits"] == 1


class TestRunCellsDelegation:
    def test_run_cells_resilience_kwarg_matches_plain(self):
        specs = tiny_specs("read", "static-high")
        assert run_cells(specs, jobs=1, resilience=FAST) == clean_run(specs)

    def test_run_cells_checkpoint_kwarg_round_trips(self, tmp_path):
        specs = tiny_specs("read", "static-high")
        ckpt_path = tmp_path / "sweep.ckpt"
        first = run_cells(specs, jobs=1, checkpoint=ckpt_path)
        again = run_cells(specs, jobs=1, checkpoint=ckpt_path)
        assert first == again == clean_run(specs)

    def test_figure7_attaches_resilience_summary_and_report_section(self, tmp_path):
        from repro.experiments.figures import figure7_comparison
        from repro.experiments.report import render_markdown_report
        from repro.experiments.runner import ExperimentConfig

        config = ExperimentConfig(workload=TINY)
        ckpt_path = tmp_path / "fig7.ckpt"
        fig7 = figure7_comparison(config, disk_counts=[4],
                                  policies=["read", "static-high"],
                                  checkpoint=ckpt_path)
        assert fig7.resilience is not None
        assert fig7.resilience.cells_total == 2

        resumed = figure7_comparison(config, disk_counts=[4],
                                     policies=["read", "static-high"],
                                     checkpoint=ckpt_path)
        assert resumed.results == fig7.results
        assert resumed.resilience.checkpoint_hits == 2
        report = render_markdown_report(resumed)
        assert "Harness resilience" in report
        assert "identical to an uninterrupted sweep" in report

    def test_plain_figure7_has_uneventful_resilience_summary(self):
        from repro.experiments.figures import figure7_comparison
        from repro.experiments.runner import ExperimentConfig

        fig7 = figure7_comparison(ExperimentConfig(workload=TINY),
                                  disk_counts=[4], policies=["read"])
        assert fig7.resilience == ResilienceSummary(cells_total=1, cells_run=1)
        assert not fig7.resilience.eventful


class TestPlainSweepHarnessEvents:
    """A sweep given only a bus (no resilience, no checkpoint) still
    reports its sweep and cell spans on it."""

    @staticmethod
    def _recording_bus():
        bus = TraceBus()
        seen = []
        bus.subscribe(seen.append)
        return bus, seen

    def test_plain_figure7_emits_sweep_and_cell_spans(self):
        from repro.experiments.figures import figure7_comparison
        from repro.experiments.runner import ExperimentConfig

        bus, seen = self._recording_bus()
        figure7_comparison(ExperimentConfig(workload=TINY), disk_counts=[4],
                           policies=["read", "static-high"], bus=bus)
        assert [e.type for e in seen] == [
            obs_events.HARNESS_SWEEP_START,
            obs_events.HARNESS_CELL_START, obs_events.HARNESS_CELL_FINISH,
            obs_events.HARNESS_CELL_START, obs_events.HARNESS_CELL_FINISH,
            obs_events.HARNESS_SWEEP_FINISH,
        ]
        assert seen[0].data["cells"] == 2

    def test_plain_run_sharded_emits_shard_spans_and_merge(self):
        from repro.experiments.shard import run_sharded

        bus, seen = self._recording_bus()
        _, summary = run_sharded("static-high", TINY, n_disks=4, n_shards=2,
                                 bus=bus)
        assert [e.type for e in seen] == [
            obs_events.HARNESS_SWEEP_START,
            obs_events.HARNESS_CELL_START, obs_events.HARNESS_CELL_FINISH,
            obs_events.HARNESS_CELL_START, obs_events.HARNESS_CELL_FINISH,
            obs_events.HARNESS_SWEEP_FINISH,
            obs_events.HARNESS_SHARD_MERGE,
        ]
        assert summary == ResilienceSummary(cells_total=2, cells_run=2)
