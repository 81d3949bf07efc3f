"""Live sweep status feed: the executor's ledger, schema, atomic publish, reader.

The sweep executor attaches its own document builder to a
:class:`~repro.obs.status.SweepStatusWriter` and republishes on every
change, so the feed's counters and per-cell states are the executor's
own and must equal the :class:`ResilienceSummary` it returns; the
reader side (:func:`read_status` / :func:`format_status`) backs
``repro obs status``.
"""

import dataclasses
import json
import multiprocessing
import os
import resource
import sys
import time
from types import SimpleNamespace

import pytest

from repro.experiments import parallel
from repro.experiments import resilience as resil
from repro.experiments.parallel import CellExecutionError, RunSpec, run_cell
from repro.experiments.resilience import ResilienceConfig, run_cells_resilient
from repro.experiments.runner import _POLICY_REGISTRY
from repro.obs import status as status_mod
from repro.obs.status import (
    STATUS_VERSION,
    SweepStatusWriter,
    format_ledger,
    format_status,
    read_status,
)
from repro.policies.static import StaticHighPolicy
from repro.workload.synthetic import SyntheticWorkloadConfig

TINY = SyntheticWorkloadConfig(n_files=40, n_requests=600, seed=7,
                               mean_interarrival_s=0.01)


def tiny_specs(*policies: str) -> list[RunSpec]:
    return [RunSpec(policy=p, n_disks=4, workload=TINY) for p in policies]


def _writer(tmp_path, **kwargs):
    kwargs.setdefault("min_interval_s", 0.0)
    return SweepStatusWriter(tmp_path / "status.json", **kwargs)


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


def assert_one_ledger(doc, results, summary, specs):
    """The status document says what the executor returned."""
    ledger = dataclasses.asdict(summary)
    assert {key: doc[key] for key in ledger} == ledger
    assert doc["cells_done"] == len(results) == summary.cells_total
    assert doc["cells_running"] == []
    assert sorted(doc["cells"], key=int) == [str(i) for i in range(len(specs))]
    for i, (spec, result) in enumerate(zip(specs, results)):
        cell = doc["cells"][str(i)]
        assert cell["label"] == spec.label()
        if cell["state"] == "done":
            assert cell["events"] == result.events_executed
            assert cell["wall_s"] == result.wall_clock_s
        else:
            assert cell["state"] == "restored"
    states = [c["state"] for c in doc["cells"].values()]
    assert states.count("restored") == summary.checkpoint_hits
    assert states.count("done") == summary.cells_run
    assert sum(c["retries"] for c in doc["cells"].values()) == summary.retries
    assert doc["events_executed"] == sum(
        c.get("events", 0) for c in doc["cells"].values())


class TestEventFolding:
    """Each step of the executor — restore, start, finish, re-queue —
    republishes its ledger."""

    def test_full_sweep_lifecycle(self, tmp_path, monkeypatch):
        specs = tiny_specs("read", "maid", "static-high")
        ckpt = tmp_path / "sweep.ckpt"
        run_cells_resilient(specs[:1], checkpoint=ckpt)
        writer = _writer(tmp_path)
        seen = []
        real_run_cell = parallel.run_cell

        def spy(spec):
            seen.append(writer.snapshot())
            return real_run_cell(spec)

        monkeypatch.setattr(parallel, "run_cell", spy)
        results, summary = run_cells_resilient(specs, checkpoint=ckpt,
                                               status=writer)
        first, second = seen
        assert first["cells_running"] == [specs[1].label()]
        assert first["cells"]["2"]["state"] == "pending"
        # the restored cell took no time: no rate, so no ETA yet
        assert first["cells_done"] == 1 and first["eta_s"] is None
        doc = second  # while the third cell runs
        # one cell run in elapsed_s, one left
        assert doc["eta_s"] == pytest.approx(doc["elapsed_s"], abs=2e-3)
        assert doc["version"] == STATUS_VERSION
        assert doc["state"] == "running"
        assert doc["jobs"] == 1
        assert doc["cells_total"] == 3
        assert doc["cells_done"] == 2  # one finished + one restored
        assert doc["cells_running"] == [specs[2].label()]
        assert doc["events_executed"] == results[1].events_executed
        assert doc["events_per_sec"] == pytest.approx(
            results[1].events_executed / results[1].wall_clock_s)
        assert doc["checkpoint_hits"] == 1 and doc["cells_run"] == 1
        assert doc["cells"]["0"]["state"] == "restored"
        assert doc["cells"]["1"]["state"] == "done"
        assert_one_ledger(read_status(writer.path), results, summary, specs)

    def test_sweep_finish_flips_state_and_publishes(self, tmp_path):
        writer = _writer(tmp_path, min_interval_s=3600.0)
        run_cells_resilient(tiny_specs("read"), status=writer)
        doc = read_status(writer.path)  # forced publish despite throttle
        assert doc["state"] == "done"
        assert doc["cells_done"] == 1 and doc["eta_s"] is None

    def test_retry_and_fault_counters(self):
        specs = tiny_specs("read", "maid", "pdc")
        sweep = resil._Sweep(
            specs, jobs=2, checkpoint=None, status=None,
            config=ResilienceConfig(max_retries=2, cell_timeout_s=1.0))
        sweep.restore_from_checkpoint()
        first, second = sweep.pending.popleft(), sweep.pending.popleft()
        sweep.requeue_or_raise(first, TimeoutError("late"), timed_out=True)
        sweep.pool_respawns += 1
        sweep.cells_salvaged += 1
        sweep.pending.append(second)
        doc = sweep.status_document()
        assert doc["retries"] == 1
        assert doc["timeouts"] == 1
        assert doc["cells_salvaged"] == 1
        assert doc["pool_respawns"] == 1
        assert doc["cells_running"] == []
        assert doc["cells"]["0"] == {"label": specs[0].label(), "retries": 1,
                                     "state": "retrying"}
        assert doc["cells"]["1"]["state"] == "pending"
        assert doc["cells"]["2"]["state"] == "pending"
        assert "merges" not in doc and "checkpoint_publishes" not in doc

    def test_throttle_bounds_write_amplification(self, tmp_path):
        writer = _writer(tmp_path, min_interval_s=3600.0)
        builds = []
        writer.attach(lambda: builds.append(1) or {"cells": {}})
        for _ in range(50):
            writer.publish()
        assert writer.publishes == 1  # first write, then throttled
        assert len(builds) == 1  # a throttled publish builds nothing
        writer.finish()
        assert writer.publishes == 2

    def test_finish_supports_failure_state(self, tmp_path, monkeypatch):
        def failing(spec):
            raise OSError("cell bug")

        monkeypatch.setattr(parallel, "run_cell", failing)
        writer = _writer(tmp_path)
        with pytest.raises(CellExecutionError):
            run_cells_resilient(tiny_specs("read"), status=writer)
        assert read_status(writer.path)["state"] == "failed"

    def test_raising_cell_is_marked_failed(self, tmp_path, monkeypatch):
        def failing(spec):
            raise OSError("cell bug")

        monkeypatch.setattr(parallel, "run_cell", failing)
        writer = _writer(tmp_path)
        with pytest.raises(CellExecutionError):
            run_cells_resilient(tiny_specs("read", "maid"), status=writer)
        doc = read_status(writer.path)
        assert doc["cells"]["0"]["state"] == "failed"
        assert doc["cells"]["1"]["state"] == "pending"
        assert doc["cells_running"] == []
        assert f"  failed:\n    {tiny_specs('read')[0].label()}" in format_status(doc)

    def test_published_file_is_valid_json_with_newline(self, tmp_path):
        writer = _writer(tmp_path)
        writer.publish(force=True)
        text = writer.path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["version"] == STATUS_VERSION

    def test_negative_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepStatusWriter(tmp_path / "s.json", min_interval_s=-1.0)


class TestRssUnits:
    """``ru_maxrss`` is bytes on macOS and KiB elsewhere."""

    @pytest.mark.parametrize("platform, maxrss", [
        ("darwin", 300 * 2**20),
        ("linux", 300 * 2**10),
    ])
    def test_reports_mib(self, monkeypatch, platform, maxrss):
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage",
                            lambda who: SimpleNamespace(ru_maxrss=maxrss))
        assert status_mod._rss_mb() == 300.0


def die_then_hang_factory(log):
    """First call kills its worker, the second hangs past any timeout,
    later calls build static-high."""
    def factory():
        with open(log, "a") as fh:
            fh.write("call\n")
        calls = len(log.read_text().splitlines())
        if calls == 1:
            os._exit(137)
        if calls == 2:
            time.sleep(60.0)
        return StaticHighPolicy()
    return factory


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="worker-side policies need fork inheritance")
class TestFailedCellInPool:
    """The pool path names the cell that failed the sweep too."""

    def test_raising_cell(self, registry, tmp_path):
        def raiser():
            raise ValueError("deterministic cell bug")

        registry("_raiser", raiser)
        specs = tiny_specs("read", "_raiser")
        writer = _writer(tmp_path)
        with pytest.raises(CellExecutionError):
            run_cells_resilient(specs, jobs=2, status=writer)
        cells = read_status(writer.path)["cells"]
        assert cells["1"]["state"] == "failed"
        assert cells["0"]["state"] in ("done", "running")

    def test_exhausted_requeue(self, registry, tmp_path):
        registry("_kamikaze", lambda: os._exit(137))
        specs = [RunSpec(policy="_kamikaze", n_disks=4, workload=TINY),
                 RunSpec(policy="static-high", n_disks=4, workload=TINY)]
        writer = _writer(tmp_path)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells_resilient(specs, jobs=2, status=writer,
                                config=ResilienceConfig(max_retries=0))
        assert excinfo.value.spec == specs[0]
        assert read_status(writer.path)["cells"]["0"]["state"] == "failed"


class TestOneLedger:
    """The final status document equals the executor's return value."""

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="worker-kill policies need fork inheritance")
    def test_lost_worker_timeout_and_resume(self, registry, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(resil, "MAX_POOL_RESPAWNS", 4)
        registry("_diehang", die_then_hang_factory(tmp_path / "calls"))
        specs = tiny_specs("read", "_diehang", "static-high")
        ckpt = tmp_path / "sweep.ckpt"
        run_cells_resilient(specs[:1], checkpoint=ckpt)

        writer = _writer(tmp_path)
        results, summary = run_cells_resilient(
            specs, jobs=2, checkpoint=ckpt, status=writer,
            config=ResilienceConfig(max_retries=2, cell_timeout_s=2.0))

        assert summary.checkpoint_hits == 1 and summary.cells_run == 2
        assert summary.timeouts == 1 and summary.pool_respawns == 2
        assert summary.retries >= 2  # the static-high cell may be charged too
        clean = run_cell(specs[2])
        assert results == [run_cell(specs[0]), clean, clean]
        doc = read_status(writer.path)
        assert doc["state"] == "done" and doc["jobs"] == 2
        assert_one_ledger(doc, results, summary, specs)
        text = format_status(doc)
        assert "sweep done: 3/3 cells, jobs=2" in text
        assert format_ledger(dataclasses.asdict(summary)) in text

    def test_two_specs_one_label_stay_two_cells(self, tmp_path):
        other = dataclasses.replace(TINY, seed=8)
        specs = [RunSpec(policy="static-high", n_disks=4, workload=TINY),
                 RunSpec(policy="static-high", n_disks=4, workload=other)]
        assert specs[0].label() == specs[1].label()
        writer = _writer(tmp_path)
        results, summary = run_cells_resilient(specs, status=writer)
        doc = read_status(writer.path)
        assert doc["cells_done"] == doc["cells_total"] == 2
        assert_one_ledger(doc, results, summary, specs)
        assert "sweep done: 2/2 cells" in format_status(doc)


class TestReader:
    def test_read_rejects_non_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{torn", encoding="utf-8")
        with pytest.raises(ValueError, match="not a JSON status document"):
            read_status(p)

    def test_read_rejects_wrong_schema(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"other": 1}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a sweep status document"):
            read_status(p)

    def test_format_renders_progress_and_ledger(self):
        doc = {
            "version": STATUS_VERSION, "state": "running", "jobs": 4,
            "cells_total": 2, "cells_done": 0, "cells_running": ["read x 6 disks"],
            "cells_run": 0, "checkpoint_hits": 0, "retries": 1, "timeouts": 1,
            "pool_respawns": 1, "cells_salvaged": 0,
            "cells": {
                "0": {"label": "read x 6 disks", "state": "running", "retries": 0},
                "1": {"label": "read x 16 disks", "state": "retrying", "retries": 1},
            },
        }
        text = format_status(doc)
        assert "sweep running: 0/2 cells, jobs=4" in text
        assert "1 retried, 1 timed out, 1 pool respawn(s)" in text
        assert "    read x 6 disks" in text
        assert "read x 16 disks (retry 1)" in text

    def test_format_handles_minimal_document(self):
        text = format_status({"state": "done", "cells": {}})
        assert "sweep done" in text
