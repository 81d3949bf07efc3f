"""Tests of the benchmark itself, on tiny workload sizes.

Run from the repository root: ``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import cells  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3:
            printed[fields[0]] = fields[2]
    assert {k: printed.get(k) for k in expected} == expected
    assert any(line.split()[:1] == ["error_rate"] for line in lines)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def _perturb_call(monkeypatch, which: int, change) -> None:
    """Make the ``which``-th ``run_simulation`` call return a changed result."""
    real = cells.run_simulation
    calls = []

    def perturbed(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return change(result) if len(calls) == which else result

    monkeypatch.setattr(cells, "run_simulation", perturbed)


def test_a_perturbed_output_counts_as_a_failure(monkeypatch):
    _perturb_call(monkeypatch, 2, lambda r: dataclasses.replace(
        r, total_energy_j=r.total_energy_j + 1e-6))
    bench = run.Measurement(cells.FaultsBlock42(3, "tiny"), expected=None)
    for _ in range(3):
        bench.op()
    assert (bench.attempted, bench.failed) == (3, 1)
    assert len(bench.walls) == 2


def test_a_negative_energy_fails_the_first_operation(monkeypatch):
    _perturb_call(monkeypatch, 1, lambda r: dataclasses.replace(
        r, energy_breakdown_j={**r.energy_breakdown_j, "idle": -1.0}))
    bench = run.Measurement(cells.FaultsBlock42(3, "tiny"), expected=None)
    bench.op()
    assert bench.failed == 1
    assert any("idle = -1.0" in p for p in bench.problems)


def test_a_pinned_digest_mismatch_counts_as_a_failure():
    bench = run.Measurement(cells.FaultsBlock42(3, "tiny"), expected="0" * 64)
    bench.op()
    assert bench.failed == 1


def test_tracer_restores_every_binding():
    import repro.experiments.shard as shard
    from repro.sim.engine import Simulator

    before = (Simulator.run_until_drained, shard.merge_trace_files, cells.make_policy)
    tracer = Tracer()
    tracer.install()
    assert shard.merge_trace_files is not before[1]
    tracer.uninstall()
    assert (Simulator.run_until_drained, shard.merge_trace_files,
            cells.make_policy) == before


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "fig7-light", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
