"""run_cells: serial/parallel equivalence, ordering, error reporting."""

import dataclasses

import pytest

from repro.experiments.metrics import SimulationResult
from repro.experiments.parallel import (
    CellExecutionError,
    RunSpec,
    run_cell,
    run_cells,
)
from repro.workload.synthetic import SyntheticWorkloadConfig

SMALL = SyntheticWorkloadConfig(n_files=80, n_requests=2_000, seed=11,
                                mean_interarrival_s=0.01)
MEDIUM = SyntheticWorkloadConfig(n_files=120, n_requests=5_000, seed=11,
                                 bursty=True)


def grid_specs() -> list[RunSpec]:
    """3 policies x 2 sizes, two workload scales — the determinism grid."""
    return [RunSpec(policy=policy, n_disks=n, workload=workload)
            for workload in (SMALL, MEDIUM)
            for policy in ("read", "maid", "static-high")
            for n in (4, 6)]


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        specs = grid_specs()
        serial = run_cells(specs, jobs=1)
        parallel = run_cells(specs, jobs=4)
        assert len(serial) == len(parallel) == len(specs)
        for spec, a, b in zip(specs, serial, parallel):
            # SimulationResult is a plain dataclass of floats/tuples;
            # equality here is exact, not approximate.
            assert a == b, f"cell {spec.label()} diverged across jobs=1/jobs=4"

    def test_results_preserve_input_order(self):
        specs = grid_specs()
        results = run_cells(specs, jobs=4)
        for spec, result in zip(specs, results):
            assert result.policy_name == spec.policy
            assert result.n_disks == spec.n_disks

    def test_run_cell_matches_run_cells(self):
        spec = RunSpec(policy="read", n_disks=4, workload=SMALL)
        assert run_cell(spec) == run_cells([spec], jobs=1)[0]


class TestValidationAndErrors:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells([], jobs=0)

    def test_rejects_non_spec_items(self):
        with pytest.raises(ValueError, match="RunSpec"):
            run_cells([object()], jobs=1)

    def test_empty_specs_ok(self):
        assert run_cells([], jobs=1) == []
        assert run_cells([], jobs=4) == []

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_failure_carries_spec(self, jobs):
        good = RunSpec(policy="read", n_disks=4, workload=SMALL)
        bad = RunSpec(policy="no-such-policy", n_disks=4, workload=SMALL)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells([good, bad, good], jobs=jobs)
        assert excinfo.value.spec == bad
        assert "no-such-policy" in str(excinfo.value)
        assert isinstance(excinfo.value.cause, Exception)


class TestProgressLogging:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_cell_logged_started_and_finished(self, caplog, jobs):
        import logging

        specs = [RunSpec(policy=policy, n_disks=4, workload=SMALL)
                 for policy in ("read", "static-high")]
        with caplog.at_level(logging.INFO, logger="repro.sweep"):
            run_cells(specs, jobs=jobs)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "repro.sweep"]
        started = [m for m in messages if "started" in m]
        finished = [m for m in messages if "finished" in m]
        assert len(started) == len(finished) == len(specs)
        assert any("1/2" in m for m in started)
        assert any("2/2" in m for m in finished)
        for spec in specs:
            assert any(spec.label() in m for m in messages)

    def test_silent_without_opt_in(self, capsys):
        # the repro root logger carries a NullHandler: no handler opt-in,
        # no output on either stream
        run_cells([RunSpec(policy="read", n_disks=4, workload=SMALL)], jobs=1)
        captured = capsys.readouterr()
        assert "cell" not in captured.out
        assert "cell" not in captured.err


class TestRunSpec:
    def test_is_frozen_and_picklable(self):
        import pickle

        spec = RunSpec(policy="maid", n_disks=6, workload=SMALL,
                       policy_kwargs={"cache_fraction": 0.2})
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.policy = "read"
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.policy == "maid"
        assert dict(clone.policy_kwargs) == {"cache_fraction": 0.2}

    def test_label_names_the_cell(self):
        spec = RunSpec(policy="read", n_disks=8, workload=SMALL,
                       policy_kwargs={"adaptive_threshold": False})
        label = spec.label()
        assert "read" in label and "8" in label and "adaptive_threshold" in label

    def test_returns_simulation_results(self):
        result = run_cell(RunSpec(policy="static-high", n_disks=4, workload=SMALL))
        assert isinstance(result, SimulationResult)
        assert result.n_disks == 4


class TestRunCellBindingSite:
    """Every executor path calls ``parallel.run_cell`` looked up at call
    time.  ``perfbench/spans.py`` rebinds that attribute to time its
    ``shard.cell`` span (and ``shard.slowest_over_mean``); an executor
    that imported ``run_cell`` by name would bypass the rebinding and
    silently drop both from the per-layer report."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.experiments import parallel

        seen: list[RunSpec] = []
        real = parallel.run_cell

        def counting(spec):
            seen.append(spec)
            return real(spec)

        monkeypatch.setattr(parallel, "run_cell", counting)
        return seen

    def test_run_cells(self, calls):
        specs = [RunSpec(policy=p, n_disks=4, workload=SMALL)
                 for p in ("read", "static-high")]
        run_cells(specs, jobs=1)
        assert calls == specs

    def test_run_sharded(self, calls):
        from repro.experiments.shard import run_sharded

        run_sharded("static-high", SMALL, n_disks=4, n_shards=2, jobs=1)
        assert [s.shard.index for s in calls] == [0, 1]

    def test_figure7_comparison(self, calls):
        from repro.experiments.figures import figure7_comparison
        from repro.experiments.runner import ExperimentConfig

        figure7_comparison(ExperimentConfig(workload=SMALL), disk_counts=[4],
                           policies=["read", "static-high"], jobs=1)
        assert [(s.policy, s.n_disks) for s in calls] == [
            ("read", 4), ("static-high", 4)]
