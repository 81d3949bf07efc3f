"""Ablation sweeps (small instances; shape-level assertions)."""

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.experiments.sweeps import (
    sweep_idle_threshold,
    sweep_integrator_strategies,
    sweep_read_adaptive_threshold,
    sweep_read_migration,
    sweep_read_transition_cap,
)
from repro.workload.synthetic import SyntheticWorkloadConfig


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(workload=SyntheticWorkloadConfig(
        n_files=100, n_requests=4000, seed=5, mean_interarrival_s=0.01))


class TestIntegratorSweep:
    def test_all_strategies_present_and_ordered(self, cfg):
        out = sweep_integrator_strategies(cfg, n_disks=4)
        assert set(out) == {"mean_plus_adder", "max_plus_adder", "sum", "weighted"}
        # SUM dominates MEAN by construction
        assert out["sum"].array_afr_percent >= out["mean_plus_adder"].array_afr_percent
        # simulation itself identical across strategies
        energies = {round(r.total_energy_j, 6) for r in out.values()}
        assert len(energies) == 1

    def test_runs_exactly_one_simulation(self, cfg, monkeypatch):
        """The strategies only re-score; the trace must replay once."""
        import repro.experiments.sweeps as sweeps

        calls = []
        real_run_cell = sweeps.run_cell

        def counting_run_cell(spec):
            calls.append(spec)
            return real_run_cell(spec)

        monkeypatch.setattr(sweeps, "run_cell", counting_run_cell)
        out = sweep_integrator_strategies(cfg, n_disks=4)
        assert len(calls) == 1
        assert len(out) == len(set(out)) == 4

    def test_rescoring_matches_full_reruns(self, cfg):
        """Re-scored AFRs equal what a per-strategy re-run would produce."""
        from repro.press.integrator import CombinationStrategy
        from repro.press.model import PRESSModel

        out = sweep_integrator_strategies(cfg, n_disks=4)
        for strategy in CombinationStrategy:
            press = PRESSModel.with_strategy(strategy)
            result = out[strategy.value]
            afr, factors = press.rescore_factors(result.per_disk)
            assert result.array_afr_percent == pytest.approx(afr)
            for have, want in zip(result.per_disk, factors):
                assert have == want


class TestREADSweeps:
    def test_transition_cap_sweep_keys(self, cfg):
        out = sweep_read_transition_cap(cfg, caps=(4, 40), n_disks=4)
        assert set(out) == {4, 40}
        assert all(r.policy_name == "read" for r in out.values())

    def test_adaptive_threshold_sweep(self, cfg):
        out = sweep_read_adaptive_threshold(cfg, n_disks=4)
        assert set(out) == {"adaptive", "fixed"}
        assert out["adaptive"].policy_detail["adaptive_threshold"] is True
        assert out["fixed"].policy_detail["adaptive_threshold"] is False

    def test_migration_sweep(self, cfg):
        out = sweep_read_migration(cfg, n_disks=4)
        assert set(out) == {"frd_on", "frd_off"}
        # with FRD disabled there is no migration I/O at all
        assert out["frd_off"].internal_jobs == 0


class TestIdleThresholdSweep:
    def test_pdc_threshold_sweep(self, cfg):
        out = sweep_idle_threshold(cfg, thresholds_s=(1.0, 1000.0),
                                   policy="pdc", n_disks=4)
        assert set(out) == {1.0, 1000.0}
        # an unreachable threshold produces no spin-downs at all
        assert out[1000.0].total_transitions <= out[1.0].total_transitions

    def test_rejects_non_idling_policy(self, cfg):
        with pytest.raises(ValueError):
            sweep_idle_threshold(cfg, policy="static-high")


class TestFaultAccelerationSweep:
    def test_availability_degrades_with_acceleration(self, cfg):
        from repro.experiments.parallel import RunSpec, run_cell
        from repro.faults import FaultConfig
        low, high = (run_cell(RunSpec(
            policy="read", n_disks=4, workload=cfg.workload,
            disk_params=cfg.disk_params,
            faults=FaultConfig(seed=3, accel=accel))).faults
            for accel in (1e4, 5e6))
        assert low is not None and high is not None
        # stronger acceleration -> at least as many failures, no better
        # availability (same budgets at both points, only the scale moves)
        assert high.disk_failures >= low.disk_failures
        assert high.availability <= low.availability
