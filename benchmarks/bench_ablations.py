"""Ablations over the design choices DESIGN.md documents.

* integrator combination strategy (the paper leaves the fusion rule
  unspecified — how much does the choice move the Fig. 7a conclusion?);
* READ's transition cap S (Sec. 5.2 uses S = 40);
* READ's adaptive idleness threshold (Fig. 6 line 22) on/off;
* READ's FRD migration on/off;
* the idleness threshold H for the churny baselines.
"""

from conftest import record_table
from repro.util.tables import format_table
from repro.experiments.sweeps import (
    sweep_idle_threshold,
    sweep_integrator_strategies,
    sweep_read_adaptive_threshold,
    sweep_read_migration,
    sweep_read_transition_cap,
)


def _rows(results, key_label):
    rows = []
    for key, r in results.items():
        rows.append({
            key_label: key,
            "AFR_%": f"{r.array_afr_percent:.2f}",
            "energy_kJ": f"{r.total_energy_j / 1e3:.0f}",
            "mrt_ms": f"{r.mean_response_s * 1e3:.2f}",
            "transitions": r.total_transitions,
        })
    return rows


def test_integrator_strategy_ablation(benchmark, light_config):
    out = benchmark.pedantic(sweep_integrator_strategies, args=(light_config,),
                             kwargs=dict(n_disks=10), rounds=1, iterations=1)
    record_table("Ablation: PRESS integrator combination strategy (READ, 10 disks)",
                 format_table(_rows(out, "strategy")))
    # the conclusion is strategy-independent in sign: AFR ordering of the
    # strategies is the documented dominance chain
    assert out["sum"].array_afr_percent >= out["max_plus_adder"].array_afr_percent
    assert out["max_plus_adder"].array_afr_percent >= out["mean_plus_adder"].array_afr_percent


def test_read_transition_cap_ablation(benchmark, light_config):
    out = benchmark.pedantic(sweep_read_transition_cap, args=(light_config,),
                             kwargs=dict(caps=(4, 10, 40, 200), n_disks=10),
                             rounds=1, iterations=1)
    record_table("Ablation: READ transition cap S (paper uses S=40)",
                 format_table(_rows(out, "cap_S")))
    # a tighter cap can never allow more transitions
    assert out[4].total_transitions <= out[200].total_transitions


def test_read_adaptive_threshold_ablation(benchmark, light_config):
    out = benchmark.pedantic(sweep_read_adaptive_threshold, args=(light_config,),
                             kwargs=dict(n_disks=10), rounds=1, iterations=1)
    record_table("Ablation: READ adaptive idleness threshold (Fig. 6 line 22)",
                 format_table(_rows(out, "variant")))
    assert out["adaptive"].total_transitions <= out["fixed"].total_transitions


def test_read_migration_ablation(benchmark, light_config):
    out = benchmark.pedantic(sweep_read_migration, args=(light_config,),
                             kwargs=dict(n_disks=10), rounds=1, iterations=1)
    record_table("Ablation: READ File Redistribution Daemon on/off",
                 format_table(_rows(out, "variant")))
    assert out["frd_off"].internal_jobs == 0
    assert out["frd_on"].internal_jobs > 0


def test_idle_threshold_ablation(benchmark, light_config):
    out = benchmark.pedantic(sweep_idle_threshold, args=(light_config,),
                             kwargs=dict(thresholds_s=(5.0, 20.0, 120.0),
                                         policy="pdc", n_disks=10),
                             rounds=1, iterations=1)
    record_table("Ablation: PDC idleness threshold H (churn knife-edge, Sec. 5.2)",
                 format_table(_rows(out, "H_seconds")))
    assert out[120.0].total_transitions <= out[5.0].total_transitions
