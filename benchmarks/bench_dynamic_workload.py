"""The "fully dynamic environment" experiment (paper Sec. 6, future work 1).

"First, we will extend our scheme to a fully dynamic environment, where
file access patterns can dramatically change in a short period of time.
As a result, a high file redistribution cost may arise ... One possible
solution is to use file replication technique."

This bench sweeps popularity drift from static to violent and measures
(a) how READ's FRD migration volume grows with drift — the predicted
cost — and (b) whether the replication extension absorbs some of it.
"""

from conftest import record_table
from repro.util.tables import format_table
from repro.experiments.runner import ExperimentConfig, make_policy, run_simulation
from repro.workload.analysis import popularity_churn
from repro.workload.synthetic import SyntheticWorkloadConfig

DRIFTS = (0.0, 0.2, 0.5, 0.8)


def test_redistribution_cost_grows_with_drift(benchmark, scale_params):
    def run_sweep():
        out = {}
        for drift in DRIFTS:
            cfg = ExperimentConfig(workload=SyntheticWorkloadConfig(
                n_files=min(scale_params["n_files"], 1_000),
                n_requests=min(scale_params["n_requests"], 50_000),
                seed=21, bursty=True, popularity_drift=drift,
                drift_segments=8))
            fileset, trace = cfg.generate()
            _, jaccard = popularity_churn(trace, len(fileset),
                                          trace.duration_s / 8)
            for name in ("read", "read-replicate"):
                policy = make_policy(name, epoch_s=trace.duration_s / 8)
                result = run_simulation(policy, fileset, trace, n_disks=10,
                                        disk_params=cfg.disk_params)
                out[(drift, name)] = (result, policy, float(jaccard.mean()))
        return out

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for (drift, name), (result, policy, jac) in sorted(results.items()):
        rows.append({
            "drift": drift,
            "policy": name,
            "top50_overlap": f"{jac:.2f}",
            "migrations": getattr(policy, "migrations_performed", 0),
            "internal_jobs": result.internal_jobs,
            "AFR_%": f"{result.array_afr_percent:.2f}",
            "mrt_ms": f"{result.mean_response_s * 1e3:.2f}",
            "energy_kJ": f"{result.total_energy_j / 1e3:.0f}",
        })
    record_table(
        "Future work 1: redistribution cost vs popularity drift (READ, 10 disks)",
        format_table(rows))

    # the predicted effect: more drift, more FRD migrations
    read_migrations = {drift: results[(drift, "read")][1].migrations_performed
                       for drift in DRIFTS}
    assert read_migrations[0.8] > read_migrations[0.0]
