#!/usr/bin/env python
"""Capacity planning: pick the smallest array that meets an SLA *and* a
reliability target.

A storage operator has a web workload, a 30 ms mean-response-time SLA,
and a reliability ceiling (array AFR <= 12%).  This example sweeps array
sizes under each policy, prints which configurations qualify, and costs
the qualifying ones (3-year TCO: energy + expected failures) — the kind
of decision the PRESS model exists to inform (Sec. 3: "storage system
administrators can evaluate existing energy-saving schemes' impacts").
"""

from repro import ExperimentConfig, make_policy, run_simulation
from repro.experiments.costmodel import CostAssumptions, expected_failures_per_year
from repro.util.tables import format_table
from repro.util.units import SECONDS_PER_YEAR, joules_to_kwh
from repro.workload import SyntheticWorkloadConfig

SLA_MEAN_RESPONSE_S = 0.030
MAX_ARRAY_AFR_PERCENT = 12.0
PLANNING_YEARS = 3.0


def three_year_tco_usd(result, assumptions: CostAssumptions) -> float:
    """Energy + expected-failure cost over the planning horizon."""
    annual_energy_j = result.total_energy_j * SECONDS_PER_YEAR / result.duration_s
    energy_usd = (joules_to_kwh(annual_energy_j) * assumptions.electricity_usd_per_kwh
                  * assumptions.power_overhead_factor)
    failures = expected_failures_per_year(result.array_afr_percent, result.n_disks)
    return PLANNING_YEARS * (energy_usd + failures * assumptions.failure_cost_usd)


def main() -> None:
    config = ExperimentConfig(workload=SyntheticWorkloadConfig(
        n_files=1_500, n_requests=60_000, seed=3, bursty=True))
    fileset, trace = config.generate()
    assumptions = CostAssumptions()

    rows = []
    best = None
    for policy_name in ("read", "maid", "pdc", "static-high"):
        for n_disks in (6, 8, 10, 12):
            result = run_simulation(make_policy(policy_name), fileset, trace,
                                    n_disks=n_disks, disk_params=config.disk_params)
            meets_sla = result.mean_response_s <= SLA_MEAN_RESPONSE_S
            meets_afr = result.array_afr_percent <= MAX_ARRAY_AFR_PERCENT
            tco = three_year_tco_usd(result, assumptions)
            rows.append({
                "policy": policy_name,
                "disks": n_disks,
                "mrt_ms": f"{result.mean_response_s * 1e3:.1f}",
                "AFR_%": f"{result.array_afr_percent:.2f}",
                "3yr_TCO_$": f"{tco:,.0f}",
                "SLA": "ok" if meets_sla else "MISS",
                "reliability": "ok" if meets_afr else "MISS",
            })
            if meets_sla and meets_afr and (best is None or tco < best[2]):
                best = (policy_name, n_disks, tco)

    print(format_table(rows, title=(
        f"Capacity plan: SLA <= {SLA_MEAN_RESPONSE_S*1e3:.0f} ms mean response, "
        f"AFR <= {MAX_ARRAY_AFR_PERCENT:.0f}%, {PLANNING_YEARS:.0f}-year TCO")))

    if best:
        name, disks, tco = best
        print(f"\nrecommended: {name} on {disks} disks "
              f"(3-year TCO ${tco:,.0f} incl. energy and expected failures)")
    else:
        print("\nno configuration meets both targets — widen the sweep")


if __name__ == "__main__":
    main()
