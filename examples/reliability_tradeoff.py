#!/usr/bin/env python
"""The title question, quantified: when IS it worthwhile to sacrifice
reliability for energy?

Compares each energy-saving scheme against the always-on array while
sweeping the two economic knobs that decide the answer — electricity
price and the value of the data on a failed disk — and reports the
break-even data value per scheme.  This operationalizes Sec. 3.5's
qualitative claim that "the value of lost data plus the price of failed
disks substantially outweigh the energy-saving gained".
"""

import numpy as np

from repro import ExperimentConfig, make_policy, run_simulation
from repro.experiments.costmodel import CostAssumptions, evaluate_worthwhileness
from repro.util.tables import format_table
from repro.workload import SyntheticWorkloadConfig


def break_even_data_value(scheme, reference, *, electricity: float) -> float:
    """Data-loss $ value at which the scheme's net benefit hits zero.

    Net = energy$ - d(failures) * (replacement + data_value); solve for
    data_value.  Returns inf when the scheme is *more* reliable (no
    break-even: it wins at any data value), and 0 when it saves no
    energy at all.
    """
    a0 = CostAssumptions(electricity_usd_per_kwh=electricity, data_loss_cost_usd=0.0)
    v0 = evaluate_worthwhileness(scheme, reference, a0)
    a1 = CostAssumptions(electricity_usd_per_kwh=electricity, data_loss_cost_usd=1.0)
    v1 = evaluate_worthwhileness(scheme, reference, a1)
    failure_delta_per_usd = (v1.extra_failure_cost_usd_per_year
                             - v0.extra_failure_cost_usd_per_year)
    if failure_delta_per_usd <= 0:
        return float("inf")
    remaining = v0.net_benefit_usd_per_year
    return max(0.0, remaining / failure_delta_per_usd)


def main() -> None:
    config = ExperimentConfig(workload=SyntheticWorkloadConfig(
        n_files=1_500, n_requests=60_000, seed=11, bursty=True))
    fileset, trace = config.generate()

    print("simulating 10-disk array under each policy ...")
    results = {name: run_simulation(make_policy(name), fileset, trace,
                                    n_disks=10, disk_params=config.disk_params)
               for name in ("static-high", "read", "maid", "pdc")}
    reference = results["static-high"]

    # verdict matrix across economic assumptions
    rows = []
    for electricity in (0.05, 0.10, 0.30):
        for data_value in (0.0, 1_000.0, 10_000.0):
            assumptions = CostAssumptions(electricity_usd_per_kwh=electricity,
                                          data_loss_cost_usd=data_value)
            row = {"elec_$/kWh": electricity, "data_value_$": f"{data_value:,.0f}"}
            for name in ("read", "maid", "pdc"):
                verdict = evaluate_worthwhileness(results[name], reference, assumptions)
                row[name] = (f"{'YES' if verdict.worthwhile else 'no ':>3} "
                             f"({verdict.net_benefit_usd_per_year:+,.0f}$/yr)")
            rows.append(row)
    print()
    print(format_table(rows, title="Is it worthwhile? (net $/yr vs always-on array)"))

    print("\nbreak-even data value per failed disk (at $0.10/kWh):")
    for name in ("read", "maid", "pdc"):
        be = break_even_data_value(results[name], reference, electricity=0.10)
        afr_delta = (results[name].array_afr_percent - reference.array_afr_percent)
        label = "always worthwhile (no reliability loss)" if np.isinf(be) else f"${be:,.0f}"
        print(f"  {name:6s}: dAFR {afr_delta:+6.2f} pts -> break-even {label}")

    print("\nreading: a scheme is only 'worthwhile' while the data on a disk is "
          "worth less than its break-even value — the paper's thesis, priced.")


if __name__ == "__main__":
    main()
