"""The title question in dollars — "is it worthwhile?"

Compares each scheme against the no-energy-management array with the
Sec. 3.5 cost argument made explicit: annualized energy savings vs
annualized expected failure cost, under reliability-critical and
scratch-storage assumptions.
"""

from conftest import record_table
from repro.experiments.costmodel import CostAssumptions, evaluate_worthwhileness
from repro.util.tables import format_table
from repro.experiments.runner import make_policy, run_simulation


def test_worthwhileness_verdicts(benchmark, light_config, scale_params):
    fileset, trace = light_config.generate()
    n_disks = 10

    def run_all():
        out = {}
        for name in ("static-high", "read", "maid", "pdc"):
            out[name] = run_simulation(make_policy(name), fileset, trace,
                                       n_disks=n_disks,
                                       disk_params=light_config.disk_params)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    reference = results["static-high"]

    assumption_sets = {
        "reliability-critical (OLTP/Web, Sec. 2)": CostAssumptions(),
        "scratch storage (no data value)": CostAssumptions(data_loss_cost_usd=0.0,
                                                           disk_replacement_usd=300.0),
    }
    rows = []
    for label, assumptions in assumption_sets.items():
        for name in ("read", "maid", "pdc"):
            verdict = evaluate_worthwhileness(results[name], reference, assumptions)
            rows.append({
                "assumptions": label,
                "scheme": name,
                "energy_$saved/yr": f"{verdict.energy_saving_usd_per_year:+.0f}",
                "failure_$cost/yr": f"{verdict.extra_failure_cost_usd_per_year:+.0f}",
                "net_$/yr": f"{verdict.net_benefit_usd_per_year:+.0f}",
                "worthwhile": verdict.worthwhile,
            })
    record_table("Title question: is the energy saving worth the reliability loss?",
                 format_table(rows))

    # the thesis: READ is worthwhile under critical assumptions; the
    # churny baselines are not
    critical = assumption_sets["reliability-critical (OLTP/Web, Sec. 2)"]
    assert evaluate_worthwhileness(results["read"], reference, critical).worthwhile
    assert not evaluate_worthwhileness(results["pdc"], reference, critical).worthwhile
