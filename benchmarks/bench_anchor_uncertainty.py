"""Digitization-uncertainty sweep — does the reproduction's one soft
spot matter?

The temperature/utilization anchors are digitized from published bar
charts (DESIGN.md).  This bench re-scores the same Fig. 7-style
comparison under every anchor preset (low/high reading errors, the
rejected 4-year temperature curve, a flat utilization reading) and
verifies the paper's ordering — READ < MAID < PDC on array AFR — holds
under all of them.  Simulations run once; only the PRESS scoring varies.
"""

from conftest import record_table
from repro.util.tables import format_table
from repro.experiments.runner import make_policy, run_simulation
from repro.press.presets import press_model_preset, preset_names


def test_orderings_stable_across_anchor_presets(benchmark, light_config):
    fileset, trace = light_config.generate()

    def run_three():
        return {name: run_simulation(make_policy(name), fileset, trace,
                                     n_disks=10, disk_params=light_config.disk_params)
                for name in ("read", "maid", "pdc")}

    results = benchmark.pedantic(run_three, rounds=1, iterations=1)

    rows = []
    violations = []
    for temp_name, util_name in preset_names():
        model = press_model_preset(temp_name, util_name)
        afrs = {}
        for policy, result in results.items():
            per_disk = [model.disk_afr(f.mean_temperature_c,
                                       f.utilization_percent,
                                       f.transitions_per_day)
                        for f in result.per_disk]
            afrs[policy] = max(per_disk)
        ordered = afrs["read"] <= afrs["maid"] <= afrs["pdc"]
        if not ordered:
            violations.append((temp_name, util_name))
        rows.append({
            "temp_preset": temp_name,
            "util_preset": util_name,
            "read_AFR_%": f"{afrs['read']:.2f}",
            "maid_AFR_%": f"{afrs['maid']:.2f}",
            "pdc_AFR_%": f"{afrs['pdc']:.2f}",
            "ordering": "ok" if ordered else "VIOLATED",
        })

    record_table(
        "Anchor-uncertainty sweep: Fig. 7a ordering under every digitization reading",
        format_table(rows))
    assert not violations, f"ordering violated under presets: {violations}"
