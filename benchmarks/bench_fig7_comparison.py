"""Figure 7 — the READ vs MAID vs PDC evaluation (Sec. 5.2).

Regenerates all three panels (array AFR, energy, mean response time)
against array sizes 6..16 for the light and heavy workload conditions.
The absolute numbers are simulator-scale, not the authors' testbed; the
shape claims being reproduced are asserted at the bottom and summarized
against the paper in bench_headline.py / EXPERIMENTS.md.
"""

import numpy as np

from conftest import record_table
from repro.util.tables import format_series


def _panels(fig7, condition: str) -> None:
    x = np.array(fig7.disk_counts, dtype=float)
    for metric, label, unit in (("afr", "array AFR", "%"),
                                ("energy", "energy", "kJ"),
                                ("response", "mean response time", "ms")):
        series = fig7.series(metric)
        if metric == "energy":
            series = {k: v / 1e3 for k, v in series.items()}
        if metric == "response":
            series = {k: v * 1e3 for k, v in series.items()}
        record_table(
            f"Figure 7 ({condition}): {label} [{unit}] vs number of disks",
            format_series(x, series, x_label="disks"),
        )


def test_fig7_light_condition(benchmark, fig7_light, scale_params):
    benchmark.pedantic(lambda: fig7_light, rounds=1, iterations=1)
    _panels(fig7_light, "light")

    afr = fig7_light.series("afr")
    energy = fig7_light.series("energy")
    mrt = fig7_light.series("response")
    # Fig. 7a shape: READ best, PDC worst, at every array size
    assert np.all(afr["read"] <= afr["maid"] + 1e-9)
    assert np.all(afr["read"] <= afr["pdc"] + 1e-9)
    assert np.mean(afr["maid"]) <= np.mean(afr["pdc"])
    # Fig. 7b shape (light): READ saves energy vs both on average
    assert energy["read"].mean() < energy["maid"].mean()
    assert energy["read"].mean() < energy["pdc"].mean()
    # Fig. 7c shape: READ delivers the shortest mean response
    assert mrt["read"].mean() < mrt["maid"].mean()
    assert mrt["read"].mean() < mrt["pdc"].mean()
    if scale_params["name"] != "smoke":
        # per-size claims need the full-length trace to be noise-free
        assert np.all(mrt["read"] <= mrt["maid"])
        assert np.all(mrt["read"] <= mrt["pdc"])


def test_fig7_heavy_condition(benchmark, fig7_heavy, scale_params):
    benchmark.pedantic(lambda: fig7_heavy, rounds=1, iterations=1)
    _panels(fig7_heavy, "heavy")

    afr = fig7_heavy.series("afr")
    mrt = fig7_heavy.series("response")
    assert np.all(afr["read"] <= afr["maid"] + 1e-9)
    assert np.all(afr["read"] <= afr["pdc"] + 1e-9)
    assert mrt["read"].mean() < mrt["pdc"].mean()
    if scale_params["name"] != "smoke":
        assert np.all(mrt["read"] <= mrt["pdc"])
