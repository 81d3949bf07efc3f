"""Figure 5 — the PRESS model surfaces at 40 degC and 50 degC.

The paper renders AFR as a function of (utilization, transition
frequency) at the two operating temperatures; we print a coarse grid of
each surface and check the 50 degC panel dominates the 40 degC panel."""

import numpy as np

from conftest import record_table
from repro.experiments.figures import figure5_surface
from repro.util.tables import format_table
from repro.press.model import PRESSModel


def _surface_table(temp_c: float) -> str:
    utils, freqs, surface = figure5_surface(temp_c, n_util=4, n_freq=5)
    rows = []
    for i, u in enumerate(utils):
        row = {"util_%": f"{u:.0f}"}
        for j, f in enumerate(freqs):
            row[f"f={f:.0f}/d"] = f"{surface[i, j]:.2f}"
        rows.append(row)
    return format_table(rows, title=f"PRESS AFR % at {temp_c:.0f} degC")


def test_fig5_surfaces(benchmark):
    def both():
        return (figure5_surface(40.0, n_util=16, n_freq=17),
                figure5_surface(50.0, n_util=16, n_freq=17))

    (_, _, s40), (_, _, s50) = benchmark.pedantic(both, rounds=1, iterations=1)
    assert np.all(s50 > s40)
    record_table("Figure 5a: PRESS surface at 40 degC", _surface_table(40.0))
    record_table("Figure 5b: PRESS surface at 50 degC", _surface_table(50.0))


def test_press_point_eval_throughput(benchmark):
    """Per-disk scoring throughput (the end-of-run evaluation path)."""
    press = PRESSModel()
    rng = np.random.default_rng(0)
    points = list(zip(rng.uniform(35, 50, 500), rng.uniform(0, 100, 500),
                      rng.uniform(0, 1600, 500)))

    def score_all():
        return [press.disk_afr(t, u, f) for t, u, f in points]

    out = benchmark(score_all)
    assert len(out) == 500
