"""Figure 3b — the utilization-reliability function.

Regenerates the AFR-vs-utilization step function (4-year-old Google
population, low/medium/high buckets mapped to [25,100]%)."""

import numpy as np

from conftest import record_table
from repro.experiments.figures import figure3b_series
from repro.util.tables import format_series
from repro.press.utilization import UtilizationReliability


def test_fig3b_series(benchmark):
    utils, afrs = benchmark.pedantic(figure3b_series, args=(16,),
                                     rounds=1, iterations=1)
    assert afrs[0] == 6.0 and afrs[-1] == 12.0
    record_table(
        "Figure 3b: utilization-reliability function (AFR % vs util %)",
        format_series(utils[::3], {"AFR_%": afrs[::3]}, x_label="util_%",
                      title="low [25,50)->6, medium [50,75)->8, high [75,100]->12"),
    )


def test_utilization_eval_throughput(benchmark):
    f = UtilizationReliability()
    utils = np.random.default_rng(0).uniform(0, 100, 10_000)
    out = benchmark(f, utils)
    assert out.shape == utils.shape


def test_smooth_variant_eval_throughput(benchmark):
    f = UtilizationReliability(smooth=True)
    utils = np.random.default_rng(0).uniform(0, 100, 10_000)
    out = benchmark(f, utils)
    assert out.shape == utils.shape
