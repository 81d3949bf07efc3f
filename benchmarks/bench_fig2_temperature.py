"""Figure 2b — the temperature-reliability function.

Regenerates the AFR-vs-temperature series the paper digitizes from the
Google 3-year-old field data, and benchmarks curve evaluation (the
function sits on PRESS's per-disk scoring path).
"""

import numpy as np

from conftest import record_table
from repro.experiments.figures import figure2b_series
from repro.util.tables import format_series
from repro.press.temperature import TemperatureReliability


def test_fig2b_series(benchmark):
    temps, afrs = benchmark.pedantic(figure2b_series, args=(26,),
                                     rounds=1, iterations=1)
    assert np.all(np.diff(afrs) >= -1e-12)
    record_table(
        "Figure 2b: temperature-reliability function (AFR % vs degC)",
        format_series(temps[::5], {"AFR_%": afrs[::5]}, x_label="degC",
                      title="3-year-old population anchors, PCHIP interpolation"),
    )


def test_temperature_eval_throughput(benchmark):
    """Vectorized evaluation speed over a realistic batch of disks."""
    f = TemperatureReliability()
    temps = np.random.default_rng(0).uniform(25, 50, 10_000)
    out = benchmark(f, temps)
    assert out.shape == temps.shape
