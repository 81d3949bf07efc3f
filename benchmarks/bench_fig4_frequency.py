"""Figures 4a/4b — start/stop adder and the frequency-reliability function.

Fig. 4b is Eq. 3 verbatim; Fig. 4a is the un-halved IDEMA adder (exactly
2x, per the paper's Coffin-Manson damage-ratio argument, which
bench_press_model.py reproduces numerically)."""

import numpy as np

from conftest import record_table
from repro.experiments.figures import figure4a_series, figure4b_series
from repro.util.tables import format_series
from repro.press.frequency import frequency_afr_adder_percent


def test_fig4a_and_4b_series(benchmark):
    def both():
        return figure4a_series(17), figure4b_series(17)

    (freqs_a, idema), (freqs_b, eq3) = benchmark.pedantic(both, rounds=1, iterations=1)
    np.testing.assert_allclose(idema, 2.0 * eq3)
    record_table(
        "Figure 4a/4b: start-stop adder and frequency-reliability function",
        format_series(freqs_a[::2],
                      {"fig4a_IDEMA_AFR_%": idema[::2], "fig4b_Eq3_AFR_%": eq3[::2]},
                      x_label="events_per_day",
                      title="Fig 4b = Eq. 3 = half of Fig 4a (speed transition ~ 50% of a start/stop)"),
    )


def test_eq3_eval_throughput(benchmark):
    freqs = np.random.default_rng(0).uniform(0, 1600, 10_000)
    out = benchmark(frequency_afr_adder_percent, freqs)
    assert np.all(np.asarray(out) >= 0)
