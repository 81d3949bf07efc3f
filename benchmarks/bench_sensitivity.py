"""PRESS sensitivity — Sec. 3.5's insight ranking, quantified.

Tornado analysis of the model at the paper's operating envelope, plus
the same analysis restricted to READ's capped frequency range (showing
*why* capping transitions changes which factor an operator should worry
about next).
"""

from conftest import record_table
from repro.util.tables import format_table
from repro.press.sensitivity import DEFAULT_RANGES, FactorRange, tornado


def _bar_rows(bars):
    return [{
        "factor": b.factor,
        "AFR_at_low": f"{b.afr_at_low:.2f}",
        "AFR_at_high": f"{b.afr_at_high:.2f}",
        "swing_pts": f"{b.swing:.2f}",
    } for b in bars]


def test_tornado_full_envelope(benchmark):
    bars = benchmark.pedantic(tornado, rounds=1, iterations=1)
    record_table(
        "PRESS tornado, full envelope (Sec. 3.5 insight ranking)",
        format_table(_bar_rows(bars),
                     title="base: 42.5 degC, 50% util, 40 transitions/day"))
    assert bars[0].factor == "frequency"


def test_tornado_under_read_cap(benchmark):
    ranges = dict(DEFAULT_RANGES)
    ranges["frequency"] = FactorRange(0.0, 40.0)  # READ's S

    bars = benchmark.pedantic(tornado, kwargs=dict(ranges=ranges),
                              rounds=1, iterations=1)
    record_table(
        "PRESS tornado with frequency capped at READ's S=40/day",
        format_table(_bar_rows(bars),
                     title="capping transitions demotes frequency; temperature "
                           "becomes the binding factor (PRESS insight 2)"))
    assert bars[0].factor != "frequency"
