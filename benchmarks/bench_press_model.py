"""Section 3.4 constants — the Coffin-Manson/Arrhenius derivation.

Reproduces the paper's printed chain: G(T_max)/A, N'_f, the ~2x ratio
("a speed transition does ~50% of a start/stop's damage"), and the
65-transitions/day warranty bound, with the documented A*A0 erratum."""

import pytest

from conftest import record_table
from repro.util.tables import format_table
from repro.press.coffin_manson import paper_calibration


def test_sec_3_4_constants(benchmark):
    cal = benchmark.pedantic(paper_calibration, rounds=1, iterations=1)

    rows = [
        {"quantity": "G(50C)/A", "paper": "3.2275e-20",
         "measured": f"{cal.g_over_a_at_50c:.4e}"},
        {"quantity": "N_f (start/stop limit)", "paper": "50000",
         "measured": f"{cal.power_cycles_to_failure:.0f}"},
        {"quantity": "N'_f (transitions to failure)", "paper": "118529",
         "measured": f"{cal.transitions_to_failure:.0f}"},
        {"quantity": "N'_f / N_f", "paper": "~2 ('roughly twice')",
         "measured": f"{cal.ratio:.3f}"},
        {"quantity": "transition damage vs start/stop", "paper": "~0.5",
         "measured": f"{cal.damage_ratio:.3f}"},
        {"quantity": "max transitions/day (5-yr warranty)", "paper": "65",
         "measured": f"{cal.max_transitions_per_day:.1f}"},
        {"quantity": "A*A0", "paper": "2.564317e26 (misprint, see DESIGN.md)",
         "measured": f"{cal.model.a_a0:.4e}"},
    ]
    record_table("Section 3.4: modified Coffin-Manson calibration",
                 format_table(rows))

    assert cal.g_over_a_at_50c == pytest.approx(3.2275e-20, rel=0.01)
    assert cal.transitions_to_failure == pytest.approx(118_529, rel=0.02)
    assert cal.max_transitions_per_day == pytest.approx(65.0, abs=1.0)
