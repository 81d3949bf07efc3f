"""Section 5.2 headline numbers — paper vs measured.

The paper's aggregate claims:

* reliability: READ beats MAID by up to 39.7% and PDC by up to 57.5%;
  average improvements 24.9% (MAID) and 50.8% (PDC);
* energy (light): READ uses 4.8% (MAID) / 12.6% (PDC) less on average;
* response time: READ "delivers much shorter mean response times in all
  cases".

This bench computes the same aggregates from the Fig. 7 sweeps and
prints them side by side.  Shape (sign + rough magnitude) is asserted;
exact percentages are not — see EXPERIMENTS.md for the discussion.
"""

from conftest import record_table
from repro.experiments.figures import headline_summary
from repro.util.tables import format_table


def test_headline_vs_paper(benchmark, fig7_light, fig7_heavy):
    light = benchmark.pedantic(headline_summary, args=(fig7_light,),
                               rounds=1, iterations=1)
    heavy = headline_summary(fig7_heavy)

    rows = [
        {"claim": "AFR: READ vs MAID, avg improvement",
         "paper": "24.9%", "light": f"{light['afr']['vs_maid_mean_%']:.1f}%",
         "heavy": f"{heavy['afr']['vs_maid_mean_%']:.1f}%"},
        {"claim": "AFR: READ vs MAID, max improvement",
         "paper": "39.7%", "light": f"{light['afr']['vs_maid_max_%']:.1f}%",
         "heavy": f"{heavy['afr']['vs_maid_max_%']:.1f}%"},
        {"claim": "AFR: READ vs PDC, avg improvement",
         "paper": "50.8%", "light": f"{light['afr']['vs_pdc_mean_%']:.1f}%",
         "heavy": f"{heavy['afr']['vs_pdc_mean_%']:.1f}%"},
        {"claim": "AFR: READ vs PDC, max improvement",
         "paper": "57.5%", "light": f"{light['afr']['vs_pdc_max_%']:.1f}%",
         "heavy": f"{heavy['afr']['vs_pdc_max_%']:.1f}%"},
        {"claim": "energy: READ vs MAID, avg saving (light)",
         "paper": "4.8%", "light": f"{light['energy']['vs_maid_mean_%']:.1f}%",
         "heavy": f"{heavy['energy']['vs_maid_mean_%']:.1f}%"},
        {"claim": "energy: READ vs PDC, avg saving (light)",
         "paper": "12.6%", "light": f"{light['energy']['vs_pdc_mean_%']:.1f}%",
         "heavy": f"{heavy['energy']['vs_pdc_mean_%']:.1f}%"},
        {"claim": "response: READ vs MAID, avg improvement",
         "paper": "shorter in all cases",
         "light": f"{light['response']['vs_maid_mean_%']:.1f}%",
         "heavy": f"{heavy['response']['vs_maid_mean_%']:.1f}%"},
        {"claim": "response: READ vs PDC, avg improvement",
         "paper": "shorter in all cases",
         "light": f"{light['response']['vs_pdc_mean_%']:.1f}%",
         "heavy": f"{heavy['response']['vs_pdc_mean_%']:.1f}%"},
    ]
    record_table("Section 5.2 headline claims: paper vs measured",
                 format_table(rows))

    # shape assertions: every improvement the paper claims positive is
    # positive here too (light condition = the paper's headline setting)
    assert light["afr"]["vs_maid_mean_%"] > 0
    assert light["afr"]["vs_pdc_mean_%"] > 0
    assert light["afr"]["vs_pdc_mean_%"] > light["afr"]["vs_maid_mean_%"]
    assert light["energy"]["vs_maid_mean_%"] > 0
    assert light["energy"]["vs_pdc_mean_%"] > 0
    assert light["response"]["vs_maid_mean_%"] > 0
    assert light["response"]["vs_pdc_mean_%"] > 0
