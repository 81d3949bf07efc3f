#!/usr/bin/env python
"""Reproduce the paper's Figure 7 comparison at example scale.

Runs READ, MAID, and PDC over the same trace at several array sizes and
prints the three panels (reliability / energy / mean response time) plus
the Sec. 5.2 headline aggregates.  Takes a minute or two.

Pass ``--quick`` for a smaller sweep.
"""

import sys

import numpy as np

from repro import ExperimentConfig
from repro.experiments.figures import figure7_comparison, headline_summary
from repro.util.tables import format_improvement, format_series
from repro.workload import SyntheticWorkloadConfig


def main() -> None:
    quick = "--quick" in sys.argv
    config = ExperimentConfig(workload=SyntheticWorkloadConfig(
        n_files=800 if quick else 2_000,
        n_requests=30_000 if quick else 100_000,
        seed=7, bursty=True))
    disk_counts = (6, 10, 16) if quick else (6, 8, 10, 12, 14, 16)

    print(f"running Fig. 7 sweep: {len(disk_counts)} array sizes x 3 policies ...")
    fig7 = figure7_comparison(config, disk_counts=disk_counts)

    x = np.array(fig7.disk_counts, dtype=float)
    print()
    print(format_series(x, fig7.series("afr"), x_label="disks",
                        title="Fig 7a: array AFR [%] (PRESS, max over disks)"))
    print()
    print(format_series(x, {k: v / 1e3 for k, v in fig7.series("energy").items()},
                        x_label="disks", title="Fig 7b: energy [kJ]"))
    print()
    print(format_series(x, {k: v * 1e3 for k, v in fig7.series("response").items()},
                        x_label="disks", title="Fig 7c: mean response time [ms]"))

    print("\nheadline aggregates (cf. paper Sec. 5.2):")
    afr = fig7.series("afr")
    energy = fig7.series("energy")
    mrt = fig7.series("response")
    for other in ("maid", "pdc"):
        print(" ", format_improvement("read", afr["read"], other, afr[other]),
              "(AFR)")
        print(" ", format_improvement("read", energy["read"], other, energy[other]),
              "(energy)")
        print(" ", format_improvement("read", mrt["read"], other, mrt[other]),
              "(response time)")

    summary = headline_summary(fig7)
    print("\npaper claims: AFR improvement avg 24.9% (MAID) / 50.8% (PDC), "
          "energy saving avg 4.8% / 12.6%")
    print(f"measured    : AFR improvement avg "
          f"{summary['afr']['vs_maid_mean_%']:.1f}% / "
          f"{summary['afr']['vs_pdc_mean_%']:.1f}%, energy saving avg "
          f"{summary['energy']['vs_maid_mean_%']:.1f}% / "
          f"{summary['energy']['vs_pdc_mean_%']:.1f}%")


if __name__ == "__main__":
    main()
