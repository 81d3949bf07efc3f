#!/usr/bin/env python
"""Replay a WorldCup98-format binary trace through the simulator.

The paper evaluates against the real WorldCup98-05-09 access log, which
ships as packed 20-byte binary records.  This example shows the full
real-trace pipeline:

1. synthesize a day of traffic and *encode it in the actual WC98 wire
   format* (stand-in for the non-redistributable original — point
   ``TRACE_PATH`` at a real ``wc_day*`` file to replay the original);
2. decode it with :func:`repro.workload.wc98.read_wc98`;
3. convert to simulator inputs with :func:`wc98_to_trace`;
4. run the three policies over it and compare.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import make_policy, run_simulation
from repro.disk.parameters import cheetah_two_speed
from repro.util.tables import format_table
from repro.workload.wc98 import WC98Record, read_wc98, wc98_to_trace, write_wc98
from repro.workload.zipf import zipf_sample_ranks

#: Point this at a real WorldCup98 binary log to replay the original.
TRACE_PATH: Path | None = None


def synthesize_wc98_day(path: Path, n_requests: int = 40_000,
                        n_objects: int = 1_200, seed: int = 4) -> None:
    """Write a WC98-format file with Zipf-skewed, time-bunched traffic."""
    rng = np.random.default_rng(seed)
    # second-resolution timestamps across ~2.3 hours (scaled-down day)
    timestamps = np.sort(rng.integers(0, 8_400, n_requests)).astype(np.uint32)
    objects = zipf_sample_ranks(n_objects, 0.8, n_requests, seed=rng)
    # per-object sizes: small web files, popularity inversely size-ranked
    object_sizes = np.sort(rng.lognormal(np.log(8_000), 1.2, n_objects))
    records = [
        WC98Record(timestamp=int(t), client_id=int(rng.integers(0, 5_000)),
                   object_id=int(o), size=int(max(200, object_sizes[o])),
                   method=0, status=2, type=1, server=0)
        for t, o in zip(timestamps, objects)
    ]
    count = write_wc98(records, path)
    print(f"wrote {count} records ({path.stat().st_size / 1e6:.1f} MB) "
          f"in WC98 binary format -> {path}")


def main() -> None:
    if TRACE_PATH is not None:
        path = TRACE_PATH
    else:
        path = Path(tempfile.mkdtemp()) / "wc_day_synthetic.bin"
        synthesize_wc98_day(path)

    records = read_wc98(path)
    fileset, trace = wc98_to_trace(records)
    stats = trace.stats(len(fileset))
    print(f"decoded: {stats.n_requests} GET requests, "
          f"{len(fileset)} distinct objects ({fileset.total_mb:.1f} MB), "
          f"mean inter-arrival {stats.mean_interarrival_s * 1e3:.1f} ms, "
          f"Zipf alpha ~ {stats.zipf_alpha:.2f}")

    params = cheetah_two_speed()
    rows = []
    for name in ("read", "maid", "pdc"):
        result = run_simulation(make_policy(name), fileset, trace,
                                n_disks=8, disk_params=params)
        rows.append({
            "policy": name,
            "AFR_%": f"{result.array_afr_percent:.2f}",
            "energy_kJ": f"{result.total_energy_j / 1e3:.0f}",
            "mrt_ms": f"{result.mean_response_s * 1e3:.2f}",
            "transitions": result.total_transitions,
        })
    print()
    print(format_table(rows, title="replayed WC98-format trace, 8-disk array"))


if __name__ == "__main__":
    main()
