"""Extensions beyond the paper's evaluation (DESIGN.md Sec. 6).

* role rotation (PRESS insight 2) — does spreading hot-role tenure
  lower the worst disk's temperature, and what does it cost?
* hot-file replication (paper future work 1);
* RAID-0 striping (paper future work 2) on a media-heavy workload;
* the failure Monte Carlo downstream of PRESS: expected failures and
  data-loss probability per scheme, with and without parity redundancy;
* the same Monte Carlo (fixed rebuilds) against the CTMC (exponential
  rebuilds) at an accelerated rate: the gap the CTMC's repair
  assumption opens.
"""

import math

import numpy as np

from conftest import record_table
from repro.redundancy import SCHEME_PRESETS, GroupScheme, assess_scheme, simulate_failures
from repro.redundancy.ctmc import HOURS_PER_YEAR
from repro.util.tables import format_table
from repro.experiments.runner import ExperimentConfig, make_policy, run_simulation
from repro.workload.files import FileSet
from repro.workload.synthetic import SyntheticWorkloadConfig
from repro.workload.trace import Trace


def test_read_variants(benchmark, light_config):
    """READ vs rotating READ vs replicating READ on the light workload."""
    fileset, trace = light_config.generate()

    def run_variants():
        out = {}
        for name, kwargs in (("read", {}),
                             ("read-rotate", {"rotation_epochs": 2}),
                             ("read-replicate", {"replicate_top_k": 20})):
            out[name] = run_simulation(make_policy(name, **kwargs), fileset, trace,
                                       n_disks=10, disk_params=light_config.disk_params)
        return out

    results = benchmark.pedantic(run_variants, rounds=1, iterations=1)
    rows = []
    for name, r in results.items():
        temps = [f.mean_temperature_c for f in r.per_disk]
        rows.append({
            "variant": name,
            "AFR_%": f"{r.array_afr_percent:.2f}",
            "energy_kJ": f"{r.total_energy_j / 1e3:.0f}",
            "mrt_ms": f"{r.mean_response_s * 1e3:.2f}",
            "max_temp_C": f"{max(temps):.1f}",
            "temp_spread_C": f"{max(temps) - min(temps):.1f}",
            "internal_jobs": r.internal_jobs,
        })
    record_table("Extension: READ variants (rotation / replication), 10 disks",
                 format_table(rows))
    # replication must not hurt the mean response materially
    assert results["read-replicate"].mean_response_s \
        <= results["read"].mean_response_s * 1.25


def test_striping_on_media_workload(benchmark, light_config):
    """Sec. 6: striping matters for large files, not 1998 web objects."""
    rng = np.random.default_rng(0)
    # media mix: 300 clips of 4-40 MB, Zipf-accessed
    sizes = rng.uniform(4.0, 40.0, 300)
    fileset = FileSet(sizes)
    from repro.workload.zipf import zipf_sample_ranks
    n_req = 3_000
    times = np.sort(rng.uniform(0, 600.0, n_req))
    fids = zipf_sample_ranks(300, 0.8, n_req, seed=rng)
    trace = Trace(times, fids)

    def run_pair():
        striped = run_simulation(make_policy("striped-static"), fileset, trace,
                                 n_disks=8, disk_params=light_config.disk_params)
        plain = run_simulation(make_policy("static-high"), fileset, trace,
                               n_disks=8, disk_params=light_config.disk_params)
        return striped, plain

    striped, plain = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    record_table(
        "Extension: RAID-0 striping on a media workload (8 disks, 4-40 MB files)",
        format_table([
            {"policy": "striped-static (512 KB units)",
             "mrt_ms": f"{striped.mean_response_s * 1e3:.1f}",
             "p95_ms": f"{striped.p95_response_s * 1e3:.1f}"},
            {"policy": "static-high (whole files)",
             "mrt_ms": f"{plain.mean_response_s * 1e3:.1f}",
             "p95_ms": f"{plain.p95_response_s * 1e3:.1f}"},
        ]))
    assert striped.mean_response_s < plain.mean_response_s


def test_failure_monte_carlo_downstream(benchmark, light_config, scale_params):
    """From PRESS AFRs to 5-year failure and data-loss expectations."""
    fileset, trace = light_config.generate()

    def run_three():
        return {name: run_simulation(make_policy(name), fileset, trace,
                                     n_disks=10, disk_params=light_config.disk_params)
                for name in ("read", "maid", "pdc")}

    results = benchmark.pedantic(run_three, rounds=1, iterations=1)
    raid5 = GroupScheme(name="raid5", kind="parity", group_size=10, data_shards=9,
                        replicas=1, fault_domains=10)
    rows = []
    for name, r in results.items():
        afrs = [f.afr_percent for f in r.per_disk]
        bare = simulate_failures(SCHEME_PRESETS["none"], afrs, rebuild_hours=24.0,
                                 years=5.0, n_trials=20_000, seed=1)
        raid = simulate_failures(raid5, afrs, rebuild_hours=24.0, years=5.0,
                                 n_trials=20_000, seed=1)
        rows.append({
            "scheme": name,
            "E[failures]/5yr": f"{bare.expected_failures:.2f}",
            "P(loss) no redundancy": f"{bare.p_data_loss:.3f}",
            "P(loss) RAID-5, 24h rebuild": f"{raid.p_data_loss:.4f}",
        })
    record_table("Extension: failure Monte Carlo over PRESS AFRs (10 disks, 5 years)",
                 format_table(rows))
    by = {r["scheme"]: r for r in rows}
    assert float(by["read"]["E[failures]/5yr"]) <= float(by["pdc"]["E[failures]/5yr"])


def test_monte_carlo_vs_ctmc(benchmark):
    """Fixed vs exponential rebuilds: loss events per year at lam = 1/yr."""
    afr = 100.0 * -math.expm1(-1.0)
    years, n_trials, n_disks = 5.0, 20_000, 8

    def run_grid():
        out = []
        for name in ("mirror2", "block4-2"):
            scheme = SCHEME_PRESETS[name]
            for rebuild_hours in (87.66, 262.98, 876.6):
                mc = simulate_failures(scheme, [afr] * n_disks,
                                       rebuild_hours=rebuild_hours, years=years,
                                       n_trials=n_trials, seed=1)
                ctmc = assess_scheme(scheme, [afr] * n_disks,
                                     rebuild_hours=rebuild_hours,
                                     mission_years=years)
                out.append((name, rebuild_hours, mc, ctmc))
        return out

    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    rows = []
    for name, rebuild_hours, mc, ctmc in grid:
        events = round(mc.mean_loss_events * n_trials)
        measured = mc.mean_loss_events / years
        rows.append({
            "scheme": name,
            "rebuild_h": f"{rebuild_hours:g}",
            "lam*w": f"{rebuild_hours / HOURS_PER_YEAR:g}",
            "MC loss events": events,
            "MC loss/yr": f"{measured:.3e}",
            "CTMC loss/yr": f"{ctmc.loss_events_per_year:.3e}",
            "MC/CTMC": f"{measured / ctmc.loss_events_per_year:.3f}",
            "+-2 sigma": f"{2.0 / math.sqrt(max(events, 1)):.3f}",
        })
    record_table(f"Monte Carlo (fixed rebuild) vs CTMC (exponential rebuild), "
                 f"{n_disks} disks, lam = 1/yr, {n_trials:,} x {years:g} yr",
                 format_table(rows))
    for name, rebuild_hours, mc, ctmc in grid:
        # the two agree to first order in lam * w wherever losses are counted
        assert mc.mean_loss_events > 0
        assert 0.5 < mc.mean_loss_events / years / ctmc.loss_events_per_year < 2.0
