"""Command-line interface: ``python -m repro <command>``.

The commands mirror the library's main entry points:

* ``simulate``   — run one policy over a synthetic workload, print the
  result summary and per-disk ESRRA factors;
* ``sweep``      — the Figure 7 sweep across policies and array sizes,
  under the resilient harness: ``--checkpoint``/``--resume`` journal
  completed cells and skip them on restart, ``--retries`` re-queues a
  cell after a lost worker or a ``--cell-timeout`` (``--jobs >= 2``
  only; an exception from a cell fails the sweep at once), SIGINT
  drains gracefully with a resume hint, and ``--report FILE`` also
  writes the full markdown comparison report;
* ``press``      — evaluate the PRESS model at explicit factor values
  (or print a Fig. 5 surface at a temperature);
* ``worthwhile`` — the title question for one scheme vs the always-on
  reference, in dollars per year;
* ``trace``      — generate/inspect traces and convert WC98 binary logs;
* ``obs``        — inspect telemetry artifacts (``obs summarize`` rolls
  one or more JSONL event traces — e.g. per-shard segments — up per
  event type and per disk; ``obs status`` renders a live sweep status
  file; ``--json`` emits the same view machine-readably);
* ``lint``       — the determinism & invariant static-analysis suite
  (:mod:`repro.analysis`): exit 0 clean, 1 findings, 2 error.

``simulate`` and ``sweep`` accept telemetry flags
(``--trace-out``, ``--metrics-out``, ``--sample-interval``) that attach
the :mod:`repro.obs` layer to the run; ``sweep`` additionally takes
``--status-out`` for a crash-safe live progress feed of the sweep
executor's own ledger.  ``simulate``, ``sweep`` and ``worthwhile``
accept ``--redundancy`` to lay the array
out in k-of-n groups (see :mod:`repro.redundancy`).  Unsupported flag
combinations (``--faults`` with ``--shards``) fail fast with a
capability error before any cell runs.  Where a run's time goes, per
event handler, is ``python -m cProfile -s tottime -m repro simulate ...``.

Every command is a pure function of its arguments (workloads are seeded)
so CLI output is reproducible and scriptable.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# shared argument groups
# ----------------------------------------------------------------------
def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("workload")
    group.add_argument("--files", type=int, default=2_000,
                       help="distinct files in the data set (default 2000)")
    group.add_argument("--requests", type=int, default=100_000,
                       help="trace length (default 100000)")
    group.add_argument("--zipf-alpha", type=float, default=0.8,
                       help="popularity skew in [0,1] (default 0.8)")
    group.add_argument("--interarrival-ms", type=float, default=58.4,
                       help="mean request gap, ms (paper: 58.4)")
    group.add_argument("--seed", type=int, default=7, help="workload seed")
    group.add_argument("--bursty", action="store_true", default=True,
                       help="ON/OFF bursty arrivals (default on)")
    group.add_argument("--no-bursty", dest="bursty", action="store_false",
                       help="plain Poisson arrivals")
    group.add_argument("--heavy", type=float, default=None, metavar="X",
                       help="heavy condition: X-times the arrival rate")


def _workload_config(args: argparse.Namespace):
    from repro.workload.synthetic import SyntheticWorkloadConfig

    cfg = SyntheticWorkloadConfig(
        n_files=args.files, n_requests=args.requests,
        zipf_alpha=args.zipf_alpha,
        mean_interarrival_s=args.interarrival_ms / 1e3,
        seed=args.seed, bursty=args.bursty)
    if args.heavy is not None:
        cfg = cfg.heavy(args.heavy)
    return cfg


def _policy_names() -> list[str]:
    from repro.experiments.runner import _POLICY_REGISTRY

    return sorted(_POLICY_REGISTRY)


def _add_faults_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="enable in-run fault injection: 'on' for defaults, or "
             "key=value pairs (seed, accel, hazard_refresh_s, "
             "repair_delay_s, max_retries, retry_backoff_s, "
             "retry_timeout_s), e.g. 'seed=7,accel=10000'")


def _faults_config(args: argparse.Namespace):
    if args.faults is None:
        return None
    from repro.faults import parse_faults_spec

    return parse_faults_spec(args.faults)


def _add_redundancy_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--redundancy", default=None, metavar="SCHEME",
        help="lay the array out in redundancy groups: a preset "
             "('mirror2', 'mirror3', 'mirror3dc', 'block4-2') or "
             "'mirrorN'; degraded reads reconstruct from survivors and "
             "the summary gains a CTMC reliability cross-check "
             "(MTTDL, P(loss))")


def _redundancy_scheme(args: argparse.Namespace):
    if args.redundancy is None:
        return None
    from repro.redundancy import parse_redundancy_spec

    return parse_redundancy_spec(args.redundancy)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("telemetry")
    group.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the structured event trace as JSONL")
    group.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the sampled per-disk time-series "
                            "(CSV, or JSON when FILE ends in .json)")
    group.add_argument("--sample-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="simulated seconds between time-series samples "
                            "(default 60 when --metrics-out is given)")


def _obs_config(args: argparse.Namespace):
    if (args.trace_out is None and args.metrics_out is None
            and args.sample_interval is None):
        return None
    from repro.obs import ObsConfig

    return ObsConfig(trace_path=args.trace_out, metrics_path=args.metrics_out,
                     sample_interval_s=args.sample_interval)


def _package_version() -> str:
    """Installed package version, falling back to pyproject.toml for
    source checkouts run via ``PYTHONPATH=src``."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        pass
    import re
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        match = re.search(r'^version\s*=\s*"([^"]+)"',
                          pyproject.read_text(encoding="utf-8"), re.MULTILINE)
    except OSError:
        return "unknown"
    return match.group(1) if match else "unknown"


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.util.tables import format_table
    from repro.experiments.runner import ExperimentConfig, make_policy, run_simulation

    config = ExperimentConfig(workload=_workload_config(args))
    fileset, trace = config.generate()
    policy = make_policy(args.policy)
    obs = _obs_config(args)
    result = run_simulation(policy, fileset, trace, n_disks=args.disks,
                            disk_params=config.disk_params,
                            faults=_faults_config(args), obs=obs,
                            redundancy=_redundancy_scheme(args))

    print(format_table([result.summary_row()], title=f"{args.policy} on {args.disks} disks"))
    if obs is not None:
        if obs.trace_path is not None:
            print(f"wrote trace -> {obs.trace_path}")
        if obs.metrics_path is not None:
            print(f"wrote time-series -> {obs.metrics_path}")
    if result.faults is not None:
        f = result.faults
        print()
        print(f"fault injection: {f.disk_failures} disk failure(s), "
              f"{f.rebuilds_completed} rebuild(s), availability "
              f"{100.0 * f.availability:.4f}%")
        print(f"  requests: {f.requests_failed} failed, {f.requests_retried} "
              f"retried, {f.requests_redirected} redirected; "
              f"{f.data_loss_events} data-loss event(s) ({f.files_lost} files)")
        for disk_id, at_s in f.failure_schedule:
            print(f"  disk {disk_id} failed at t={at_s:.1f} s")
    if result.redundancy is not None:
        red = result.redundancy
        counts = red.state_counts()
        print()
        print(f"redundancy [{red.scheme}]: {red.n_groups} group(s) — "
              f"{counts['healthy']} healthy, {counts['degraded']} degraded, "
              f"{counts['critical']} critical, {counts['lost']} lost")
        print(f"  degraded reads: {red.reconstruct_reads} reconstructed "
              f"({red.reconstruct_legs} leg(s)); rebuild fan-out: "
              f"{red.rebuild_read_legs} read leg(s); "
              f"{red.domain_outages} domain outage(s)")
        if red.ctmc is not None:
            c = red.ctmc
            print(f"  CTMC: MTTDL {c.mttdl_array_years:.3g} yr, "
                  f"P(loss, {c.mission_years:g} yr mission) = "
                  f"{c.p_loss_array:.3g} "
                  f"(rebuild {c.rebuild_hours:.2g} h)")
    if args.per_disk:
        rows = [{
            "disk": f.disk_id,
            "temp_C": f"{f.mean_temperature_c:.1f}",
            "util_%": f"{f.utilization_percent:.2f}",
            "trans/day": f"{f.transitions_per_day:.1f}",
            "AFR_%": f"{f.afr_percent:.3f}",
        } for f in result.per_disk]
        print()
        print(format_table(rows, title="per-disk ESRRA factors"))
    return 0


def _print_comparison(fig7, policies: list[str], baseline: str) -> None:
    """The ``sweep`` command's result panels."""
    from repro.experiments.figures import headline_summary
    from repro.util.tables import format_series

    x = np.array(fig7.disk_counts, dtype=float)
    print(format_series(x, fig7.series("afr"), x_label="disks",
                        title="array AFR [%]"))
    print()
    print(format_series(x, {k: v / 1e3 for k, v in fig7.series("energy").items()},
                        x_label="disks", title="energy [kJ]"))
    print()
    print(format_series(x, {k: v * 1e3 for k, v in fig7.series("response").items()},
                        x_label="disks", title="mean response [ms]"))
    if any(r.faults is not None for runs in fig7.results.values() for r in runs):
        avail = {name: np.array([100.0 * r.faults.availability for r in runs])
                 for name, runs in fig7.results.items()}
        losses = {name: np.array([float(r.faults.data_loss_events) for r in runs],
                                 dtype=float)
                  for name, runs in fig7.results.items()}
        print()
        print(format_series(x, avail, x_label="disks", title="availability [%]"))
        print()
        print(format_series(x, losses, x_label="disks", title="data-loss events"))
    if baseline and baseline in policies:
        print()
        summary = headline_summary(fig7, baseline=baseline)
        for metric, stats in summary.items():
            parts = ", ".join(f"{k.replace('vs_', '').replace('_%', '')} {v:+.1f}%"
                              for k, v in stats.items())
            print(f"{baseline} improvement, {metric}: {parts}")


def _validate_sweep_combos(args: argparse.Namespace, policies: list[str]) -> None:
    """Fail fast, before any cell runs or any checkpoint opens, on an
    unknown policy or on what sharding refuses."""
    unknown = sorted(set(policies) - set(_policy_names()))
    if unknown:
        raise ValueError(f"unknown policy {unknown[0]!r}; known: {_policy_names()}")
    if args.shards is not None:
        from repro.experiments.shard import require_shardable

        require_shardable(args.faults)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import dataclasses
    from pathlib import Path

    from repro.experiments.figures import figure7_comparison
    from repro.experiments.report import write_markdown_report
    from repro.experiments.resilience import ResilienceConfig
    from repro.obs.status import format_ledger

    if args.verbose:
        from repro.obs import setup_logging

        setup_logging()
    from repro.experiments.runner import ExperimentConfig

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    _validate_sweep_combos(args, policies)
    checkpoint = args.resume or args.checkpoint
    if args.resume is not None and not Path(args.resume).exists():
        raise FileNotFoundError(
            f"checkpoint to resume not found: {args.resume} "
            f"(use --checkpoint to start a new one)")
    resilience = ResilienceConfig(max_retries=args.retries,
                                  cell_timeout_s=args.cell_timeout)
    config = ExperimentConfig(workload=_workload_config(args))
    disk_counts = [int(d) for d in args.disks.split(",")]
    obs = _obs_config(args)
    status_writer = None
    if args.status_out is not None:
        from repro.obs import SweepStatusWriter

        status_writer = SweepStatusWriter(args.status_out)
    fig7 = figure7_comparison(config, disk_counts=disk_counts,
                              policies=policies,
                              faults=_faults_config(args), jobs=args.jobs,
                              resilience=resilience, checkpoint=checkpoint,
                              obs=obs, shards=args.shards,
                              redundancy=_redundancy_scheme(args),
                              status=status_writer)
    if status_writer is not None:
        print(f"status feed -> {args.status_out}")
    if obs is not None and (obs.trace_path or obs.metrics_path):
        print("telemetry written per cell "
              "(paths suffixed with -<policy>-<disks>)")
    if args.shards is not None:
        print(f"sharded execution: {args.shards} shard(s) per cell, "
              "streamed workload")
    _print_comparison(fig7, policies, args.baseline)
    print()
    print(format_ledger(dataclasses.asdict(fig7.resilience)))
    if checkpoint is not None:
        print(f"checkpoint -> {checkpoint}")
    if args.report:
        path = write_markdown_report(fig7, args.report,
                                     baseline=args.baseline or None)
        print(f"wrote report -> {path}")
    return 0


def _cmd_press(args: argparse.Namespace) -> int:
    from repro.util.tables import format_table
    from repro.press.model import PRESSModel

    press = PRESSModel()
    if args.surface is not None:
        utils = np.linspace(25, 100, 4)
        freqs = np.linspace(0, 1600, 5)
        surface = press.afr_surface(args.surface, utils, freqs)
        rows = []
        for i, u in enumerate(utils):
            row = {"util_%": f"{u:.0f}"}
            for j, f in enumerate(freqs):
                row[f"f={f:.0f}/d"] = f"{surface[i, j]:.2f}"
            rows.append(row)
        print(format_table(rows, title=f"PRESS AFR % at {args.surface:.0f} degC"))
        return 0

    afr = press.disk_afr(args.temp, args.util, args.freq)
    print(f"PRESS AFR({args.temp:.1f} degC, {args.util:.1f}% util, "
          f"{args.freq:.1f} transitions/day) = {afr:.3f} %")
    return 0


def _cmd_worthwhile(args: argparse.Namespace) -> int:
    from repro.experiments.costmodel import CostAssumptions, evaluate_worthwhileness
    from repro.experiments.runner import ExperimentConfig, make_policy, run_simulation

    config = ExperimentConfig(workload=_workload_config(args))
    fileset, trace = config.generate()
    redundancy = _redundancy_scheme(args)
    scheme = run_simulation(make_policy(args.scheme), fileset, trace,
                            n_disks=args.disks, disk_params=config.disk_params,
                            redundancy=redundancy)
    reference = run_simulation(make_policy(args.reference), fileset, trace,
                               n_disks=args.disks, disk_params=config.disk_params,
                               redundancy=redundancy)
    assumptions = CostAssumptions(
        electricity_usd_per_kwh=args.electricity,
        disk_replacement_usd=args.disk_price,
        data_loss_cost_usd=args.data_value)
    verdict = evaluate_worthwhileness(scheme, reference, assumptions)
    print(f"{args.scheme} vs {args.reference} on {args.disks} disks:")
    print(f"  PRESS max-AFR      : {scheme.array_afr_percent:.3f} % vs "
          f"{reference.array_afr_percent:.3f} % (reference)")
    if verdict.scheme_ctmc is not None and verdict.reference_ctmc is not None:
        sc, rc = verdict.scheme_ctmc, verdict.reference_ctmc
        print(f"  CTMC [{sc.scheme}]    : MTTDL {sc.mttdl_array_years:.3g} yr "
              f"vs {rc.mttdl_array_years:.3g} yr; P(loss, "
              f"{sc.mission_years:g} yr) {sc.p_loss_array:.3g} vs "
              f"{rc.p_loss_array:.3g}")
    print(f"  loss model         : {verdict.loss_model}")
    print(f"  energy saving      : {verdict.energy_saving_usd_per_year:+,.0f} $/yr")
    print(f"  extra failure cost : {verdict.extra_failure_cost_usd_per_year:+,.0f} $/yr")
    print(f"  net benefit        : {verdict.net_benefit_usd_per_year:+,.0f} $/yr")
    print(f"  worthwhile         : {'YES' if verdict.worthwhile else 'no'}")
    return 0 if verdict.worthwhile else 3


def _expand_trace_paths(patterns: list[str]) -> list[str]:
    """Expand globs (sorted, so shard segments merge deterministically);
    literal paths pass through so missing-file errors stay precise."""
    import glob as globmod

    from repro.util.validation import require

    paths: list[str] = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matches = sorted(globmod.glob(pattern))
            require(bool(matches), f"no trace files match {pattern!r}")
            paths.extend(matches)
        else:
            paths.append(pattern)
    return paths


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    if args.obs_command == "summarize":
        from repro.obs import format_summary, summarize_traces

        paths = _expand_trace_paths(args.paths)
        summary = summarize_traces(paths)
        source = ",".join(paths)
        if args.as_json:
            doc = {"source": source, **summary.to_json()}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(format_summary(summary, source=source))
        return 0
    if args.obs_command == "status":
        from repro.obs import format_status, read_status

        doc = read_status(args.path)
        if args.as_json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(format_status(doc))
        return 0
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workload.stream import materialize
    from repro.workload.trace import Trace
    from repro.workload.wc98 import read_wc98, wc98_to_trace

    if args.trace_command == "generate":
        fileset, trace = materialize(_workload_config(args))
        trace.to_csv(args.out)
        print(f"wrote {len(trace)} requests over {trace.duration_s:.0f} s "
              f"({len(fileset)} files) -> {args.out}")
        return 0

    if args.trace_command == "info":
        from repro.workload.analysis import analyze_trace

        trace = Trace.from_csv(args.path)
        stats = trace.stats()
        print(f"requests          : {stats.n_requests}")
        print(f"files referenced  : {stats.n_files_referenced}")
        print(f"duration          : {stats.duration_s:.1f} s")
        print(f"mean inter-arrival: {stats.mean_interarrival_s * 1e3:.2f} ms")
        print(f"top-20% share     : {stats.top20_access_fraction:.1%}")
        print(f"theta             : {stats.theta:.4f}")
        print(f"zipf alpha (fit)  : {stats.zipf_alpha:.3f}")
        window = max(stats.duration_s / 20.0, 1.0)
        analysis = analyze_trace(trace, stats.n_files_referenced
                                 if trace.file_ids.max() < stats.n_files_referenced
                                 else int(trace.file_ids.max()) + 1,
                                 window_s=window)
        print(f"windowed ({analysis.window_s:.0f} s x {analysis.n_windows}):")
        print(f"  burstiness (IoD)  : {analysis.index_of_dispersion:.2f}")
        print(f"  mean working set  : {analysis.mean_working_set:.0f} files")
        print(f"  popularity corr   : {analysis.mean_rank_correlation:.3f}")
        print(f"  top-50 overlap    : {analysis.mean_topk_jaccard:.3f}")
        return 0

    if args.trace_command == "convert-wc98":
        records = read_wc98(args.path, max_records=args.max_records)
        fileset, trace = wc98_to_trace(records)
        trace.to_csv(args.out)
        print(f"decoded {len(records)} records -> {len(trace)} requests, "
              f"{len(fileset)} files; trace -> {args.out}")
        return 0

    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PRESS + READ disk-array energy/reliability toolkit "
                    "(reproduction of Xie & Sun, IPPS 2008)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="run one policy over a synthetic workload",
        epilog="per-handler timing: python -m cProfile -s tottime -m repro simulate ...")
    p_sim.add_argument("--policy", choices=_policy_names(), default="read")
    p_sim.add_argument("--disks", type=int, default=10)
    p_sim.add_argument("--per-disk", action="store_true",
                       help="also print per-disk ESRRA factors")
    _add_faults_arg(p_sim)
    _add_redundancy_arg(p_sim)
    _add_obs_args(p_sim)
    _add_workload_args(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep",
        help="Figure 7 sweep under the resilient harness "
             "(checkpointed, resumable, per-cell timeouts)")
    p_sweep.add_argument("--policies", default="read,maid,pdc",
                         help="comma-separated policy names")
    p_sweep.add_argument("--disks", default="6,10,16",
                         help="comma-separated array sizes")
    p_sweep.add_argument("--baseline", default="read",
                         help="policy to compute improvements for ('' = none)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the sweep (1 = in-process serial)")
    p_sweep.add_argument("--report", default=None, metavar="FILE",
                         help="also write the markdown report here")
    p_sweep.add_argument("--verbose", action="store_true",
                         help="log per-cell sweep progress to stderr")
    shard_group = p_sweep.add_argument_group("sharding")
    shard_group.add_argument("--shards", type=int, default=None, metavar="N",
                             help="split each array into N independent disk "
                                  "groups simulated as separate streamed "
                                  "sub-cells and merged bit-identically "
                                  "(must divide every --disks entry; "
                                  "incompatible with fault injection)")
    res_group = p_sweep.add_argument_group("resilience")
    res_group.add_argument("--checkpoint", default=None, metavar="FILE",
                           help="journal completed cells here (created if "
                                "missing); already-done cells are skipped")
    res_group.add_argument("--resume", default=None, metavar="FILE",
                           help="resume from an existing checkpoint "
                                "(errors if the file does not exist)")
    res_group.add_argument("--retries", type=int, default=2,
                           help="re-queues allowed per cell after a lost "
                                "worker or a timeout (with --jobs >= 2; an "
                                "exception from a cell fails the sweep at "
                                "once; default 2)")
    res_group.add_argument("--cell-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="wall-clock limit per cell attempt "
                                "(enforced with --jobs >= 2)")
    _add_faults_arg(p_sweep)
    _add_redundancy_arg(p_sweep)
    _add_obs_args(p_sweep)
    p_sweep.add_argument("--status-out", default=None, metavar="FILE",
                         help="maintain a live JSON status feed here "
                              "(atomic republish; read it with "
                              "`repro obs status FILE`)")
    _add_workload_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_press = sub.add_parser("press", help="evaluate the PRESS reliability model")
    p_press.add_argument("--temp", type=float, default=50.0, help="degC")
    p_press.add_argument("--util", type=float, default=30.0, help="percent")
    p_press.add_argument("--freq", type=float, default=0.0, help="transitions/day")
    p_press.add_argument("--surface", type=float, default=None, metavar="TEMP_C",
                         help="print the Fig. 5 surface at this temperature instead")
    p_press.set_defaults(func=_cmd_press)

    p_worth = sub.add_parser("worthwhile", help="the title question, in dollars")
    p_worth.add_argument("--scheme", choices=_policy_names(), default="read")
    p_worth.add_argument("--reference", choices=_policy_names(), default="static-high")
    p_worth.add_argument("--disks", type=int, default=10)
    p_worth.add_argument("--electricity", type=float, default=0.10,
                         help="$ per kWh (default 0.10)")
    p_worth.add_argument("--disk-price", type=float, default=300.0)
    p_worth.add_argument("--data-value", type=float, default=5_000.0,
                         help="expected $ cost of data lost with a disk")
    _add_redundancy_arg(p_worth)
    _add_workload_args(p_worth)
    p_worth.set_defaults(func=_cmd_worthwhile)

    p_trace = sub.add_parser("trace", help="generate/inspect/convert traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    t_gen = trace_sub.add_parser("generate", help="synthesize a trace to CSV")
    t_gen.add_argument("--out", required=True, help="output CSV path")
    _add_workload_args(t_gen)
    t_gen.set_defaults(func=_cmd_trace)

    t_info = trace_sub.add_parser("info", help="summarize a CSV trace")
    t_info.add_argument("path", help="trace CSV path")
    t_info.set_defaults(func=_cmd_trace)

    t_conv = trace_sub.add_parser("convert-wc98",
                                  help="decode a WC98 binary log to CSV")
    t_conv.add_argument("path", help="WC98 binary file")
    t_conv.add_argument("--out", required=True, help="output CSV path")
    t_conv.add_argument("--max-records", type=int, default=None)
    t_conv.set_defaults(func=_cmd_trace)

    p_obs = sub.add_parser("obs", help="inspect telemetry artifacts")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    o_sum = obs_sub.add_parser("summarize",
                               help="per-disk / per-event-type rollup of one "
                                    "or more JSONL event traces")
    o_sum.add_argument("paths", nargs="+", metavar="PATH",
                       help="trace JSONL path(s); globs like "
                            "'trace.shard*.jsonl' roll per-shard segments "
                            "up as one array-wide view")
    o_sum.add_argument("--json", action="store_true", dest="as_json",
                       help="one machine-readable JSON document on stdout")
    o_sum.set_defaults(func=_cmd_obs)
    o_stat = obs_sub.add_parser("status",
                                help="render a sweep's live status feed "
                                     "(from `repro sweep --status-out`)")
    o_stat.add_argument("path", help="status JSON path")
    o_stat.add_argument("--json", action="store_true", dest="as_json",
                        help="echo the raw status document")
    o_stat.set_defaults(func=_cmd_obs)

    p_lint = sub.add_parser(
        "lint",
        help="determinism & invariant static analysis "
             "(exit 0 clean / 1 findings / 2 error)")
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.experiments.parallel import CellExecutionError
    from repro.experiments.resilience import SweepInterrupted

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SweepInterrupted as exc:
        # completed cells are already flushed; tell the operator how to
        # pick the sweep back up and exit with the conventional SIGINT code
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except (ValueError, FileNotFoundError, CellExecutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (e.g. `| head`) closed stdout mid-print;
        # exit quietly with the conventional SIGPIPE code
        sys.stderr.close()
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
