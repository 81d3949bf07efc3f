"""Markdown report generation for a policy comparison.

Renders one :class:`~repro.experiments.figures.Figure7Results` (plus
optional worthwhileness verdicts) into a self-contained markdown
document — the artifact an operator would attach to a capacity-planning
decision.  Used by the CLI's ``report`` command and directly from
notebooks/scripts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.experiments.costmodel import CostAssumptions, evaluate_worthwhileness
from repro.experiments.figures import Figure7Results, headline_summary
from repro.util.atomicio import atomic_write_text
from repro.util.validation import require

__all__ = ["render_markdown_report", "write_markdown_report"]


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join("---" for _ in header) + "|"]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(out)


def _metric_section(fig7: Figure7Results, metric: str, title: str,
                    transform, unit: str) -> str:
    series = fig7.series(metric)
    header = ["disks"] + list(series)
    rows = []
    for i, n in enumerate(fig7.disk_counts):
        rows.append([str(n)] + [f"{transform(series[p][i]):.3g}" for p in series])
    return f"### {title} [{unit}]\n\n" + _md_table(header, rows)


def _faults_section(fig7: Figure7Results) -> str:
    """Realized-reliability table, present only for fault-injected runs."""
    if not any(r.faults is not None
               for runs in fig7.results.values() for r in runs):
        return ""
    header = ["policy", "disks", "failures", "availability %", "req failed",
              "req retried", "redirected", "data-loss events", "rebuild kJ"]
    rows = []
    for policy, runs in fig7.results.items():
        for n, result in zip(fig7.disk_counts, runs):
            f = result.faults
            if f is None:
                continue
            rows.append([policy, str(n), str(f.disk_failures),
                         f"{100.0 * f.availability:.4f}",
                         str(f.requests_failed), str(f.requests_retried),
                         str(f.requests_redirected), str(f.data_loss_events),
                         f"{f.rebuild_energy_j / 1e3:.1f}"])
    return ("### Realized reliability (fault injection)\n\n"
            + _md_table(header, rows))


def _redundancy_section(fig7: Figure7Results) -> str:
    """Group states + CTMC reliability, present only for redundant runs."""
    if not any(r.redundancy is not None
               for runs in fig7.results.values() for r in runs):
        return ""
    header = ["policy", "disks", "scheme", "groups", "degraded", "critical",
              "lost", "reconstruct reads", "rebuild read legs",
              "domain outages", "MTTDL yr", "P(loss, mission)"]
    rows = []
    for policy, runs in fig7.results.items():
        for n, result in zip(fig7.disk_counts, runs):
            red = result.redundancy
            if red is None:
                continue
            counts = red.state_counts()
            mttdl = "inf"
            p_loss = "0"
            if red.ctmc is not None:
                mttdl = f"{red.ctmc.mttdl_array_years:.3g}"
                p_loss = f"{red.ctmc.p_loss_array:.3g}"
            rows.append([policy, str(n), red.scheme, str(red.n_groups),
                         str(counts["degraded"]), str(counts["critical"]),
                         str(counts["lost"]), str(red.reconstruct_reads),
                         str(red.rebuild_read_legs),
                         str(red.domain_outages), mttdl, p_loss])
    note = ("MTTDL and P(loss) come from the redundancy CTMC "
            "(birth-death chain per loss unit at PRESS-derived rates), "
            "not from the max-AFR column above: max-AFR is scheme-blind, "
            "the CTMC charges data loss only when the redundancy is "
            "pierced.")
    return ("### Redundancy groups (CTMC reliability)\n\n"
            + _md_table(header, rows) + "\n\n" + note)


def _resilience_section(fig7: Figure7Results) -> str:
    """Harness fault ledger of the sweep executor.

    Reports what the *runner* absorbed (retries, timeouts, pool
    respawns, checkpoint restores) — harness-level faults, as distinct
    from the simulated faults of the realized-reliability section.
    """
    summary = fig7.resilience
    header = ["cells", "run", "from checkpoint", "retries", "timeouts",
              "pool respawns", "salvaged"]
    row = [str(summary.cells_total), str(summary.cells_run),
           str(summary.checkpoint_hits), str(summary.retries),
           str(summary.timeouts), str(summary.pool_respawns),
           str(summary.cells_salvaged)]
    note = ("The harness absorbed faults while producing these results; "
            "every retried or resumed cell re-ran from its spec seed, so "
            "the numbers above are identical to an uninterrupted sweep."
            if summary.eventful else
            "The sweep completed without the harness absorbing any fault.")
    return ("### Harness resilience\n\n" + _md_table(header, [row])
            + "\n\n" + note)


def _runtime_section(fig7: Figure7Results) -> str:
    """Simulation runtime table (events, wall clock, throughput).

    Skipped entirely for result sets predating the telemetry fields
    (``events_executed == 0`` everywhere).
    """
    if not any(r.events_executed
               for runs in fig7.results.values() for r in runs):
        return ""
    # The samples column appears only when some cell sampled telemetry.
    telemetry = any(r.timeseries is not None
                    for runs in fig7.results.values() for r in runs)
    header = ["policy", "disks", "events", "wall s", "events/s"]
    if telemetry:
        header.append("samples")
    rows = []
    for policy, runs in fig7.results.items():
        for n, result in zip(fig7.disk_counts, runs):
            row = [policy, str(n), str(result.events_executed),
                   f"{result.wall_clock_s:.2f}",
                   f"{result.events_per_sec:.3g}"]
            if telemetry:
                row.append(str(len(result.timeseries.rows))
                           if result.timeseries is not None else "-")
            rows.append(row)
    return "### Simulation runtime\n\n" + _md_table(header, rows)


def render_markdown_report(fig7: Figure7Results, *, title: str = "Policy comparison",
                           baseline: str | None = "read",
                           assumptions: CostAssumptions | None = None) -> str:
    """Render the comparison as a markdown document.

    ``baseline`` adds the headline-improvement section and — when the
    static-high reference is part of the sweep — a worthwhileness
    section under ``assumptions`` (defaults per
    :class:`~repro.experiments.costmodel.CostAssumptions`).
    """
    require(len(fig7.results) >= 1, "empty comparison")
    parts: list[str] = [f"# {title}", ""]
    policies = list(fig7.results)
    parts.append(f"Policies: {', '.join(policies)}; array sizes: "
                 f"{', '.join(str(d) for d in fig7.disk_counts)}.")
    parts.append("")

    parts.append(_metric_section(fig7, "afr", "Array AFR (PRESS, max over disks)", lambda v: v, "%"))
    parts.append("")
    parts.append(_metric_section(fig7, "energy", "Energy", lambda v: v / 1e3, "kJ"))
    parts.append("")
    parts.append(_metric_section(fig7, "response", "Mean response time", lambda v: v * 1e3, "ms"))
    parts.append("")

    fault_section = _faults_section(fig7)
    if fault_section:
        parts.append(fault_section)
        parts.append("")

    redundancy_section = _redundancy_section(fig7)
    if redundancy_section:
        parts.append(redundancy_section)
        parts.append("")

    runtime_section = _runtime_section(fig7)
    if runtime_section:
        parts.append(runtime_section)
        parts.append("")

    parts.append(_resilience_section(fig7))
    parts.append("")

    if baseline and baseline in fig7.results and len(policies) > 1:
        parts.append(f"## {baseline} improvements\n")
        summary = headline_summary(fig7, baseline=baseline)
        header = ["metric"] + [k for k in next(iter(summary.values()))]
        rows = [[metric] + [f"{v:+.1f}%" for v in stats.values()]
                for metric, stats in summary.items()]
        parts.append(_md_table(header, rows))
        parts.append("")

    reference_name = "static-high"
    if reference_name in fig7.results and len(policies) > 1:
        a = assumptions or CostAssumptions()
        parts.append("## Worthwhileness vs the always-on array\n")
        parts.append(f"Assumptions: ${a.electricity_usd_per_kwh:.2f}/kWh x "
                     f"{a.power_overhead_factor:.1f} overhead, disk "
                     f"${a.disk_replacement_usd:.0f}, data loss "
                     f"${a.data_loss_cost_usd:.0f}.\n")
        header = ["scheme", "disks", "energy $/yr", "failure $/yr",
                  "net $/yr", "loss model", "verdict"]
        rows = []
        for policy in policies:
            if policy == reference_name:
                continue
            for i, n in enumerate(fig7.disk_counts):
                verdict = evaluate_worthwhileness(
                    fig7.results[policy][i], fig7.results[reference_name][i], a)
                rows.append([policy, str(n),
                             f"{verdict.energy_saving_usd_per_year:+.0f}",
                             f"{verdict.extra_failure_cost_usd_per_year:+.0f}",
                             f"{verdict.net_benefit_usd_per_year:+.0f}",
                             verdict.loss_model,
                             "worthwhile" if verdict.worthwhile else "not worthwhile"])
        parts.append(_md_table(header, rows))
        parts.append("")

    parts.append("---")
    parts.append("*Generated by `repro` — reproduction of Xie & Sun, "
                 "\"Sacrificing Reliability for Energy Saving\", IPPS 2008.*")
    return "\n".join(parts) + "\n"


def write_markdown_report(fig7: Figure7Results, path: Union[str, Path],
                          **kwargs) -> Path:
    """Render and write the report; returns the path.

    The write is atomic (tmp file + ``os.replace``): a crash mid-write
    leaves the previous report intact instead of a truncated one.
    """
    return atomic_write_text(path, render_markdown_report(fig7, **kwargs))
