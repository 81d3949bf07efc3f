"""Experiment harness: run policies over traces, regenerate the paper's
tables and figures, and answer the title question with a cost model.

Entry points:

* :func:`~repro.experiments.runner.run_simulation` — one (policy, trace,
  array size) cell; returns a :class:`~repro.experiments.metrics.SimulationResult`.
* :mod:`~repro.experiments.figures` — one function per paper figure.
* :mod:`~repro.experiments.sweeps` — ablations over the design choices
  DESIGN.md calls out.
* :mod:`~repro.experiments.costmodel` — "is it worthwhile?" in dollars.
"""

from repro.experiments.metrics import RequestMetrics, SimulationResult
from repro.experiments.parallel import CellExecutionError, RunSpec, run_cell, run_cells
from repro.experiments.runner import ExperimentConfig, run_simulation, make_policy
from repro.experiments.figures import (
    figure2b_series,
    figure3b_series,
    figure4a_series,
    figure4b_series,
    figure5_surface,
    figure7_comparison,
    headline_summary,
)
from repro.experiments.costmodel import CostAssumptions, WorthwhileVerdict, evaluate_worthwhileness
from repro.util.tables import format_table, format_series
from repro.experiments.report import render_markdown_report, write_markdown_report

__all__ = [
    "RequestMetrics",
    "SimulationResult",
    "ExperimentConfig",
    "run_simulation",
    "make_policy",
    "CellExecutionError",
    "RunSpec",
    "run_cell",
    "run_cells",
    "figure2b_series",
    "figure3b_series",
    "figure4a_series",
    "figure4b_series",
    "figure5_surface",
    "figure7_comparison",
    "headline_summary",
    "CostAssumptions",
    "WorthwhileVerdict",
    "evaluate_worthwhileness",
    "format_table",
    "format_series",
    "render_markdown_report",
    "write_markdown_report",
]
