"""Benchmark-suite plumbing: scale control, shared sweeps, table output.

Every bench regenerates one of the paper's figures/tables and registers
its text rendering here; the tables are printed in the terminal summary
(so they survive pytest's output capture) and written to
``benchmarks/results/``.  Host-specific measurements (wall-clock
timings) go to the git-ignored ``.benchmarks/`` at the repo root
instead, so a bench run leaves the tracked tree clean.

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable:

* ``smoke``   — seconds; tiny workload, 3 array sizes (CI sanity);
* ``default`` — minutes; the tuned reduced-scale reproduction the
  committed EXPERIMENTS.md numbers come from;
* ``paper``   — the full trace-day scale of the paper (1.48M requests,
  6 array sizes, both conditions); expect a long run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.figures import figure7_comparison
from repro.experiments.runner import ExperimentConfig
from repro.workload.synthetic import SyntheticWorkloadConfig

RESULTS_DIR = Path(__file__).parent / "results"
#: Where host-specific measurements land (ignored by git).
HOST_RESULTS_DIR = Path(__file__).resolve().parent.parent / ".benchmarks"

_TABLES: list[tuple[str, str]] = []


def record_table(title: str, text: str, *, directory: Path = RESULTS_DIR) -> None:
    """Register a reproduction table for end-of-run printing + saving."""
    _TABLES.append((title, text))
    directory.mkdir(exist_ok=True)
    slug = "".join(c if c.isalnum() else "_" for c in title.lower())[:60]
    (directory / f"{slug}.txt").write_text(text + "\n", encoding="utf-8")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "paper reproduction tables")
    for title, text in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_sep("-", title)
        for line in text.splitlines():
            terminalreporter.write_line(line)


# ----------------------------------------------------------------------
# scale configuration
# ----------------------------------------------------------------------
SCALES = {
    "smoke": dict(n_files=400, n_requests=20_000, disk_counts=(6, 10, 16),
                  heavy_intensity=4.0),
    "default": dict(n_files=2_000, n_requests=100_000, disk_counts=(6, 8, 10, 12, 14, 16),
                    heavy_intensity=6.0),
    "paper": dict(n_files=4_079, n_requests=1_480_081, disk_counts=(6, 8, 10, 12, 14, 16),
                  heavy_intensity=6.0),
}


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    if scale not in SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def scale_params() -> dict:
    return dict(SCALES[bench_scale()], name=bench_scale())


@pytest.fixture(scope="session")
def light_config(scale_params) -> ExperimentConfig:
    """The light-condition workload (the paper's 58.4 ms trace day)."""
    return ExperimentConfig(workload=SyntheticWorkloadConfig(
        n_files=scale_params["n_files"], n_requests=scale_params["n_requests"],
        seed=7, bursty=True))


@pytest.fixture(scope="session")
def heavy_config(light_config, scale_params) -> ExperimentConfig:
    """The heavy condition: same horizon, intensified arrivals."""
    return light_config.with_heavy_load(scale_params["heavy_intensity"])


# The Fig. 7 sweeps are shared across bench files (comparison, headline,
# worthwhileness) — run each condition exactly once per session.
@pytest.fixture(scope="session")
def fig7_light(light_config, scale_params):
    return figure7_comparison(light_config,
                              disk_counts=scale_params["disk_counts"])


@pytest.fixture(scope="session")
def fig7_heavy(heavy_config, scale_params):
    return figure7_comparison(heavy_config,
                              disk_counts=scale_params["disk_counts"])
