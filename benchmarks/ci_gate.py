"""One-shot CI gate: tests, coverage floor, and the perf-regression check.

Runs, in order:

1. the tier-1 test suite (``pytest tests/ --durations=10``, so the log
   lists the ten slowest tests) — with ``pytest-cov``
   measuring ``src/repro`` and enforcing the floor configured under
   ``[tool.coverage.report]`` in ``pyproject.toml`` when the plugin is
   installed; without it the suite still runs and the coverage step is
   reported as skipped (the gate must work on minimal toolchains);
2. the throughput regression check (:mod:`benchmarks.check_regression`)
   — skipped with a notice when no fresh measurement exists, failing
   the gate only on an actual regression.

Exit code 0 iff every step that could run passed:

    PYTHONPATH=src python benchmarks/ci_gate.py
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / ".benchmarks" / "throughput.json"


def has_pytest_cov() -> bool:
    return importlib.util.find_spec("pytest_cov") is not None


def run_tests(*, with_coverage: bool) -> int:
    # --durations lists the slowest tests in every CI log
    cmd = [sys.executable, "-m", "pytest", "tests/", "--durations=10"]
    if with_coverage:
        cmd += ["--cov=repro", "--cov-report=term-missing:skip-covered",
                "--cov-fail-under=80"]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return subprocess.run(cmd, cwd=REPO_ROOT, env=env).returncode


def run_regression_check() -> int:
    from check_regression import main as check_main
    if not RESULTS_PATH.exists():
        print(f"ci_gate: no throughput measurement at {RESULTS_PATH} — "
              "perf gate skipped (run bench_throughput.py to arm it)")
        return 0
    return check_main([str(RESULTS_PATH)])


def main() -> int:
    coverage = has_pytest_cov()
    if not coverage:
        print("ci_gate: pytest-cov not installed — running tests without "
              "the coverage floor")
    rc = run_tests(with_coverage=coverage)
    if rc != 0:
        print(f"ci_gate: test suite failed (exit {rc})")
        return rc
    rc = run_regression_check()
    if rc != 0:
        print(f"ci_gate: perf regression gate failed (exit {rc})")
        return rc
    print("ci_gate: all gates passed"
          + ("" if coverage else " (coverage skipped)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
