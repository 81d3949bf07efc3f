"""Shared fixtures: small deterministic workloads and device models.

Everything here is sized for sub-second test runs; the full-scale
paper-shaped sweeps live in ``benchmarks/``.
"""

from __future__ import annotations

import faulthandler
import os
from typing import Iterator

import numpy as np
import pytest

from repro.disk.parameters import TwoSpeedDiskParams, cheetah_two_speed
from repro.press.model import PRESSModel
from repro.sim.engine import Simulator
from repro.workload.files import FileSet
from repro.workload.stream import materialize
from repro.workload.synthetic import SyntheticWorkloadConfig
from repro.workload.trace import Trace

#: Seconds a single test may run before the process dies with every
#: thread's stack printed.  The slowest tier-1 test takes under a
#: minute; a drain loop that never empties its heap (periodic timers
#: keep it non-empty) would otherwise hang the suite with no output.
HANG_TIMEOUT_S = 300
#: The million-request scale tier waits up to 600 s on one child.
SCALE_HANG_TIMEOUT_S = 1200

#: A copy of the real stderr for the dump.  Tests run with fd 2 pointed
#: at pytest's capture file, which dies unread with the process; at
#: configure time pytest has not redirected it yet.
_stderr_fd = -1


def pytest_configure(config: pytest.Config) -> None:
    global _stderr_fd
    _stderr_fd = os.dup(2)


def pytest_unconfigure(config: pytest.Config) -> None:
    os.close(_stderr_fd)


@pytest.fixture(autouse=True)
def _hang_guard(request: pytest.FixtureRequest) -> Iterator[None]:
    scale = request.node.get_closest_marker("scale") is not None
    faulthandler.dump_traceback_later(
        SCALE_HANG_TIMEOUT_S if scale else HANG_TIMEOUT_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture(scope="session")
def params() -> TwoSpeedDiskParams:
    return cheetah_two_speed()


@pytest.fixture(scope="session")
def press() -> PRESSModel:
    return PRESSModel()


@pytest.fixture(scope="session")
def tiny_fileset() -> FileSet:
    """Eight files with round sizes for exact-arithmetic tests."""
    return FileSet(np.array([1.0, 2.0, 4.0, 8.0, 1.0, 2.0, 4.0, 8.0]))


@pytest.fixture(scope="session")
def small_workload() -> tuple[FileSet, Trace]:
    """A deterministic 5k-request WC-like workload (seeded)."""
    cfg = SyntheticWorkloadConfig(n_files=120, n_requests=5_000, seed=42,
                                  mean_interarrival_s=0.02)
    return materialize(cfg)


@pytest.fixture(scope="session")
def small_config() -> SyntheticWorkloadConfig:
    return SyntheticWorkloadConfig(n_files=120, n_requests=5_000, seed=42,
                                   mean_interarrival_s=0.02)
