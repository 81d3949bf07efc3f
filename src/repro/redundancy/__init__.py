"""Redundancy groups: k-of-n erasure / mirror layouts and their reliability.

The paper's fault model is mirror-only and its array reliability is
"max per-disk AFR" (Sec. 3.5).  This package supplies what that elides:

* :mod:`repro.redundancy.scheme` — declarative :class:`GroupScheme`
  descriptions (``mirror2``, ``mirror3dc``, ``block4-2``) with storage
  overhead, fault tolerance, and fault-domain layout;
* :mod:`repro.redundancy.groups` — :class:`RedundancyGroups`, the pure
  disk-index geometry (group membership, replica sets, reconstruction
  and rebuild source selection, group health classification);
* :mod:`repro.redundancy.ctmc` — a continuous-time Markov-chain
  reliability model (MTTDL and P(data loss within mission time)) that
  cross-checks PRESS's max-AFR aggregation inside the cost model;
* :mod:`repro.redundancy.montecarlo` — a Monte Carlo of the same loss
  units with fixed-length rebuilds (expected failures, P(data loss)),
  the reference for the CTMC's exponential-repair assumption;
* :mod:`repro.redundancy.metrics` — the run-level tracker/summary pair
  mirroring :mod:`repro.faults.metrics`.

Layering: the package sits between ``repro.press`` (whose hazard
conversion it reuses) and ``repro.faults`` / ``repro.experiments``
(which consume it); it never imports the simulation kernel.
"""

from repro.redundancy.ctmc import CtmcResult, assess_scheme, mirror_mttdl_closed_form
from repro.redundancy.groups import GroupHealth, RedundancyGroups
from repro.redundancy.metrics import RedundancySummary, RedundancyTracker
from repro.redundancy.montecarlo import FailureAnalysis, simulate_failures
from repro.redundancy.scheme import (
    GroupScheme,
    SCHEME_PRESETS,
    parse_redundancy_spec,
)

__all__ = [
    "CtmcResult",
    "FailureAnalysis",
    "GroupHealth",
    "GroupScheme",
    "RedundancyGroups",
    "RedundancySummary",
    "RedundancyTracker",
    "SCHEME_PRESETS",
    "assess_scheme",
    "mirror_mttdl_closed_form",
    "parse_redundancy_spec",
    "simulate_failures",
]
