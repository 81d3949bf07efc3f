"""Content-keyed memoization of synthetic workload generation.

Sweeps evaluate many (policy, array size) cells against the *same*
workload — the paper's fairness protocol (Sec. 3.5) even requires it —
yet each cell historically regenerated the trace from scratch.  This
module keys a generated ``(FileSet, Trace)`` pair by a digest of the
full :class:`~repro.workload.synthetic.SyntheticWorkloadConfig` content,
so any two configs with equal parameters share one materialization in
an in-process LRU of the most recent ``max_entries`` workloads (both
arrays are immutable — ``setflags(write=False)`` — so sharing one
instance across simulation runs is safe).

The digest covers every config field, so a changed parameter can never
alias a stale workload.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import asdict
from typing import Optional, Tuple

from repro.util.validation import require
from repro.workload.files import FileSet
from repro.workload.stream import SyntheticStreamSpec, WorkloadLike, materialize
from repro.workload.trace import Trace

__all__ = ["WorkloadCache", "cached_generate", "default_cache", "workload_key"]

#: Default number of workloads kept in memory.  Workloads at paper scale
#: are tens of MB; sweeps touch one or two distinct configs at a time.
DEFAULT_MAX_ENTRIES = 8


def workload_key(config: WorkloadLike) -> str:
    """Stable content digest of a workload description (sha256 hex).

    Equal parameter values — not object identity — produce equal keys.
    A :class:`SyntheticStreamSpec` keys identically to its underlying
    config: both name the same trace, so they share one cache entry, and
    no chunk size enters the digest.
    """
    if isinstance(config, SyntheticStreamSpec):
        config = config.config
    blob = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class WorkloadCache:
    """In-process LRU of generated workloads."""

    def __init__(self, *, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        require(max_entries >= 1, f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lru: "OrderedDict[str, Tuple[FileSet, Trace]]" = OrderedDict()
        self.hits = 0    #: served from memory
        self.misses = 0  #: full regenerations

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        """Drop all entries."""
        self._lru.clear()

    def get_or_generate(self, config: WorkloadLike) -> Tuple[FileSet, Trace]:
        """Return the workload for ``config``, generating at most once.

        Accepts a :class:`SyntheticStreamSpec` as well as a plain config:
        both share the entry of the same content digest.
        """
        key = workload_key(config)
        pair = self._lru.get(key)
        if pair is not None:
            self.hits += 1
            self._lru.move_to_end(key)
            return pair
        self.misses += 1
        pair = materialize(config)
        self._lru[key] = pair
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)
        return pair


# ----------------------------------------------------------------------
# process-wide default
# ----------------------------------------------------------------------
_default: Optional[WorkloadCache] = None


def default_cache() -> WorkloadCache:
    """The process-wide cache."""
    global _default
    if _default is None:
        _default = WorkloadCache()
    return _default


def cached_generate(config: WorkloadLike) -> Tuple[FileSet, Trace]:
    """Generate (or reuse) the workload for ``config`` via the default cache."""
    return default_cache().get_or_generate(config)
