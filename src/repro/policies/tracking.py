"""Per-file access tracking shared by the adaptive policies.

Both PDC and READ learn popularity online: PDC re-ranks files every
epoch to concentrate load; READ's Access Tracking Manager (ATM) records
"each file's popularity in terms of number of accesses within one epoch
in a table called File Popularity Table (FPT)" (Sec. 4).  This module is
that table: a pair of count vectors (current epoch, previous epoch) with
an O(1) record path — it sits on the per-request hot path.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require

__all__ = ["AccessTracker"]


class AccessTracker:
    """Counts file accesses per epoch (the paper's ATM + FPT).

    :meth:`record` is called once per routed request;
    :meth:`roll_epoch` snapshots the counts for the epoch that just
    ended and resets the live counters.
    """

    def __init__(self, n_files: int) -> None:
        require(n_files >= 1, f"n_files must be >= 1, got {n_files}")
        self._n_files = n_files
        self._current = np.zeros(n_files, dtype=np.int64)
        self._previous = np.zeros(n_files, dtype=np.int64)
        #: accesses recorded since the last flush — record() is a plain
        #: list append; counts fold into the vectors in one bincount when
        #: anything actually reads them (epoch roll, count properties)
        self._pending: list[int] = []

    @property
    def n_files(self) -> int:
        """Tracked population size."""
        return int(self._current.size)

    def record(self, file_id: int) -> None:
        """Count one access to ``file_id`` in the current epoch."""
        if not 0 <= file_id < self._n_files:
            raise IndexError(f"file_id out of range: {file_id}")
        self._pending.append(file_id)

    def _flush(self) -> None:
        pending = self._pending
        if pending:
            self._current += np.bincount(pending, minlength=self._n_files)
            self._pending = []

    def roll_epoch(self) -> np.ndarray:
        """Close the current epoch; returns its counts (a copy).

        The returned array is also retained as :attr:`previous_counts`
        until the next roll.
        """
        self._flush()
        snapshot = self._current.copy()
        self._previous, self._current = snapshot, self._previous
        self._current[:] = 0
        return snapshot.copy()

    @property
    def current_counts(self) -> np.ndarray:
        """Live counts of the in-progress epoch (read-only view)."""
        self._flush()
        view = self._current.view()
        view.setflags(write=False)
        return view

    @property
    def previous_counts(self) -> np.ndarray:
        """Counts of the last completed epoch (read-only view)."""
        view = self._previous.view()
        view.setflags(write=False)
        return view

    def popularity_ranking(self, *, counts: np.ndarray | None = None) -> np.ndarray:
        """File ids sorted most-accessed first (stable; ties keep id order).

        Defaults to the last completed epoch's counts — what PDC's
        re-ranking and READ's FRD both sort by (Fig. 6, line 10).
        """
        base = self._previous if counts is None else np.asarray(counts)
        require(base.size == self.n_files, "counts length must match n_files")
        return np.argsort(-base, kind="stable").astype(np.int64)
