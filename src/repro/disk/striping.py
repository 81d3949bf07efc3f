"""RAID-0 style striping layout (the paper's future-work direction 2).

Section 6: "we intend to enable the READ scheme to cooperate with the
RAID architecture, where files are usually striped across disks ...
For the web server environment, files are usually very small, and thus
stripping is not crucial.  However, for large files such as video clips
... stripping is needed."  The paper's reference stripe unit is 512 KB
(Sec. 4).

This module is pure layout math — which disks hold which chunk of a
file — shared by the striped policy and by tests.  Files at or below one
stripe unit stay whole (matching the paper's observation that striping
tiny web files is pointless).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require, require_positive

__all__ = ["StripeChunk", "StripeLayout", "PAPER_STRIPE_UNIT_MB"]

#: The paper's "normal stripping block size 512 KB" (Sec. 4), in MB.
PAPER_STRIPE_UNIT_MB = 0.512


@dataclass(frozen=True, slots=True)
class StripeChunk:
    """One leg of a striped access: ``size_mb`` read from ``disk_id``."""

    disk_id: int
    size_mb: float


class StripeLayout:
    """Round-robin stripe mapping over ``n_disks``.

    A file's chunks start on disk ``file_id % n_disks`` (staggering the
    first chunks so small-file load spreads) and wrap round-robin in
    ``stripe_unit_mb`` pieces.  The mapping is stateless and
    deterministic — tests and the policy always agree on it.
    """

    def __init__(self, n_disks: int, stripe_unit_mb: float = PAPER_STRIPE_UNIT_MB) -> None:
        require(n_disks >= 1, f"n_disks must be >= 1, got {n_disks}")
        self.n_disks = n_disks
        self.stripe_unit_mb = require_positive(stripe_unit_mb, "stripe_unit_mb")

    def chunks_of(self, file_id: int, size_mb: float) -> list[StripeChunk]:
        """The chunk list of one whole-file access.

        Files <= one stripe unit return a single whole chunk; larger
        files return ceil(size/unit) chunks, the last one partial.  A
        file never gets two chunks on the same disk *per rotation*: with
        more chunks than disks the wrap continues (that disk serves
        multiple chunks sequentially, as real RAID-0 does).
        """
        require(file_id >= 0, f"file_id must be >= 0, got {file_id}")
        require_positive(size_mb, "size_mb")
        unit = self.stripe_unit_mb
        if size_mb <= unit:
            return [StripeChunk(file_id % self.n_disks, size_mb)]
        chunks: list[StripeChunk] = []
        remaining = size_mb
        disk = file_id % self.n_disks
        while remaining > 1e-12:
            piece = min(unit, remaining)
            chunks.append(StripeChunk(disk, piece))
            remaining -= piece
            disk = (disk + 1) % self.n_disks
        return chunks
