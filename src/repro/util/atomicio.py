"""Crash-safe filesystem primitives: atomic publication and quarantine.

Every artifact the toolkit persists (sweep checkpoints, written WC98
logs, JSONL traces, time-series, reports) goes through one of these
helpers so a killed process can never leave a half-written file where a
reader expects a whole one:

* **atomic publication** — content is written to a uniquely-named
  temporary file *in the target directory* (same filesystem, so the
  final :func:`os.replace` is atomic on POSIX and Windows) and only
  renamed onto the destination once fully flushed;
* **quarantine** — a file that turns out to be corrupt (truncated
  pickle, bad checkpoint) is renamed aside with a marker
  suffix instead of deleted, so the operator can inspect it while every
  subsequent run regenerates cleanly.

The helpers never fsync: the contract is "no torn files", not
"durability across power loss" — simulation artifacts are always
recomputable from their seeds.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_bytes", "atomic_write_text", "quarantine",
           "CORRUPT_SUFFIX", "PARTIAL_SUFFIX"]

PathLike = Union[str, "os.PathLike[str]"]

#: Suffix appended to files set aside because their content is damaged.
CORRUPT_SUFFIX = ".corrupt"
#: Suffix appended to files set aside because a writer died mid-stream.
PARTIAL_SUFFIX = ".partial"


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically; returns the final path.

    Readers never observe a partial file: they see either the previous
    content or the new content.  The parent directory is created if
    missing.  On any failure the temporary file is removed and the
    destination is left untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent,
                                    prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def atomic_write_text(path: PathLike, text: str, *,
                      encoding: str = "utf-8") -> Path:
    """Text-mode companion of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding))


def quarantine(path: PathLike, *, suffix: str = CORRUPT_SUFFIX) -> Path | None:
    """Rename a damaged file aside (``<name><suffix>``) instead of deleting.

    Returns the quarantine path, or ``None`` when the file could not be
    moved (already gone, or the directory is read-only) — quarantining
    is best-effort and must never mask the recovery that follows it.
    An earlier quarantine of the same name is overwritten: the newest
    corpse is the interesting one.
    """
    source = Path(path)
    target = source.with_name(source.name + suffix)
    try:
        os.replace(source, target)
    except OSError:
        return None
    return target
