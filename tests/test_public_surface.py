"""Every public function and method in ``src/repro`` has a caller.

A member that only tests call is code the program never runs: it costs
reading and upkeep and measures nothing.  The scan walks the AST of
``src/repro`` for public module-level functions and public class
methods and properties, then counts each name as a whole word across the
Python files of ``src/``, ``benchmarks/``, ``examples/`` and
``perfbench/``.  A name whose only occurrence is its own ``def`` has no
caller outside the tests.

The text match is conservative on purpose: any other occurrence of the
word (a different class's member of the same name, a docstring, an
``__all__`` entry) counts as a use.  Names reached only through
``__all__`` re-exports, and reference implementations cross-checked by
tests, are therefore out of scope.  Members kept on purpose are listed
in ``KEEP`` with the reason.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: qualname -> why the member stays although no program code calls it.
KEEP = {
    "repro.disk.energy.EnergyMeter.total_time_s":
        "the time-conservation property test checks the meter against it",
    "repro.disk.stats.DiskStats.transitions_on_day":
        "tests read per-day transition counts through it",
    "repro.faults.injector.FaultInjector.lifecycle_of":
        "tests read a disk's failure lifecycle through it",
    "repro.redundancy.groups.RedundancyGroups.domain_of":
        "tests read a disk's fault domain through it",
}

_WORD = re.compile(r"\b\w+\b")


def _word_counts() -> Counter[str]:
    counts: Counter[str] = Counter()
    for name in SCANNED_DIRS:
        for path in sorted((ROOT / name).rglob("*.py")):
            counts.update(_WORD.findall(path.read_text(encoding="utf-8")))
    return counts


def _public_members():
    """Yield ``(qualname, name)`` for each public function and method."""
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{module}.{node.name}.{sub.name}", sub.name


@functools.cache
def _uncalled() -> tuple[str, ...]:
    counts = _word_counts()
    return tuple(qual for qual, name in _public_members()
                 if not name.startswith("_") and counts[name] == 1)


def test_every_public_member_has_a_caller():
    uncalled = _uncalled()
    unlisted = [qual for qual in uncalled if qual not in KEEP]
    assert not unlisted, (
        f"{len(uncalled)} public members are referenced only at their own "
        f"definition; {len(unlisted)} are not in KEEP (delete them with "
        "their tests, or add them to KEEP with a reason):\n  "
        + "\n  ".join(unlisted))


def test_keep_list_is_current():
    stale = sorted(set(KEEP) - set(_uncalled()))
    assert not stale, (
        "KEEP entries that are gone or now have a caller; drop them:\n  "
        + "\n  ".join(stale))
