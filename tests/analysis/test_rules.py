"""One positive and one negative test per rule code.

The positive cases pin the exact (file, line, code) of every finding in
the committed ``known_bad`` fixture tree; the negative cases assert the
``known_clean`` tree (which exercises the sanctioned counterpart of each
pattern) produces nothing.
"""
from pathlib import Path

import pytest

from repro.analysis import lint_paths, rule_codes

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "known_bad"
CLEAN = FIXTURES / "known_clean"


def _findings(tree: Path, code: str) -> list[tuple[str, int]]:
    result = lint_paths([tree], root=FIXTURES)
    return [(f.path, f.line) for f in result.findings if f.code == code]


# ----------------------------------------------------------------------
# positive: every rule fires at the pinned locations
# ----------------------------------------------------------------------
EXPECTED = {
    "DET001": [("known_bad/repro/sim/bad_rng.py", 12),
               ("known_bad/repro/sim/bad_rng.py", 16)],
    "DET002": [("known_bad/repro/sim/bad_clock.py", 10),
               ("known_bad/repro/sim/bad_clock.py", 14)],
    "DET003": [("known_bad/repro/sim/bad_iter.py", 9),
               ("known_bad/repro/sim/bad_iter.py", 11)],
    "IO001": [("known_bad/repro/experiments/bad_io.py", 10),
              ("known_bad/repro/experiments/bad_io.py", 11),
              ("known_bad/repro/experiments/bad_io.py", 15)],
    "OBS001": [("known_bad/repro/obs/bad_emit.py", 8),
               ("known_bad/repro/obs/bad_emit.py", 10)],
    "NUM001": [("known_bad/repro/sim/bad_float_eq.py", 8),
               ("known_bad/repro/sim/bad_float_eq.py", 12)],
    "ARCH001": [("known_bad/repro/sim/bad_layering.py", 5)],
}


@pytest.mark.parametrize("code", sorted(EXPECTED))
def test_rule_fires_at_exact_locations(code):
    assert _findings(BAD, code) == EXPECTED[code]


def test_every_registered_rule_has_a_positive_case():
    assert set(EXPECTED) == set(rule_codes())


def test_known_bad_total_is_exactly_the_expected_set():
    result = lint_paths([BAD], root=FIXTURES)
    got = {(f.path, f.line, f.code) for f in result.findings}
    want = {(path, line, code)
            for code, locs in EXPECTED.items() for path, line in locs}
    assert got == want
    assert not result.suppressed


# ----------------------------------------------------------------------
# negative: the sanctioned counterparts stay silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", sorted(EXPECTED))
def test_rule_is_silent_on_clean_tree(code):
    assert _findings(CLEAN, code) == []


def test_known_clean_is_fully_clean():
    result = lint_paths([CLEAN], root=FIXTURES)
    assert result.findings == []
    assert result.files_checked == 3


# ----------------------------------------------------------------------
# scoping: the same pattern outside a rule's scope is not flagged
# ----------------------------------------------------------------------
def test_kernel_rules_ignore_out_of_scope_modules(tmp_path):
    # identical source to bad_clock.py, but placed under repro/cli-side
    # tooling where DET002 does not apply
    mod = tmp_path / "repro" / "analysis" / "clocky.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    result = lint_paths([mod], root=tmp_path)
    assert [f.code for f in result.findings] == []


def test_non_repro_files_are_skipped_by_scoped_rules(tmp_path):
    mod = tmp_path / "scratch.py"
    mod.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    result = lint_paths([mod], root=tmp_path)
    assert result.findings == []
