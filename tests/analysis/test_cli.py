"""CLI contract: exit codes, JSON shape, and the self-clean gate.

The acceptance bar for the whole suite lives here:
``repro lint`` over ``src/repro`` must report zero unsuppressed
findings (exit 0), and the known-bad fixture tree must exit 1.
"""
import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
BAD = Path(__file__).parent / "fixtures" / "known_bad"


# ----------------------------------------------------------------------
# the gate itself
# ----------------------------------------------------------------------
def test_source_tree_is_clean():
    assert lint_main([str(SRC)]) == 0


def test_known_bad_tree_exits_1():
    assert lint_main([str(BAD)]) == 1


def test_repro_lint_subcommand_matches_module_entry(capsys):
    assert repro_main(["lint", str(SRC)]) == 0
    assert repro_main(["lint", str(BAD)]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------
def test_unknown_rule_code_is_usage_error(capsys):
    assert lint_main(["--rules", "NOPE999", str(BAD)]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys):
    assert lint_main([str(BAD / "no_such_dir_anywhere")]) == 2


def test_update_baseline_without_all_is_usage_error(capsys):
    assert lint_main(["--update-baseline", str(SRC)]) == 2


def test_list_rules_exits_clean(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("DET001", "DET002", "DET003", "IO001", "OBS001",
                 "NUM001", "ARCH001"):
        assert code in out


# ----------------------------------------------------------------------
# output contract: JSON on stdout, logs on stderr
# ----------------------------------------------------------------------
def test_json_document_shape(capsys):
    assert lint_main(["--json", str(BAD)]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)     # stdout is pure JSON
    assert doc["version"] == 1
    assert doc["clean"] is False
    assert doc["files_checked"] == 7
    assert {"path", "line", "col", "code", "message", "tool"} <= set(
        doc["findings"][0])
    assert all(f["tool"] == "repro" for f in doc["findings"])
    assert "checked" in captured.err   # the summary went to stderr


def test_json_on_clean_tree_reports_suppressions(capsys):
    assert lint_main(["--json", str(SRC)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is True
    assert doc["findings"] == []
    # the shipped tree documents its justified exceptions
    assert doc["suppressed"], "expected pragma-suppressed sites in src/repro"
    assert all(f["justification"] for f in doc["suppressed"])


def test_human_output_renders_path_line_col(capsys):
    lint_main([str(BAD)])
    out = capsys.readouterr().out
    assert "bad_rng.py:12:" in out and "DET001" in out


# ----------------------------------------------------------------------
# rule selection
# ----------------------------------------------------------------------
def test_rules_filter_limits_findings(capsys):
    assert lint_main(["--rules", "ARCH001", "--json", str(BAD)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert {f["code"] for f in doc["findings"]} == {"ARCH001"}


# ----------------------------------------------------------------------
# external tools are gated, not assumed
# ----------------------------------------------------------------------
def test_all_reports_tool_status(capsys):
    # must not crash whether or not mypy/ruff exist in the environment;
    # exit 2 is only legal via --require-tools
    code = lint_main(["--all", "--json", str(BAD)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert {t["tool"] for t in doc["tools"]} == {"mypy", "ruff"}
    assert all(t["status"] in ("ok", "findings", "skipped", "error")
               for t in doc["tools"])


def test_require_tools_escalates_missing_tool(capsys):
    import importlib.util
    import shutil

    have_both = (importlib.util.find_spec("mypy") is not None
                 and (shutil.which("ruff") is not None
                      or importlib.util.find_spec("ruff") is not None))
    if have_both:
        pytest.skip("both tools installed; skip path not reachable")
    assert lint_main(["--all", "--require-tools", str(BAD)]) == 2
