"""Every public function and method in ``src/repro`` has a caller.

A member that only tests call is code the program never runs: it costs
reading and upkeep and measures nothing.  The scan walks the AST of
``src/repro`` for public module-level functions and public class
methods and properties, then counts each name as a whole word across the
Python files of ``src/``, ``benchmarks/``, ``examples/`` and
``perfbench/``.  A name whose only occurrence is its own ``def`` has no
caller outside the tests.

The text match is conservative on purpose: any other occurrence of the
word (a different class's member of the same name, a docstring) counts
as a use.  Two kinds of occurrence are not uses and are not counted: an
entry of an ``__all__`` list, and a package ``__init__.py`` import that
re-exports the name.  A name whose only callers are tests is flagged
even when it is exported.  Members kept on purpose (reference
implementations that tests compare program output against, test-only
readouts) are listed in ``KEEP`` with the reason.

The same holds for options: every defaulted parameter or field of the
experiment front doors (``KNOB_TARGETS``) must be set at some call in
the same program code, or be listed in ``KNOB_KEEP`` with the reason.
An option nothing sets is a branch no experiment runs.
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
    "repro.analysis.core.rule_codes":
        "the rule-engine self-test checks that every registered rule has "
        "a known-bad fixture through it",
    "repro.disk.thermal.steady_temperature_from_rpm":
        "the Sec. 3.2 RPM-to-temperature law; a test checks that "
        "cheetah_two_speed's steady temperatures lie on it",
    "repro.experiments.validation.mg1_prediction":
        "the M/G/1 reference the validation tests compare simulated "
        "response times against",
    "repro.press.frequency.idema_start_stop_adder_percent":
        "Fig. 4a's adder on IDEMA's native per-month axis; tests check "
        "the figure's doubling of Eq. 3 through it",
    "repro.press.sensitivity.partial_effect":
        "the one-factor AFR curve of the sensitivity analysis; tests "
        "check the model's shape along each factor through it",
    "repro.util.units.kelvin_to_celsius":
        "inverse of celsius_to_kelvin; tests pin the paper's 273.16 "
        "offset through the round trip",
    "repro.util.units.kwh_to_joules":
        "inverse of joules_to_kwh; tests pin the kWh constant through "
        "the round trip",
    "repro.util.units.mb_to_bytes":
        "tests pin the datasheet's decimal megabyte through it",
    "repro.util.units.bytes_to_mb":
        "inverse of mb_to_bytes, checked by the same round trip",
    "repro.util.units.per_day_to_per_month":
        "inverse of per_month_to_per_day; tests pin the 30-day month "
        "through the round trip",
    "repro.workload.arrival.diurnal_poisson_arrivals":
        "the multi-day tests drive READ through a two-day day/night "
        "workload built with it",
    "repro.faults.injector.FaultInjector.lifecycle_of":
        "tests read a disk's failure lifecycle through it",
    "repro.redundancy.groups.RedundancyGroups.domain_of":
        "tests read a disk's fault domain through it",
}

_WORD = re.compile(r"\b\w+\b")


def _export_lines(tree: ast.Module, *, package_init: bool) -> set[int]:
    """Line numbers of ``__all__`` lists and, in a package ``__init__``,
    of its re-export imports: names there are exported, not used."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        exported = any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in targets)
        if exported or (package_init
                        and isinstance(node, (ast.Import, ast.ImportFrom))):
            lines.update(range(node.lineno, (node.end_lineno or node.lineno) + 1))
    return lines


def _word_counts() -> Counter[str]:
    counts: Counter[str] = Counter()
    for name in SCANNED_DIRS:
        for path in sorted((ROOT / name).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            skip = _export_lines(ast.parse(text),
                                 package_init=path.name == "__init__.py")
            for lineno, line in enumerate(text.splitlines(), start=1):
                if lineno not in skip:
                    counts.update(_WORD.findall(line))
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


# ----------------------------------------------------------------------
# knobs: every option of the experiment front doors is set by a program
# ----------------------------------------------------------------------
#: Functions and dataclasses whose defaulted parameters/fields must each
#: be set at some call in the scanned program code, by definition site.
KNOB_TARGETS = {
    "repro.experiments.parallel": ("RunSpec", "run_cells"),
    "repro.experiments.shard": ("ShardPlan", "ShardCellSpec", "run_sharded",
                                "shard_specs", "merge_shard_results"),
    "repro.experiments.runner": ("run_simulation",),
    "repro.experiments.figures": ("figure7_comparison",),
    "repro.experiments.resilience": ("ResilienceConfig",),
    "repro.redundancy.montecarlo": ("simulate_failures",),
}

#: ``target.option`` -> why the option stays although only tests set it.
KNOB_KEEP = {
    "run_simulation.press":
        "test_finalize_invariants plants a bad model through it; the "
        "fault injector's hazard reads the same model",
    "run_cells.resilience":
        "tests drive the executor's re-queues and timeouts through the "
        "public cell runner",
    "run_cells.checkpoint":
        "tests journal and resume cells through the public cell runner",
    "run_sharded.checkpoint":
        "tests and the scale tier resume a sharded cell shard by shard",
    "figure7_comparison.policy_kwargs":
        "tests run short-epoch READ sweeps through it",
}


def _scanned_trees():
    for name in SCANNED_DIRS:
        for path in sorted((ROOT / name).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _params(fn: ast.FunctionDef, *, method: bool):
    """``(positional names, {name: has default})`` of one function."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    n_pos = len(args.posonlyargs) + len(args.args)
    first_default = n_pos - len(args.defaults)
    defaulted = {a.arg: i >= first_default
                 for i, a in enumerate(args.posonlyargs + args.args)}
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        defaulted[a.arg] = d is not None
    return positional, defaulted


def _dataclass_fields(cls: ast.ClassDef):
    """``(field names in order, {name: has default})`` of one dataclass."""
    defaulted = {s.target.id: s.value is not None for s in cls.body
                 if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
    return list(defaulted), defaulted


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@functools.cache
def _program_index():
    """Every call site (with its enclosing function scopes) and every
    function signature in the scanned program code, keyed by name."""
    calls: dict[str, list] = {}
    signatures: dict[str, list] = {}

    def visit(node, scopes, in_class=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scopes, in_class=child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional, defaulted = _params(child, method=in_class is not None)
                name = (in_class if child.name == "__init__" and in_class
                        else child.name)
                signatures.setdefault(name, []).append((positional, defaulted))
                visit(child, scopes + ((name, set(defaulted)),))
                continue
            if isinstance(child, ast.Call):
                callee = _callee(child)
                if callee is not None:
                    calls.setdefault(callee, []).append((child, scopes))
            visit(child, scopes, in_class)

    for tree in _scanned_trees():
        visit(tree, ())
    return calls, signatures


def _forwarded(value: ast.expr, scopes):
    """``(function, parameter)`` when ``value`` is a bare name naming a
    parameter of an enclosing function, else ``None``."""
    if not isinstance(value, ast.Name):
        return None
    for fn, params in reversed(scopes):
        if value.id in params:
            return fn, value.id
    return None


def _sets(call: ast.Call, positional: list[str], option: str) -> ast.expr | None:
    """The expression ``call`` passes for ``option``, if it passes one."""
    for kw in call.keywords:
        if kw.arg == option:
            return kw.value
    if option in positional:
        i = positional.index(option)
        if i < len(call.args) and not any(isinstance(a, ast.Starred)
                                          for a in call.args[:i + 1]):
            return call.args[i]
    return None


def _is_set(name: str, positional: list[str], option: str,
            seen: frozenset = frozenset()) -> bool:
    """Whether some program call of ``name`` sets ``option`` (fixpoint
    over bare forwards of an enclosing function's own parameters)."""
    calls, _ = _program_index()
    key = (name, option)
    if key in seen:
        return False
    seen = seen | {key}
    for call, scopes in calls.get(name, ()):
        value = _sets(call, positional, option)
        if value is None:
            continue
        forward = _forwarded(value, scopes)
        if forward is None or _param_is_set(*forward, seen):
            return True
    # dataclasses.replace(obj, option=...) sets the field on a copy
    if name[:1].isupper():
        for call, scopes in calls.get("replace", ()):
            value = _sets(call, [], option)
            if value is not None:
                forward = _forwarded(value, scopes)
                if forward is None or _param_is_set(*forward, seen):
                    return True
    return False


def _param_is_set(fn: str, param: str, seen: frozenset) -> bool:
    """A required parameter is always set; a defaulted one when a call sets it."""
    _, signatures = _program_index()
    for positional, defaulted in signatures.get(fn, ()):
        if param not in defaulted:
            continue
        if not defaulted[param] or _is_set(fn, positional, param, seen):
            return True
    return False


@functools.cache
def _unset_knobs() -> tuple[str, ...]:
    unset = []
    for module, names in KNOB_TARGETS.items():
        path = ROOT / "src" / (module.replace(".", "/") + ".py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if getattr(node, "name", None) not in names:
                continue
            if isinstance(node, ast.ClassDef):
                positional, defaulted = _dataclass_fields(node)
            else:
                positional, defaulted = _params(node, method=False)
            for option, has_default in defaulted.items():
                if has_default and not _is_set(node.name, positional, option):
                    unset.append(f"{node.name}.{option}")
    return tuple(unset)


def test_every_knob_is_set_by_a_program():
    """A defaulted option no program sets is a branch nothing measures."""
    unlisted = [knob for knob in _unset_knobs() if knob not in KNOB_KEEP]
    assert not unlisted, (
        "options that no call in src/, benchmarks/, examples/ or perfbench/ "
        "sets (delete them with their plumbing, or add them to KNOB_KEEP "
        "with a reason):\n  " + "\n  ".join(unlisted))


def test_knob_keep_list_is_current():
    stale = sorted(set(KNOB_KEEP) - set(_unset_knobs()))
    assert not stale, (
        "KNOB_KEEP entries that are gone or now set by a program; drop "
        "them:\n  " + "\n  ".join(stale))
