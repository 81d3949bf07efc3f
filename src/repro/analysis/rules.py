"""The initial rule pack: the simulator's real invariants, one rule each.

Scopes use dotted module prefixes.  "Kernel" modules — the ones whose
behaviour must be a pure function of the seed — are ``repro.sim``,
``repro.disk``, ``repro.press``, ``repro.policies`` and ``repro.faults``;
"artifact" modules — the ones that persist results — are
``repro.experiments``, ``repro.obs`` and ``repro.workload``.

Every rule here is a heuristic over the AST, not a type checker: the
point is to catch the *pattern* early and force either a fix or a
justified ``# repro: allow[CODE]`` pragma that documents why the
pattern is safe at that site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register

__all__ = ["KERNEL_SCOPE", "ARTIFACT_SCOPE", "LAYER_CONTRACT"]

#: Modules whose behaviour must be a pure function of the seed.
KERNEL_SCOPE = ("repro.sim", "repro.disk", "repro.press",
                "repro.policies", "repro.faults", "repro.redundancy")

#: Modules that persist artifacts and must do so crash-safely.
ARTIFACT_SCOPE = ("repro.experiments", "repro.obs", "repro.workload")


def _call_name(module: ModuleInfo, node: ast.Call) -> str | None:
    return module.resolve(node.func)


# ----------------------------------------------------------------------
# DET001 — no unseeded / global-state RNG in kernel code
# ----------------------------------------------------------------------
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


@register
class NoGlobalRng(Rule):
    """Kernel randomness must flow from an explicit, seeded Generator."""

    code = "DET001"
    name = "no-global-rng"
    description = ("kernel code must not draw from process-global RNG state "
                   "(`random.*`, `np.random.<fn>`); take a seeded "
                   "`np.random.Generator` (see repro.util.rngtools) instead")
    scope = KERNEL_SCOPE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            origin = module.resolve(node)
            if origin is None:
                continue
            if origin.startswith("random.") and origin != "random.Random":
                yield self.finding(module, node,
                                   f"global-state RNG `{origin}`: use a seeded "
                                   f"np.random.Generator (repro.util.rngtools)")
            elif origin.startswith(("numpy.random.", "np.random.")):
                fn = origin.split(".")[2] if origin.count(".") >= 2 else ""
                if fn and fn not in _NP_RANDOM_ALLOWED:
                    yield self.finding(module, node,
                                       f"module-level numpy RNG `{origin}`: use a "
                                       f"seeded np.random.Generator instead")


# ----------------------------------------------------------------------
# DET002 — no wall-clock / locale / environment reads in kernel code
# ----------------------------------------------------------------------
_WALL_CLOCK_ORIGINS = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.environ", "os.getenv", "os.environb",
    "locale.getlocale", "locale.setlocale", "locale.getpreferredencoding",
})


@register
class NoWallClock(Rule):
    """Simulated time is the only clock; config is the only env reader.

    ``time.perf_counter``/``time.monotonic`` stay allowed: they feed
    telemetry (events/sec, profiling) that simulation *results* never
    depend on.
    """

    code = "DET002"
    name = "no-wall-clock"
    description = ("kernel code must not read wall clocks, locale, or the "
                   "environment (`time.time`, `datetime.now`, `os.environ`); "
                   "simulated time and explicit config are the only inputs")
    scope = KERNEL_SCOPE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            origin = module.resolve(node)
            if origin in _WALL_CLOCK_ORIGINS:
                yield self.finding(module, node,
                                   f"non-deterministic input `{origin}` in "
                                   f"simulation code")


# ----------------------------------------------------------------------
# DET003 — no unordered iteration feeding ordered outputs
# ----------------------------------------------------------------------
@register
class NoUnorderedIteration(Rule):
    """Iteration order must be explicit wherever output order matters.

    Set iteration order depends on ``PYTHONHASHSEED`` for str keys, and
    ``.keys()`` hides whether insertion order is load-bearing — iterate
    the dict itself (insertion order, deterministic) or ``sorted(...)``.
    """

    code = "DET003"
    name = "no-unordered-iteration"
    description = ("kernel/export code must not iterate sets or `.keys()` "
                   "views; iterate the dict itself or wrap in `sorted(...)` "
                   "so ordering intent is explicit")
    scope = KERNEL_SCOPE + ARTIFACT_SCOPE + ("repro.core",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for expr in iters:
                offender = self._offender(module, expr)
                if offender is not None:
                    yield offender

    def _offender(self, module: ModuleInfo, expr: ast.expr) -> Finding | None:
        """First unordered construct in ``expr`` not washed by sorted()."""
        if isinstance(expr, ast.Call):
            origin = _call_name(module, expr)
            if origin in ("sorted", "min", "max"):
                return None  # order-insensitive consumer downstream
            if origin in ("set", "frozenset"):
                return self.finding(module, expr,
                                    f"iterating `{origin}(...)`: set order is "
                                    f"hash-dependent; wrap in sorted(...)")
            if (isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "keys" and not expr.args):
                return self.finding(module, expr,
                                    "iterating `.keys()`: iterate the dict "
                                    "itself (insertion order) or sorted(...) "
                                    "to make ordering intent explicit")
            for child in ast.iter_child_nodes(expr):
                found = self._offender_child(module, child)
                if found is not None:
                    return found
            return None
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return self.finding(module, expr,
                                "iterating a set: order is hash-dependent; "
                                "use a list/tuple or sorted(...)")
        for child in ast.iter_child_nodes(expr):
            found = self._offender_child(module, child)
            if found is not None:
                return found
        return None

    def _offender_child(self, module: ModuleInfo, child: ast.AST) -> Finding | None:
        if isinstance(child, ast.expr):
            return self._offender(module, child)
        return None


# ----------------------------------------------------------------------
# IO001 — artifact writes must go through repro.util.atomicio
# ----------------------------------------------------------------------
_RAW_WRITERS = frozenset({
    "pickle.dump", "json.dump", "numpy.save", "numpy.savez",
    "numpy.savez_compressed", "numpy.savetxt", "np.save", "np.savez",
    "np.savez_compressed", "np.savetxt", "shutil.copyfile", "shutil.copy",
})
_WRITE_MODE_CHARS = frozenset("wax+")


@register
class AtomicArtifactWrites(Rule):
    """A killed process must never leave a torn artifact behind."""

    code = "IO001"
    name = "atomic-artifact-writes"
    description = ("artifact modules must publish files via "
                   "repro.util.atomicio (atomic replace + quarantine), not "
                   "raw `open(.., 'w')`/`pickle.dump`/`np.save`")
    scope = ARTIFACT_SCOPE
    exempt = ("repro.util.atomicio",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = _call_name(module, node)
            if origin in _RAW_WRITERS:
                yield self.finding(module, node,
                                   f"raw `{origin}` write: publish through "
                                   f"repro.util.atomicio so readers never see "
                                   f"a torn file")
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "write_text", "write_bytes"):
                yield self.finding(module, node,
                                   f"raw `.{node.func.attr}()` write: use "
                                   f"repro.util.atomicio.atomic_write_*")
                continue
            mode = self._open_mode(module, node, origin)
            if mode is not None and _WRITE_MODE_CHARS & set(mode):
                yield self.finding(module, node,
                                   f"raw `open(.., {mode!r})`: write to a "
                                   f"buffer and publish via repro.util."
                                   f"atomicio, or justify with a pragma")

    @staticmethod
    def _open_mode(module: ModuleInfo, node: ast.Call,
                   origin: str | None) -> str | None:
        """Literal mode string of an open() / Path.open() call, if any."""
        if origin == "open":
            mode_arg = node.args[1] if len(node.args) > 1 else None
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "open":
            mode_arg = node.args[0] if node.args else None
        else:
            return None
        for kw in node.keywords:
            if kw.arg == "mode":
                mode_arg = kw.value
        if isinstance(mode_arg, ast.Constant) and isinstance(mode_arg.value, str):
            return mode_arg.value
        return None


# ----------------------------------------------------------------------
# OBS001 — `.emit` only with registered event names
# ----------------------------------------------------------------------
@register
class RegisteredEventsOnly(Rule):
    """The event taxonomy is closed: consumers key on it, exports sort by it."""

    code = "OBS001"
    name = "registered-events-only"
    description = ("`.emit(...)` must name its event via a repro.obs.events "
                   "constant (or a literal registered there); ad-hoc strings "
                   "silently fall out of every consumer")
    scope = ("repro",)

    def __init__(self) -> None:
        from repro.obs import events as _events

        self._registered_values = set(_events.ALL_EVENT_TYPES)
        self._registered_names = {
            name for name in dir(_events)
            if name.isupper() and isinstance(getattr(_events, name), str)
            and getattr(_events, name) in self._registered_values}

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit" and node.args):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value not in self._registered_values:
                    yield self.finding(module, node,
                                       f"emit of unregistered event "
                                       f"{arg.value!r}: add it to "
                                       f"repro.obs.events first")
                continue
            origin = module.resolve(arg)
            if origin is not None and origin.startswith("repro.obs.events."):
                const = origin.rsplit(".", 1)[1]
                if const not in self._registered_names:
                    yield self.finding(module, node,
                                       f"emit of unknown taxonomy constant "
                                       f"`{const}`")
                continue
            yield self.finding(module, node,
                               "emit with a dynamic event type: pass a "
                               "repro.obs.events constant (or pragma-justify "
                               "the forwarding site)")


# ----------------------------------------------------------------------
# NUM001 — no float equality in kernel code
# ----------------------------------------------------------------------
_FLOAT_SUFFIXES = ("_s", "_c", "_mb", "_ms", "_kwh", "_pct", "_percent",
                   "_ratio", "_rate", "_frac", "_fraction", "_afr", "_w", "_j")
_FLOAT_CONST_ORIGINS = frozenset({"math.inf", "math.nan", "math.pi", "math.e",
                                  "numpy.inf", "numpy.nan", "np.inf", "np.nan"})


@register
class NoFloatEquality(Rule):
    """Two independently computed floats are never reliably equal.

    The heuristic calls an operand "float-like" when it is a float
    literal, ``float(...)``, ``math.inf``/``nan``, or an identifier with
    one of the codebase's unit suffixes (``_s``, ``_c``, ``_mb``, ...).
    Exact comparison of a *propagated* value (same object written then
    read back) is legitimate — pragma those sites.
    """

    code = "NUM001"
    name = "no-float-equality"
    description = ("`==`/`!=` between floats in kernel code: use "
                   "math.isclose/np.isclose or an explicit tolerance; "
                   "pragma sites comparing a propagated exact value")
    scope = ("repro.sim", "repro.press", "repro.disk",
             "repro.experiments.costmodel")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if self._floatish(module, left) or self._floatish(module, right):
                    yield self.finding(module, node,
                                       "float equality: use math.isclose / an "
                                       "explicit tolerance, or pragma if the "
                                       "value is propagated exactly")
                    break   # one finding per comparison chain

    @staticmethod
    def _floatish(module: ModuleInfo, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call):
            return module.resolve(node.func) == "float"
        if isinstance(node, ast.UnaryOp):
            return NoFloatEquality._floatish(module, node.operand)
        ident: str | None = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            origin = module.resolve(node)
            if origin in _FLOAT_CONST_ORIGINS:
                return True
            ident = node.attr
        return ident is not None and ident.endswith(_FLOAT_SUFFIXES)


# ----------------------------------------------------------------------
# ARCH001 — cross-module import layering
# ----------------------------------------------------------------------
#: Allowed intra-``repro`` dependencies per subpackage.  Root modules
#: (``repro.cli``, ``repro.__main__``, the package ``__init__``) sit on
#: top and may import anything.  ``if TYPE_CHECKING:`` imports are
#: ignored — typing-only cycles carry no runtime coupling.
LAYER_CONTRACT: dict[str, frozenset[str]] = {
    "util": frozenset(),
    "sim": frozenset({"util"}),
    "workload": frozenset({"util"}),
    "obs": frozenset({"util", "sim"}),
    "disk": frozenset({"util", "sim", "obs", "workload"}),
    "press": frozenset({"util", "disk"}),
    "policies": frozenset({"util", "sim", "disk", "obs", "workload"}),
    "core": frozenset({"util", "sim", "disk", "policies", "workload"}),
    "redundancy": frozenset({"util", "press"}),
    "faults": frozenset({"util", "sim", "disk", "press", "policies",
                         "obs", "workload", "redundancy"}),
    "experiments": frozenset({"util", "sim", "disk", "press", "policies",
                              "obs", "workload", "faults", "core",
                              "redundancy"}),
    "analysis": frozenset({"util", "obs"}),
}


@register
class ImportLayering(Rule):
    """The dependency DAG is part of the architecture; keep it acyclic."""

    code = "ARCH001"
    name = "import-layering"
    description = ("intra-repro imports must respect the declared layer "
                   "contract (e.g. repro.sim must not import "
                   "repro.experiments); see LAYER_CONTRACT in "
                   "repro.analysis.rules")
    scope = ("repro",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        parts = module.package_parts
        if len(parts) < 2:
            return   # repro.__init__ / repro.cli / repro.__main__: top layer
        own = parts[1]
        allowed = LAYER_CONTRACT.get(own)
        if allowed is None:
            return   # unknown subpackage: contract does not cover it yet
        for node in ast.walk(module.tree):
            targets: list[tuple[ast.AST, str]] = []
            if isinstance(node, ast.Import):
                targets = [(node, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                targets = [(node, node.module)]
            for site, name in targets:
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                if module.is_type_checking_line(site.lineno):
                    continue
                dep = name.split(".")[1] if "." in name else ""
                if dep in ("", own):
                    continue   # bare package / sibling in the same layer
                if dep in ("cli", "__main__"):
                    yield self.finding(module, site,
                                       f"layer `{own}` must not import the "
                                       f"CLI layer (`{name}`)")
                elif dep in LAYER_CONTRACT and dep not in allowed:
                    yield self.finding(module, site,
                                       f"layer `{own}` must not import "
                                       f"`repro.{dep}` (allowed: "
                                       f"{', '.join(sorted(allowed)) or 'none'})")
