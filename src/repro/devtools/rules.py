"""The repo-specific lint rules: determinism, concurrency, robustness, cache keys.

Each rule encodes one invariant the reproduction's correctness rests on and
that no generic linter knows about.  Rules are small ``ast``-walking classes
registered in :data:`RULES` by kebab-case code; the engine decides scope by
the dotted module identifier (``repro.simulation.engine``), so the same rule
set runs over ``src``, ``tests`` and ``benchmarks`` while the engine-only
contracts stay scoped to the engine packages.

Scope vocabulary:

* **engine packages** -- ``repro.simulation``, ``repro.core``,
  ``repro.failures``, ``repro.analysis``: everything whose outputs must be
  bit-identical across the scalar/vectorized/pooled execution paths.
* **threaded modules** -- the service/observability modules whose state is
  touched from worker threads, the asyncio loop and HTTP threads at once.
* **cache-key packages** -- code that builds or consumes content-addressed
  cache keys; anything hash-unstable there silently splits the cache.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["RULES", "FileContext", "Rule"]

# ----------------------------------------------------------------------
# Scopes
# ----------------------------------------------------------------------

#: Packages whose results must replay bit-identically from a seed.
ENGINE_PACKAGES = (
    "repro.simulation",
    "repro.core",
    "repro.failures",
    "repro.analysis",
)

#: Modules whose module/instance state is shared across threads.
THREADED_MODULES = (
    "repro.service.jobs",
    "repro.service.gateway",
    "repro.service.snapshot",
    "repro.service.queue",
    "repro.obs.metrics",
    "repro.obs.flight",
    "repro.obs.tracing",
)

#: Packages that feed the content-addressed cache (key stability required).
CACHE_KEY_PACKAGES = (
    "repro.runtime",
    "repro.service",
    "repro.simulation",
    "repro.experiments",
)

#: The one module allowed to touch hashlib: the canonical key builder.
HASHING_MODULE = "repro.runtime.hashing"


def in_packages(module: str, packages: Sequence[str]) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def build_import_table(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the canonical dotted path they were imported as."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    table[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def dotted_name(expr: ast.AST) -> Optional[str]:
    """The raw dotted source text of a Name/Attribute chain, or ``None``."""
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(expr: ast.AST) -> Optional[str]:
    """The last component of a Name/Attribute chain (``self._lock`` -> ``_lock``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


@dataclass
class FileContext:
    """Everything a rule needs to inspect one file."""

    path: str
    module: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.imports:
            self.imports = build_import_table(self.tree)

    def resolve(self, expr: ast.AST) -> Optional[str]:
        """Canonical dotted path of ``expr`` through the import table.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        whatever numpy was imported as; names with no import binding come
        back verbatim (builtins, locals).
        """
        raw = dotted_name(expr)
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        base = self.imports.get(head)
        if base is None:
            return raw
        return f"{base}.{rest}" if rest else base

    def calls(self) -> Iterator[ast.Call]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node

    def statement_lists(self) -> Iterator[List[ast.stmt]]:
        for node in ast.walk(self.tree):
            for name in ("body", "orelse", "finalbody"):
                block = getattr(node, name, None)
                if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                    yield block


Finding = Tuple[ast.AST, str]


class Rule:
    """Base class: a code, a one-line summary, and a scope."""

    code: str = ""
    summary: str = ""
    #: Dotted package prefixes the rule applies to (None = everywhere).
    packages: Optional[Sequence[str]] = None
    #: Exact modules the rule applies to (checked when set; overrides packages).
    modules: Optional[Sequence[str]] = None
    #: Modules exempt from the rule even when otherwise in scope.
    exempt_modules: Sequence[str] = ()

    def in_scope(self, module: str) -> bool:
        if module in self.exempt_modules:
            return False
        if self.modules is not None:
            return module in self.modules
        if self.packages is not None:
            return in_packages(module, self.packages)
        return True

    def scope_description(self) -> str:
        if self.modules is not None:
            return "modules: " + ", ".join(self.modules)
        if self.packages is not None:
            return "packages: " + ", ".join(self.packages)
        return "all linted files"

    def check(self, ctx: FileContext) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError


RULES: Dict[str, Rule] = {}


def register(cls: type) -> type:
    rule = cls()
    RULES[rule.code] = rule
    return cls


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


@register
class WallClockRule(Rule):
    """Wall-clock reads make engine outputs depend on *when* they ran."""

    code = "wall-clock"
    summary = "no wall-clock reads (time.time, datetime.now) in engine code"
    packages = ENGINE_PACKAGES

    BANNED = {
        "time.time": "time.time()",
        "time.time_ns": "time.time_ns()",
        "datetime.datetime.now": "datetime.now()",
        "datetime.datetime.utcnow": "datetime.utcnow()",
        "datetime.datetime.today": "datetime.today()",
        "datetime.date.today": "date.today()",
    }

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for call in ctx.calls():
            resolved = ctx.resolve(call.func)
            if resolved in self.BANNED:
                yield call, (
                    f"wall-clock read {self.BANNED[resolved]} in deterministic "
                    "engine code; results must depend only on the spec and "
                    "seed (time durations belong in obs/, via perf_counter)"
                )


@register
class UnseededRngRule(Rule):
    """Ad-hoc RNGs break the SeedSequence-derived replayability contract."""

    code = "unseeded-rng"
    summary = "RNGs must be threaded (seed/SeedSequence parameter), never ad hoc"
    packages = ("repro",)

    LEGACY = {
        "numpy.random.seed", "numpy.random.rand", "numpy.random.randn",
        "numpy.random.randint", "numpy.random.random", "numpy.random.uniform",
        "numpy.random.normal", "numpy.random.exponential", "numpy.random.choice",
        "numpy.random.shuffle", "numpy.random.permutation",
        "numpy.random.RandomState",
    }

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for call in ctx.calls():
            resolved = ctx.resolve(call.func)
            if resolved == "numpy.random.default_rng":
                if not call.args and not call.keywords:
                    yield call, (
                        "np.random.default_rng() with no seed draws fresh OS "
                        "entropy; thread a seed/SeedSequence parameter so the "
                        "stream is replayable"
                    )
            elif resolved in self.LEGACY:
                yield call, (
                    f"legacy global-state numpy RNG ({resolved}); pass a "
                    "np.random.Generator derived from the run's SeedSequence"
                )


@register
class StdlibRandomRule(Rule):
    """The stdlib ``random`` module has process-global, unthreaded state."""

    code = "stdlib-random"
    summary = "no stdlib `random` in engine code; use threaded numpy Generators"
    packages = ENGINE_PACKAGES

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield node, (
                            "stdlib `random` imported in engine code; its "
                            "global state cannot be threaded per chunk -- use "
                            "np.random.Generator from the run's SeedSequence"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    yield node, (
                        "stdlib `random` imported in engine code; its global "
                        "state cannot be threaded per chunk -- use "
                        "np.random.Generator from the run's SeedSequence"
                    )


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------

_LOCK_FACTORIES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
}

#: Receiver names treated as locks even without a visible assignment.
_LOCK_NAME_HINTS = {"lock", "_lock", "mutex", "_mutex"}


def _tracked_lock_names(ctx: FileContext) -> Set[str]:
    names = set(_LOCK_NAME_HINTS)
    for node in ast.walk(ctx.tree):
        value = getattr(node, "value", None)
        if not (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(value, ast.Call)):
            continue
        if ctx.resolve(value.func) not in _LOCK_FACTORIES:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            name = terminal_name(target)
            if name is not None:
                names.add(name)
    return names


@register
class LockAcquireRule(Rule):
    """Explicit ``acquire()`` leaks the lock on any exception in between."""

    code = "lock-acquire"
    summary = "locks are acquired via `with`; bare acquire() needs try/finally"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        tracked = _tracked_lock_names(ctx)

        def is_tracked_acquire(call: ast.Call) -> bool:
            func = call.func
            return (
                isinstance(func, ast.Attribute)
                and func.attr == "acquire"
                and terminal_name(func.value) in tracked
            )

        allowed: Set[int] = set()
        for block in ctx.statement_lists():
            for index, stmt in enumerate(block):
                if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
                    continue
                call = stmt.value
                if not is_tracked_acquire(call):
                    continue
                receiver = dotted_name(call.func.value)
                if index + 1 < len(block) and isinstance(block[index + 1], ast.Try):
                    for final_stmt in block[index + 1].finalbody:
                        if (
                            isinstance(final_stmt, ast.Expr)
                            and isinstance(final_stmt.value, ast.Call)
                            and isinstance(final_stmt.value.func, ast.Attribute)
                            and final_stmt.value.func.attr == "release"
                            and dotted_name(final_stmt.value.func.value) == receiver
                        ):
                            allowed.add(id(call))
                            break

        for call in ctx.calls():
            if is_tracked_acquire(call) and id(call) not in allowed:
                yield call, (
                    "lock acquired without `with` (or an immediate "
                    "try/finally releasing it); an exception in between "
                    "leaks the lock and wedges every other thread"
                )


@register
class EphemeralLockRule(Rule):
    """A lock created per call synchronises nothing."""

    code = "ephemeral-lock"
    summary = "no threading.Lock() created (and used) inside a function body"
    packages = ("repro",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            created: Dict[str, ast.Assign] = {}
            escaped: Set[str] = set()
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and ctx.resolve(node.value.func) in _LOCK_FACTORIES
                    and all(isinstance(target, ast.Name) for target in node.targets)
                ):
                    for target in node.targets:
                        created[target.id] = node
                elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                    if node.value is not None:
                        for name in ast.walk(node.value):
                            if isinstance(name, ast.Name):
                                escaped.add(name.id)
                elif isinstance(node, ast.Call):
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        for name in ast.walk(arg):
                            if isinstance(name, ast.Name):
                                escaped.add(name.id)
            for name, node in created.items():
                if name not in escaped:
                    yield node, (
                        f"lock {name!r} is created inside {func.name}() and "
                        "never leaves it: every call gets a fresh lock, so it "
                        "synchronises nothing -- hoist it to the instance or "
                        "module"
                    )


@register
class ModuleStateRule(Rule):
    """Shared mutable module state in threaded modules needs a lock story."""

    code = "module-state"
    summary = "threaded modules: module-level mutable state must be lock-guarded"
    modules = THREADED_MODULES

    _MUTABLE_FACTORIES = {
        "dict", "list", "set",
        "collections.defaultdict", "collections.deque",
        "collections.OrderedDict", "collections.Counter",
    }

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = stmt.value
            if value is None:
                continue
            # __all__ is a write-once export list read only by import
            # machinery and docs tooling; it is not runtime shared state.
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            ):
                continue
            mutable = isinstance(
                value,
                (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
            ) or (
                isinstance(value, ast.Call)
                and ctx.resolve(value.func) in self._MUTABLE_FACTORIES
            )
            if mutable:
                yield stmt, (
                    "module-level mutable state in a threaded module; every "
                    "access races across worker/HTTP/loop threads -- guard it "
                    "with a lock and suppress with a justification, or move "
                    "it onto a locked instance"
                )


# ----------------------------------------------------------------------
# Robustness
# ----------------------------------------------------------------------


@register
class BareExceptRule(Rule):
    """``except:`` swallows SystemExit/KeyboardInterrupt."""

    code = "bare-except"
    summary = "no bare `except:` anywhere"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield node, (
                    "bare `except:` also catches SystemExit and "
                    "KeyboardInterrupt; catch the exception you expect (or "
                    "at minimum `except Exception`)"
                )


@register
class BroadExceptRule(Rule):
    """Catching ``Exception`` silently is how failures disappear."""

    code = "broad-except"
    summary = "`except Exception` must log, re-raise, or carry a justification"
    packages = ("repro",)

    _LOG_ATTRS = {
        "debug", "info", "warning", "warn", "error", "exception", "critical", "log",
    }
    _LOG_NAMES = {"log_event"}
    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Tuple):
            return any(self._is_broad(elt) for elt in annotation.elts)
        name = terminal_name(annotation)
        return name in self._BROAD

    def _handled(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in self._LOG_ATTRS:
                    return True
                if isinstance(func, ast.Name) and func.id in self._LOG_NAMES:
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node.type) and not self._handled(node):
                yield node, (
                    "`except Exception` that neither logs nor re-raises turns "
                    "failures into silence; log it, re-raise, or justify with "
                    "a `repro: noqa[broad-except]` suppression"
                )


# ----------------------------------------------------------------------
# Cache-key hygiene
# ----------------------------------------------------------------------


@register
class CacheKeyRule(Rule):
    """Cache keys must be process- and platform-stable."""

    code = "cache-key"
    summary = "cache-key code routes hashing through repro.runtime.hashing"
    packages = CACHE_KEY_PACKAGES
    exempt_modules = (HASHING_MODULE,)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for call in ctx.calls():
            resolved = ctx.resolve(call.func)
            if resolved == "hash":
                yield call, (
                    "builtin hash() is salted per process (PYTHONHASHSEED); "
                    "a key built from it cannot be found again -- use "
                    "repro.runtime.hashing.stable_hash"
                )
            elif resolved is not None and resolved.startswith("hashlib."):
                yield call, (
                    "ad-hoc hashlib digest in cache-key code; keys must go "
                    "through repro.runtime.hashing (canonical float/array "
                    "encoding, class tagging) or logically equal requests "
                    "will miss each other"
                )


# ----------------------------------------------------------------------
# Performance
# ----------------------------------------------------------------------


@register
class PerfPythonCallbackRule(Rule):
    """Per-cell Python model callbacks undo the kernels' vectorization.

    The PR 10 burn-down replaced every per-row ``model.cost(...)`` /
    ``model.recovery(...)`` call in the DP kernels with precomputed tables
    (``_FrontierCostTables``); a callback re-introduced inside a loop or
    comprehension turns an O(1)-pass kernel back into O(cells) interpreter
    round-trips.  Intentional per-call fallbacks (custom ``combine``
    callables the tables cannot replay) carry an explicit
    ``repro: noqa[perf-python-callback]`` suppression.
    """

    code = "perf-python-callback"
    summary = "no per-row model callbacks (.cost/.recovery) in core kernel loops"
    packages = ("repro.core",)

    CALLBACKS = ("cost", "recovery")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        seen: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.While)):
                scope: Iterable[ast.stmt] = [*node.body, *node.orelse]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                scope = [node]  # type: ignore[list-item]
            else:
                continue
            for stmt in scope:
                for call in ast.walk(stmt):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in self.CALLBACKS
                        and id(call) not in seen
                    ):
                        seen.add(id(call))
                        yield call, (
                            f"Python model callback .{call.func.attr}(...) "
                            "inside a kernel loop runs once per row/DP cell; "
                            "precompute a cost table (see _FrontierCostTables) "
                            "or hoist the call out of the loop"
                        )
