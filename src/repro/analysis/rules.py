"""The repro project's invariant checkers (thirteen rules in RL001–RL014;
the id after RL003 is retired and not reused).

Each rule encodes one convention the engine's correctness or
reproducibility depends on; see ``docs/static-analysis.md`` for the full
rationale and suppression guidance.  RL001–RL009 and RL014 are per-module
rules; RL010–RL013 run in the project phase over the whole-program model
of :mod:`repro.analysis.project` (call graph, symbol tables, taint).

================  ====================================================
RL001             unseeded randomness outside ``tests/``
RL002             raw clock access outside ``core/budget.py``,
                  ``benchmarks/``, ``obs/`` and ``bench/ledger.py``
RL003             ``Node`` mutators that skip bounds-cache invalidation
RL005             search loops in ``core/`` bypassing :class:`Budget`
RL006             span/metric names that are not dotted-lowercase
                  literals registered in ``obs/names.py``
RL007             solver invocations in ``service/`` that bypass the
                  deadline :class:`Budget` machinery
RL008             broad ``except`` clauses in ``service/`` and
                  ``core/parallel.py`` that neither re-raise nor map
                  through :func:`classify_exception`
RL009             ``SharedMemory`` constructions in ``warm/`` outside a
                  context manager or a ``try`` with reachable
                  ``close()``/``unlink()`` cleanup
RL010             blocking calls transitively reachable from ``async
                  def`` handlers in ``service/``
RL011             attached warm-plane arrays flowing into in-place
                  NumPy mutation without ``.copy()``
RL012             non-spec values crossing the process-pool pickle
                  boundary (``submit``/``run_specs``/``SolveJob``)
RL013             ``fault_point`` sites not declared in
                  ``faults/hooks.py``, and declared-but-dead sites
RL014             benchmark results written with raw ``json.dump``
                  instead of the benchmark ledger
                  (``repro.bench.ledger.emit_sections``)
================  ====================================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .framework import Checker, Finding, Module, ProjectChecker, register
from .project import (
    CallEdge,
    FunctionInfo,
    ProjectModel,
    TaintAnalysis,
)

__all__ = [
    "UnseededRandomness",
    "ClockDiscipline",
    "CacheInvalidation",
    "BudgetDiscipline",
    "ObservabilityNames",
    "ServiceBudgetDiscipline",
    "StructuredErrorHandling",
    "SharedMemoryLifecycle",
    "AsyncBlocking",
    "AttachedArrayMutation",
    "PickleBoundary",
    "FaultSiteConsistency",
    "LedgerDiscipline",
]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
    """Every function/method in the module with its owning class (if any)."""

    def visit(node: ast.AST, owner: ast.ClassDef | None) -> Iterator[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                yield from visit(child, owner)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            else:
                yield from visit(child, owner)

    return visit(tree, None)


def _arg_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    return [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ] + [a.arg for a in (args.vararg, args.kwarg) if a is not None]


def _body_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every identifier referenced in the function body (not the signature)."""
    names: set[str] = set()
    for statement in func.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


def _in_tests(module: Module) -> bool:
    return module.in_directory("tests") or module.parts[-1].startswith("test_")


# ----------------------------------------------------------------------
# RL001 — unseeded randomness
# ----------------------------------------------------------------------
@register
class UnseededRandomness(Checker):
    """All randomness must come from explicitly seeded generators.

    Parallel restarts are only worker-count deterministic because every
    member derives its RNG from ``derive_seed(base, index)``; one call into
    the process-global ``random`` module (or an unseeded ``default_rng()``)
    silently breaks that reproducibility.
    """

    rule = "RL001"
    description = "randomness must flow through explicitly seeded generators"

    #: functions of the ``random`` module that consume the global RNG state
    GLOBAL_RANDOM_FUNCTIONS = frozenset(
        {
            "random", "randint", "randrange", "randbytes", "getrandbits",
            "shuffle", "choice", "choices", "sample", "seed",
            "uniform", "triangular", "gauss", "normalvariate", "lognormvariate",
            "expovariate", "betavariate", "gammavariate", "paretovariate",
            "vonmisesvariate", "weibullvariate", "binomialvariate",
        }
    )

    def applies(self, module: Module) -> bool:
        return not _in_tests(module)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            unseeded = not node.args and not node.keywords
            if dotted == "random.Random" and unseeded:
                yield self.finding(
                    module,
                    node,
                    "random.Random() constructed without a seed",
                    hint="pass an explicit seed (or an already-seeded Random)",
                )
            elif dotted.startswith("random.") and (
                dotted.split(".", 1)[1] in self.GLOBAL_RANDOM_FUNCTIONS
            ):
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() draws from the process-global RNG",
                    hint="thread a seeded random.Random through the call chain",
                )
            elif dotted in ("np.random.default_rng", "numpy.random.default_rng"):
                if unseeded:
                    yield self.finding(
                        module,
                        node,
                        "default_rng() created without an explicit seed",
                        hint="pass a seed: np.random.default_rng(seed)",
                    )
            elif dotted.startswith(("np.random.", "numpy.random.")):
                attr = dotted.rsplit(".", 1)[1]
                if attr in ("Generator", "SeedSequence", "PCG64", "Philox"):
                    continue
                if attr == "RandomState" and not unseeded:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() uses NumPy's global (or unseeded) RNG",
                    hint="use np.random.default_rng(seed) and pass the generator",
                )


# ----------------------------------------------------------------------
# RL002 — clock discipline
# ----------------------------------------------------------------------
@register
class ClockDiscipline(Checker):
    """Wall-clock reads are confined to ``core/budget.py``, ``benchmarks/``,
    ``obs/`` and ``bench/ledger.py``.

    Budgets carry an injectable ``clock`` so tests can simulate time; a raw
    ``time.perf_counter()`` elsewhere cannot be faked and re-introduces
    timing-dependent behaviour.  Measure durations with
    :class:`repro.core.budget.Stopwatch` instead.  The observability layer
    is on the allowlist for the same reason benchmarks are: it *reports*
    time (span durations, event timestamps) rather than steering the
    search, and its tracer clock is injectable anyway.
    """

    rule = "RL002"
    description = "raw clock access outside core/budget.py, benchmarks/ and obs/"

    CLOCK_ATTRIBUTES = frozenset({"time", "monotonic", "perf_counter", "process_time"})
    #: ``bench/ledger.py`` is sanctioned like ``obs/``: it *records* wall
    #: time (row timestamps, run ids) for the perf trajectory, never
    #: steering the search
    ALLOWED_SUFFIXES = (
        "repro/core/budget.py", "core/budget.py",
        "repro/bench/ledger.py", "bench/ledger.py",
    )
    #: ``obs/`` is sanctioned: sinks stamp wall-clock timestamps and the
    #: default tracer clock falls back to a Stopwatch-compatible reader
    ALLOWED_DIRECTORIES = ("benchmarks", "obs")

    def applies(self, module: Module) -> bool:
        if any(module.path_endswith(suffix) for suffix in self.ALLOWED_SUFFIXES):
            return False
        return not any(
            module.in_directory(name) or module.parts[0] == name
            for name in self.ALLOWED_DIRECTORIES
        )

    def check(self, module: Module) -> Iterator[Finding]:
        hint = "route timing through repro.core.budget (Budget or Stopwatch)"
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if (
                    dotted is not None
                    and dotted.startswith("time.")
                    and dotted.split(".", 1)[1] in self.CLOCK_ATTRIBUTES
                ):
                    yield self.finding(
                        module, node, f"raw clock access: {dotted}", hint=hint
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                clocks = [
                    alias.name
                    for alias in node.names
                    if alias.name in self.CLOCK_ATTRIBUTES
                ]
                if clocks:
                    yield self.finding(
                        module,
                        node,
                        f"imports clock function(s) {', '.join(clocks)} from time",
                        hint=hint,
                    )


# ----------------------------------------------------------------------
# RL003 — Node bounds-cache invalidation
# ----------------------------------------------------------------------
#: ``(guard id, arm)`` chain locating a statement inside conditional blocks
_GuardPath = tuple[tuple[int, str], ...]


@register
class CacheInvalidation(Checker):
    """Every ``Node`` mutator must invalidate the packed-bounds cache.

    ``Node.bounds_array()`` memoises a ``(len, 4)`` float64 copy of the
    entry bounds; a mutator that forgets ``invalidate_bounds_cache()``
    leaves kernels scoring stale geometry — the exact heisenbug class this
    linter exists for.  A mutation is *covered* when an invalidation exists
    on a dominating path (same branch or an unconditional statement).
    """

    rule = "RL003"
    description = "Node mutators must invalidate the cached bounds array"

    TRACKED_ATTRIBUTES = frozenset({"bounds", "entries", "children"})
    MUTATING_METHODS = frozenset(
        {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
    )
    CACHE_ATTRIBUTE = "_bounds_array"

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == "Node":
                yield from self._check_class(module, node)

    def _check_class(self, module: Module, cls: ast.ClassDef) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            mutations: list[tuple[ast.AST, _GuardPath, str]] = []
            invalidations: list[_GuardPath] = []
            for statement, path in self._guarded_statements(method.body, ()):
                for expression in self._own_expressions(statement):
                    for sub in ast.walk(expression):
                        described = self._describe_mutation(sub)
                        if described is not None:
                            mutations.append((sub, path, described))
                        elif self._is_invalidation(sub):
                            invalidations.append(path)
            for node, path, described in mutations:
                if not any(
                    path[: len(cover)] == cover for cover in invalidations
                ):
                    yield self.finding(
                        module,
                        node,
                        f"Node.{method.name} {described} without invalidating "
                        "the cached bounds array on this path",
                        hint="call self.invalidate_bounds_cache() "
                        "(or assign self._bounds_array = None)",
                    )

    # -- structural walk ------------------------------------------------
    def _guarded_statements(
        self, statements: list[ast.stmt], path: _GuardPath
    ) -> Iterator[tuple[ast.stmt, _GuardPath]]:
        """Statements with the chain of conditional blocks guarding them."""
        for statement in statements:
            yield statement, path
            if isinstance(statement, ast.If):
                yield from self._guarded_statements(
                    statement.body, path + ((id(statement), "body"),)
                )
                yield from self._guarded_statements(
                    statement.orelse, path + ((id(statement), "orelse"),)
                )
            elif isinstance(statement, (ast.For, ast.AsyncFor, ast.While)):
                # loop bodies may run zero times: treat them as conditional
                yield from self._guarded_statements(
                    statement.body, path + ((id(statement), "body"),)
                )
                yield from self._guarded_statements(
                    statement.orelse, path + ((id(statement), "orelse"),)
                )
            elif isinstance(statement, ast.Try):
                yield from self._guarded_statements(
                    statement.body, path + ((id(statement), "body"),)
                )
                for handler in statement.handlers:
                    yield from self._guarded_statements(
                        handler.body, path + ((id(handler), "body"),)
                    )
                yield from self._guarded_statements(
                    statement.orelse, path + ((id(statement), "orelse"),)
                )
                # a finally block always runs: same guard path as the try
                yield from self._guarded_statements(statement.finalbody, path)
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                yield from self._guarded_statements(statement.body, path)

    def _own_expressions(self, statement: ast.stmt) -> Iterator[ast.AST]:
        """The expressions evaluated *by* ``statement`` itself.

        For compound statements only the guard expressions belong to the
        statement; nested blocks are visited separately (with their own
        guard path) by :meth:`_guarded_statements`.
        """
        if isinstance(statement, ast.If):
            yield statement.test
        elif isinstance(statement, ast.While):
            yield statement.test
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            yield statement.target
            yield statement.iter
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                yield item.context_expr
        elif isinstance(statement, ast.Try):
            return
        else:
            yield statement

    # -- event classification -------------------------------------------
    def _self_attribute(self, node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _describe_mutation(self, node: ast.AST) -> str | None:
        """A human phrase when ``node`` mutates a tracked attribute."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = self._self_attribute(node.func.value)
            if owner in self.TRACKED_ATTRIBUTES and (
                node.func.attr in self.MUTATING_METHODS
            ):
                return f"calls self.{owner}.{node.func.attr}()"
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    owner = self._self_attribute(target.value)
                    if owner in self.TRACKED_ATTRIBUTES:
                        return f"writes self.{owner}[...]"
                attribute = self._self_attribute(target)
                if attribute in self.TRACKED_ATTRIBUTES:
                    return f"rebinds self.{attribute}"
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    owner = self._self_attribute(target.value)
                    if owner in self.TRACKED_ATTRIBUTES:
                        return f"deletes from self.{owner}"
        return None

    def _is_invalidation(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Assign):
            if any(
                self._self_attribute(target) == self.CACHE_ATTRIBUTE
                for target in node.targets
            ):
                return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                self._self_attribute(node.func) is not None
                and "invalidate" in node.func.attr
            ):
                return True
        return False


# ----------------------------------------------------------------------
# RL005 — budget discipline
# ----------------------------------------------------------------------
@register
class BudgetDiscipline(Checker):
    """Search loops in ``core/`` must consume a :class:`Budget`.

    The paper's algorithms are *anytime*: every loop that can run long is
    bounded by the shared budget so results are comparable across machines
    and reproducible under iteration limits.  Raw counters (``while i <
    max_iterations``) or unguarded ``while True`` loops escape that
    contract.
    """

    rule = "RL005"
    description = "core/ search loops must consume a Budget, not raw counters"

    PARAMETER = "budget"
    COUNTER_NAMES = frozenset(
        {
            "max_iterations", "max_iters", "max_iter", "num_iterations",
            "n_iterations", "iterations", "max_steps", "num_steps", "max_rounds",
        }
    )
    EXCLUDED_SUFFIXES = ("core/budget.py",)

    def applies(self, module: Module) -> bool:
        if _in_tests(module):
            return False
        if any(module.path_endswith(suffix) for suffix in self.EXCLUDED_SUFFIXES):
            return False
        return module.in_directory("core")

    def check(self, module: Module) -> Iterator[Finding]:
        for func, _owner in _functions(module.tree):
            takes_budget = self.PARAMETER in _arg_names(func)
            if takes_budget and self.PARAMETER not in _body_names(func):
                yield self.finding(
                    module,
                    func,
                    f"{func.name} accepts a budget but never consumes it",
                    hint="gate the search loop on budget.exhausted() and "
                    "record work with budget.tick()",
                )
            for statement in func.body:
                yield from self._check_loops(module, func, statement, takes_budget)

    def _check_loops(
        self,
        module: Module,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        statement: ast.stmt,
        takes_budget: bool,
    ) -> Iterator[Finding]:
        for node in ast.walk(statement):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs get their own visit
            if isinstance(node, ast.While) and self._is_while_true(node):
                if not self._mentions_budget(node):
                    yield self.finding(
                        module,
                        node,
                        f"unbounded 'while True' loop in {func.name} ignores "
                        "the processing budget",
                        hint="test budget.exhausted() in the loop (and tick "
                        "per iteration)",
                    )
            elif takes_budget and isinstance(node, ast.For):
                counter = self._counter_range(node.iter)
                if counter is not None:
                    yield self.finding(
                        module,
                        node,
                        f"{func.name} iterates 'for … in range({counter})' "
                        "instead of consuming its budget",
                        hint="drive the loop with budget.exhausted()/tick() "
                        "so time and iteration limits both apply",
                    )

    def _is_while_true(self, node: ast.While) -> bool:
        return isinstance(node.test, ast.Constant) and node.test.value is True

    def _mentions_budget(self, node: ast.While) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and "budget" in sub.id.lower():
                return True
            if isinstance(sub, ast.Attribute) and sub.attr in ("exhausted", "tick"):
                return True
        return False

    def _counter_range(self, iterator: ast.expr) -> str | None:
        if not (
            isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Name)
            and iterator.func.id == "range"
            and len(iterator.args) == 1
        ):
            return None
        argument = iterator.args[0]
        name = None
        if isinstance(argument, ast.Name):
            name = argument.id
        elif isinstance(argument, ast.Attribute):
            name = argument.attr
        if name is not None and name in self.COUNTER_NAMES:
            return name
        return None


# ----------------------------------------------------------------------
# RL006 — observability name discipline
# ----------------------------------------------------------------------
#: mirror of ``repro.obs.names.NAME_PATTERN`` (kept independent so the
#: analysis package never imports the engine it lints)
_DOTTED_OBS_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


@register
class ObservabilityNames(Checker):
    """Spans and metrics are created only with registered literal names.

    Aggregation across processes, the trace summarizer, and every dashboard
    keyed on a metric name all assume a closed vocabulary: a name invented
    at a call site (or worse, interpolated from runtime data) fragments the
    time series and silently drops the point from merged reports.  RL006
    therefore requires the first argument of ``span(...)``, ``counter(...)``,
    ``gauge(...)`` and ``histogram(...)`` to be a dotted-lowercase string
    *literal* declared in ``src/repro/obs/names.py``.  Inside ``obs/``
    itself the rule is off — the registry plumbing necessarily handles
    names as variables.
    """

    rule = "RL006"
    description = "span/metric names must be literals registered in obs/names.py"

    FACTORY_METHODS = frozenset({"span", "counter", "gauge", "histogram"})
    REGISTRY_FILE = "src/repro/obs/names.py"

    def applies(self, module: Module) -> bool:
        return not _in_tests(module) and not module.in_directory("obs")

    def check(self, module: Module) -> Iterator[Finding]:
        registry = module.context.obs_names
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.FACTORY_METHODS
                and node.args
            ):
                continue
            name_node = node.args[0]
            if not (
                isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)
            ):
                yield self.finding(
                    module,
                    name_node,
                    f"{node.func.attr}() name must be a string literal, "
                    "not a computed expression",
                    hint="branch to distinct call sites with literal names "
                    f"registered in {self.REGISTRY_FILE}",
                )
                continue
            name = name_node.value
            if not _DOTTED_OBS_NAME.match(name):
                yield self.finding(
                    module,
                    name_node,
                    f"{node.func.attr}() name {name!r} is not "
                    "dotted-lowercase (like 'gils.climb')",
                    hint="use lowercase [a-z0-9_] segments joined by dots",
                )
            elif registry is not None and name not in registry:
                yield self.finding(
                    module,
                    name_node,
                    f"{node.func.attr}() name {name!r} is not registered "
                    f"in {self.REGISTRY_FILE}",
                    hint=f"add {name!r} to the SPAN_NAMES/METRIC_NAMES "
                    f"registry in {self.REGISTRY_FILE}",
                )


# ----------------------------------------------------------------------
# RL007 — service budget discipline
# ----------------------------------------------------------------------
@register
class ServiceBudgetDiscipline(Checker):
    """Every solver invocation inside ``service/`` consumes a :class:`Budget`.

    The service's whole contract is *an answer by the deadline*: a request's
    clamped deadline becomes a :class:`~repro.core.budget.Budget` (via the
    admission ticket) and rides into the worker's solver call.  A solver
    invoked from the service layer without a budget argument runs unbounded
    — one such call wedges a pool worker for as long as the search feels
    like running, starving every queued request behind it.  RL007 therefore
    requires each call to a search entry point inside ``service/`` to pass
    an argument whose name mentions ``budget`` (a ``Budget`` value, a
    ``ticket.budget(...)`` product, or a ``Budget(...)`` construction).
    """

    rule = "RL007"
    description = "service/ solver calls must pass a deadline-derived Budget"

    #: the engine's search entry points (anything that can run long)
    SOLVER_ENTRY_POINTS = frozenset(
        {
            "parallel_restarts",
            "portfolio_search",
            "indexed_local_search",
            "guided_indexed_local_search",
            "spatial_evolutionary_algorithm",
            "indexed_simulated_annealing",
            "indexed_branch_and_bound",
            "two_step",
        }
    )

    def applies(self, module: Module) -> bool:
        return not _in_tests(module) and module.in_directory("service")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _dotted(node.func)
            if callee is None or callee.rsplit(".", 1)[-1] not in (
                self.SOLVER_ENTRY_POINTS
            ):
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            if not any(self._mentions_budget(argument) for argument in arguments):
                yield self.finding(
                    module,
                    node,
                    f"{callee}() invoked from the service layer without a "
                    "Budget argument; the solve is unbounded",
                    hint="derive the budget from the request's admission "
                    "ticket (ticket.budget(...)) or construct a "
                    "Budget(time_limit=...) from its clamped deadline",
                )

    def _mentions_budget(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and "budget" in sub.id.lower():
                return True
            if isinstance(sub, ast.Attribute) and "budget" in sub.attr.lower():
                return True
        return False


# ----------------------------------------------------------------------
# RL008 — structured error handling on recovery paths
# ----------------------------------------------------------------------
@register
class StructuredErrorHandling(Checker):
    """Broad ``except`` clauses on recovery paths classify or re-raise.

    The fault-tolerance contract (``docs/robustness.md``) hinges on every
    failure in the service layer and the parallel supervisor being turned
    into a *structured* outcome: a protocol error code with an honest
    ``retryable`` flag, or a supervised retry.  A ``try``/``except
    Exception: pass`` (or a handler that quietly substitutes a default)
    re-opens the exact hole the classifier closed — a crashed worker
    surfaces as a silent wrong answer instead of a retryable
    ``worker_crashed``.  RL008 therefore requires each handler in
    ``service/`` and ``core/parallel.py`` that catches bare ``except:``,
    ``Exception`` or ``BaseException`` to either re-raise somewhere in its
    body or route the exception through
    :func:`repro.service.errors.classify_exception`.
    """

    rule = "RL008"
    description = (
        "broad except clauses in service/ and core/parallel.py must "
        "re-raise or classify_exception"
    )

    #: catching any of these without classification hides the failure class
    BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})

    #: the structured mapping functions that legitimise a broad handler
    CLASSIFIERS = frozenset({"classify_exception"})

    def applies(self, module: Module) -> bool:
        return not _in_tests(module) and (
            module.in_directory("service")
            or module.path_endswith("core/parallel.py")
        )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._broad_name(node.type)
            if caught is None:
                continue
            if self._handles_structurally(node):
                continue
            yield self.finding(
                module,
                node,
                f"handler catches {caught} without re-raising or mapping "
                "through classify_exception; the failure class is lost",
                hint="catch the specific exceptions, re-raise after cleanup, "
                "or map via repro.service.errors.classify_exception so the "
                "caller sees a structured, honestly-retryable error",
            )

    def _broad_name(self, node: ast.expr | None) -> str | None:
        """The broad exception this handler catches, or ``None``."""
        if node is None:
            return "everything (bare except)"
        candidates = node.elts if isinstance(node, ast.Tuple) else [node]
        for candidate in candidates:
            dotted = _dotted(candidate)
            if dotted is not None and dotted.rsplit(".", 1)[-1] in (
                self.BROAD_EXCEPTIONS
            ):
                return dotted
        return None

    def _handles_structurally(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                callee = _dotted(node.func)
                if (
                    callee is not None
                    and callee.rsplit(".", 1)[-1] in self.CLASSIFIERS
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# RL009 — shared-memory segment lifecycle
# ----------------------------------------------------------------------
@register
class SharedMemoryLifecycle(Checker):
    """``SharedMemory`` creations in ``warm/`` are leak-guarded at the site.

    A POSIX shared-memory segment outlives the process that created it:
    an exception between ``SharedMemory(...)`` and the bookkeeping that
    tracks it strands kernel pages in ``/dev/shm`` until reboot.  RL009
    requires every ``SharedMemory`` construction in the warm plane to be
    either a ``with`` context manager item or inside a ``try`` statement
    whose handlers or ``finally`` block reach a ``.close()`` or
    ``.unlink()`` call — the cleanup that makes every exit path
    segment-safe.  Bookkeeping lookups (``SharedMemory`` mentioned without
    a call) and test fixtures are out of scope.
    """

    rule = "RL009"
    description = (
        "SharedMemory creation in warm/ must be context-managed or "
        "try-guarded with close()/unlink() cleanup"
    )

    CLEANUP_METHODS = frozenset({"close", "unlink"})

    def applies(self, module: Module) -> bool:
        return not _in_tests(module) and module.in_directory("warm")

    def check(self, module: Module) -> Iterator[Finding]:
        parents: dict[int, ast.AST] = {}
        for node in ast.walk(module.tree):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _dotted(node.func)
            if callee is None or callee.rsplit(".", 1)[-1] != "SharedMemory":
                continue
            if not self._guarded(node, parents):
                yield self.finding(
                    module,
                    node,
                    "SharedMemory created outside a context manager or a "
                    "try block with close()/unlink() cleanup; a failure "
                    "here leaks the OS segment",
                    hint="wrap the segment in 'with SharedMemory(...)' or "
                    "create it inside try/except(+finally) whose cleanup "
                    "calls .close() (and .unlink() for owners) on every "
                    "exit path",
                )

    def _guarded(self, call: ast.Call, parents: dict[int, ast.AST]) -> bool:
        """True when the creation site cannot leak on an exit path."""
        child: ast.AST = call
        parent = parents.get(id(call))
        while parent is not None:
            if isinstance(parent, ast.withitem):
                return True  # the context manager closes the mapping
            if isinstance(parent, ast.Try) and self._try_covers(parent, child):
                return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False  # stop at the enclosing function boundary
            child = parent
            parent = parents.get(id(parent))
        return False

    def _try_covers(self, statement: ast.Try, child: ast.AST) -> bool:
        """The creation sits in the ``try`` body and cleanup is reachable."""
        if child not in statement.body:
            return False  # creations inside handlers guard themselves
        regions: list[ast.stmt] = list(statement.finalbody)
        for handler in statement.handlers:
            regions.extend(handler.body)
        for region in regions:
            for node in ast.walk(region):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.CLEANUP_METHODS
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# RL010 — async handlers must not block (project phase)
# ----------------------------------------------------------------------
@register
class AsyncBlocking(ProjectChecker):
    """No ``async def`` in ``service/`` may transitively reach a blocking call.

    The join server is a single event loop; one synchronous file read or
    ``time.sleep`` on a handler path stalls *every* connection.  The rule
    walks the whole-program call graph from each async handler and flags
    the first edge on any path that bottoms out in a blocking API.
    Arguments of ``loop.run_in_executor(...)`` / ``asyncio.to_thread(...)``
    are exempt — that is precisely how blocking work is supposed to leave
    the loop.
    """

    rule = "RL010"
    description = (
        "blocking call transitively reachable from an async service handler"
    )

    #: exact opaque/resolved targets that block the calling thread
    BLOCKING_EXACT = frozenset(
        {
            "time.sleep",
            "open",
            "input",
        }
    )
    #: dotted prefixes whose callables are synchronous by construction
    BLOCKING_PREFIXES = (
        "socket.",
        "subprocess.",
        "numpy.load",
        "numpy.save",
        "numpy.savez",
        "shutil.",
        "urllib.request.",
    )
    #: attribute tails that block regardless of the (unknown) receiver
    BLOCKING_TAILS = (
        ".result",  # concurrent.futures.Future.result
        ".read_text",
        ".read_bytes",
        ".write_text",
        ".write_bytes",
    )

    def _blocking(self, edge: CallEdge) -> bool:
        if edge.resolved:
            return False  # project functions are judged by their own edges
        target = edge.target
        if target in self.BLOCKING_EXACT:
            return True
        if target.startswith(self.BLOCKING_PREFIXES):
            return True
        return target.endswith(self.BLOCKING_TAILS)

    @staticmethod
    def _in_service(function: FunctionInfo) -> bool:
        parts = function.path.split("/")
        return "service" in parts[:-1] and "tests" not in parts

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        # which sync functions reach a blocking edge (async defs do not
        # transmit: each one is a seed and reports its own paths)
        witness = model.reaching(
            self._blocking, skip_through=lambda fn: fn.is_async
        )
        for qualname in sorted(model.functions):
            function = model.functions[qualname]
            if not function.is_async or not self._in_service(function):
                continue
            entry = f"{function.qualname} [{function.path}]"
            for edge in function.edges:
                if self._blocking(edge):
                    yield Finding(
                        path=function.path,
                        line=edge.line,
                        col=edge.col,
                        rule=self.rule,
                        message=(
                            f"async def {function.name} calls blocking "
                            f"{edge.target}"
                        ),
                        hint="await asyncio.to_thread(...) or "
                        "loop.run_in_executor(...) for blocking work",
                        chain=(entry, edge.target),
                    )
                elif edge.resolved and edge.target in witness:
                    _, chain = witness[edge.target]
                    yield Finding(
                        path=function.path,
                        line=edge.line,
                        col=edge.col,
                        rule=self.rule,
                        message=(
                            f"async def {function.name} reaches blocking "
                            f"{chain[-1]} via {edge.target}"
                        ),
                        hint="await asyncio.to_thread(...) or "
                        "loop.run_in_executor(...) for blocking work",
                        chain=(entry, edge.target, *chain),
                    )


# ----------------------------------------------------------------------
# RL011 — attached shared-memory arrays are read-only (project phase)
# ----------------------------------------------------------------------
@register
class AttachedArrayMutation(ProjectChecker):
    """Arrays from warm attach points must never be mutated in place.

    Every worker on the machine maps the same physical pages; one
    ``columns[0] = ...`` corrupts the dataset for all of them, silently.
    A taint pass seeds at the attach APIs (``SegmentManager.attach``,
    ``attach_dataset`` / ``attach_instance``), follows assignments,
    views and call-graph edges, and flags subscript stores, augmented
    assignments, the in-place ndarray methods (``sort`` / ``resize`` /
    ``fill`` / …) and ``np.copyto``.  An explicit ``.copy()`` (or
    ``.tolist()`` / ``np.array``) clears the taint.
    """

    rule = "RL011"
    description = "attached warm-plane array flows into in-place mutation"

    ATTACH_QUALNAMES = frozenset(
        {
            "repro.warm.segments.SegmentManager.attach",
            "repro.warm.plane.attach_dataset",
            "repro.warm.plane.attach_instance",
        }
    )
    ATTACH_TAILS = (".attach", ".attach_dataset", ".attach_instance")
    ATTACH_NAMES = frozenset({"attach_dataset", "attach_instance"})

    def _source(self, edge: CallEdge) -> bool:
        if edge.resolved:
            return edge.target in self.ATTACH_QUALNAMES
        return (
            edge.target in self.ATTACH_NAMES
            or edge.target.endswith(self.ATTACH_TAILS)
        )

    @staticmethod
    def _in_scope(function: FunctionInfo) -> bool:
        parts = function.path.split("/")
        return "tests" not in parts and not parts[-1].startswith("test_")

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        analysis = TaintAnalysis(model, self._source)
        for violation in analysis.run(scope=self._in_scope):
            yield Finding(
                path=violation.path,
                line=violation.line,
                col=violation.col,
                rule=self.rule,
                message=violation.description,
                hint="mutate an explicit .copy() of the attached array; "
                "shared pages are mapped by every worker",
                chain=violation.chain,
            )


# ----------------------------------------------------------------------
# RL012 — only spec-shaped values cross the pickle boundary (project phase)
# ----------------------------------------------------------------------
@register
class PickleBoundary(ProjectChecker):
    """Payloads shipped to pool workers must come from the spec vocabulary.

    ``ProcessPoolExecutor.submit`` / ``run_specs`` / ``SolveJob`` all
    pickle their arguments into another process.  Closures, locks, open
    sockets/files, ``SharedMemory`` handles and live tree ``Node``s
    either fail to pickle at dispatch time or — worse — pickle a copy
    that silently diverges from the original.  Allowed: primitives,
    containers, and classes in the spec vocabulary (``spec()`` /
    ``from_spec`` / ``to_dict`` / ``from_dict`` methods, or dataclasses
    of picklable fields).
    """

    rule = "RL012"
    description = "non-spec value crosses the process-pool pickle boundary"

    BOUNDARY_TAILS = (".submit",)
    BOUNDARY_NAMES = frozenset({"run_specs", "SolveJob"})
    SPEC_METHODS = frozenset({"spec", "from_spec", "to_dict", "from_dict"})
    #: constructions that must never be pickled
    FORBIDDEN_EXACT = frozenset(
        {
            "threading.Lock",
            "threading.RLock",
            "threading.Event",
            "threading.Condition",
            "threading.Semaphore",
            "threading.BoundedSemaphore",
            "socket.socket",
            "socket.create_connection",
            "open",
        }
    )
    FORBIDDEN_TAILS = (".SharedMemory",)
    FORBIDDEN_QUALNAMES = frozenset(
        {
            "multiprocessing.shared_memory.SharedMemory",
            "repro.index.node.Node",
        }
    )

    @staticmethod
    def _in_scope(function: FunctionInfo) -> bool:
        parts = function.path.split("/")
        return "tests" not in parts and not parts[-1].startswith("test_")

    def _is_boundary(self, edge: CallEdge) -> bool:
        if edge.target.rpartition(".")[2] in self.BOUNDARY_NAMES:
            return True
        return not edge.resolved and edge.target.endswith(self.BOUNDARY_TAILS)

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        for qualname in sorted(model.functions):
            function = model.functions[qualname]
            if not self._in_scope(function):
                continue
            symbols = model.by_path.get(function.path)
            if symbols is None:
                continue
            local_defs = {
                child.name
                for statement in function.node.body
                for child in ast.walk(statement)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            lambda_names = {
                target.id
                for statement in function.node.body
                for child in ast.walk(statement)
                if isinstance(child, ast.Assign)
                and isinstance(child.value, ast.Lambda)
                for target in child.targets
                if isinstance(target, ast.Name)
            }
            for edge in function.edges:
                if not self._is_boundary(edge):
                    continue
                values = list(edge.call.args) + [
                    keyword.value for keyword in edge.call.keywords
                ]
                for value in values:
                    yield from self._classify(
                        model, symbols, function, edge, value,
                        local_defs, lambda_names,
                    )

    def _classify(
        self,
        model: ProjectModel,
        symbols: object,
        function: FunctionInfo,
        edge: CallEdge,
        value: ast.expr,
        local_defs: set[str],
        lambda_names: set[str],
    ) -> Iterator[Finding]:
        boundary = edge.target.rpartition(".")[2]
        chain = (f"{function.qualname} [{function.path}]", edge.target)

        def flag(node: ast.expr, what: str) -> Finding:
            return Finding(
                path=function.path,
                line=node.lineno,
                col=node.col_offset,
                rule=self.rule,
                message=f"{what} passed across the {boundary} pickle boundary",
                hint="ship a spec (spec()/from_spec, dataclass, or "
                "primitives); rebuild live state worker-side",
                chain=chain,
            )

        if isinstance(value, ast.Lambda):
            yield flag(value, "a lambda (unpicklable closure)")
            return
        if isinstance(value, ast.Name):
            if value.id in local_defs or value.id in lambda_names:
                yield flag(value, f"local function {value.id!r} (closure)")
            return
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            for element in value.elts:
                yield from self._classify(
                    model, symbols, function, edge, element,
                    local_defs, lambda_names,
                )
            return
        if isinstance(value, ast.Dict):
            for element in list(value.keys) + list(value.values):
                if element is not None:
                    yield from self._classify(
                        model, symbols, function, edge, element,
                        local_defs, lambda_names,
                    )
            return
        if not isinstance(value, ast.Call):
            return
        dotted = _dotted(value.func)
        if dotted is None:
            return
        resolved = model.resolve_name(symbols, dotted)  # type: ignore[arg-type]
        if (
            dotted in self.FORBIDDEN_EXACT
            or resolved in self.FORBIDDEN_EXACT
            or resolved in self.FORBIDDEN_QUALNAMES
            or resolved.endswith(self.FORBIDDEN_TAILS)
        ):
            yield flag(value, f"live {dotted} handle")
            return
        info = model.classes.get(resolved)
        if info is not None and not self._approved(info):
            yield flag(
                value,
                f"instance of {info.name} (not in the spec vocabulary)",
            )

    def _approved(self, info: "object") -> bool:
        methods = getattr(info, "methods", {})
        if set(methods) & self.SPEC_METHODS:
            return True
        return bool(getattr(info, "is_dataclass")())


# ----------------------------------------------------------------------
# RL013 — fault-site consistency (project phase)
# ----------------------------------------------------------------------
@register
class FaultSiteConsistency(ProjectChecker):
    """Every fault site is declared in ``faults/hooks.py`` — and used.

    Fault plans address injection points by site string; a
    ``fault_point("typo.site")`` never fires and a declared site with no
    remaining call site silently turns every plan targeting it into a
    no-op.  The rule cross-references each ``fault_point(...)`` /
    ``corruption_at(...)`` first argument (and ``FaultSpec(site=...)``
    literals) against the ``SITE_*`` constants of ``faults/hooks.py``
    and reports both directions: undeclared references and dead
    declarations.
    """

    rule = "RL013"
    description = "fault_point sites must match the faults/hooks.py registry"

    HOOKS_SUFFIX = "faults/hooks.py"
    REFERENCE_CALLS = frozenset({"fault_point", "corruption_at"})
    SITE_PREFIX = "SITE_"

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        hooks = None
        for symbols in model.modules.values():
            if symbols.module.path_endswith(self.HOOKS_SUFFIX):
                hooks = symbols
                break
        if hooks is None:
            return  # vocabulary not analyzed: nothing to check against
        declared = {
            name: value
            for name, value in hooks.constants.items()
            if name.startswith(self.SITE_PREFIX)
        }
        if not declared:
            return
        values = {value for value, _, _ in declared.values()}
        referenced: set[str] = set()
        for symbols in model.modules.values():
            module = symbols.module
            if module is hooks.module:
                continue
            parts = module.path.split("/")
            if "tests" in parts or parts[-1].startswith("test_"):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted(node.func) or ""
                tail = dotted.rpartition(".")[2]
                if tail in self.REFERENCE_CALLS and node.args:
                    yield from self._check_site(
                        module.path, node.args[0], declared, values, referenced
                    )
                elif tail == "FaultSpec":
                    for keyword in node.keywords:
                        if keyword.arg == "site":
                            yield from self._check_site(
                                module.path, keyword.value,
                                declared, values, referenced,
                            )
        for name in sorted(declared):
            if name not in referenced:
                value, line, col = declared[name]
                yield Finding(
                    path=hooks.path,
                    line=line,
                    col=col,
                    rule=self.rule,
                    message=(
                        f"declared fault site {name} ({value!r}) is never "
                        f"referenced by any fault_point/corruption_at"
                    ),
                    hint="wire the site into its subsystem or delete the "
                    "declaration; plans targeting it are silent no-ops",
                )

    def _check_site(
        self,
        path: str,
        node: ast.expr,
        declared: dict[str, tuple[str, int, int]],
        values: set[str],
        referenced: set[str],
    ) -> Iterator[Finding]:
        dotted = _dotted(node)
        if dotted is not None:
            name = dotted.rpartition(".")[2]
            if name in declared:
                referenced.add(name)
                return
            yield Finding(
                path=path,
                line=node.lineno,
                col=node.col_offset,
                rule=self.rule,
                message=f"fault site {dotted} is not declared in faults/hooks.py",
                hint="declare a SITE_* constant in repro/faults/hooks.py "
                "and reference it",
            )
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in values:
                for name, (value, _, _) in declared.items():
                    if value == node.value:
                        referenced.add(name)
                return
            yield Finding(
                path=path,
                line=node.lineno,
                col=node.col_offset,
                rule=self.rule,
                message=(
                    f"fault site {node.value!r} is not declared in "
                    f"faults/hooks.py"
                ),
                hint="declare a SITE_* constant in repro/faults/hooks.py "
                "and reference it",
            )
            return
        yield Finding(
            path=path,
            line=node.lineno,
            col=node.col_offset,
            rule=self.rule,
            message="fault site must be a SITE_* constant, not a computed value",
            hint="fault plans address sites by exact string; computed names "
            "can never be validated against the registry",
        )


# ----------------------------------------------------------------------
# RL014 — benchmark results go through the benchmark ledger
# ----------------------------------------------------------------------
@register
class LedgerDiscipline(Checker):
    """Benchmarks persist results through :mod:`repro.bench.ledger` only.

    The ledger is the one row format the figure pipelines
    (``runs/*/to_csv.py``) read: every row is schema-validated and stamped
    with the run id / commit / environment fingerprint.  A benchmark that
    writes its numbers with a raw ``json.dump`` produces an orphan blob in
    a private schema that nothing downstream reads or validates.
    """

    rule = "RL014"
    description = "benchmark results must be emitted through repro.bench.ledger"

    #: call names that serialize results behind the ledger's back
    RAW_WRITERS = frozenset({"json.dump"})

    def applies(self, module: Module) -> bool:
        return module.in_directory("benchmarks") or module.parts[0] == "benchmarks"

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in self.RAW_WRITERS:
                yield self.finding(
                    module,
                    node,
                    f"benchmark result written with {dotted}() instead of "
                    "the benchmark ledger",
                    hint="emit sections through repro.bench.ledger."
                    "emit_sections (it validates and stamps every row "
                    "before appending it)",
                )
