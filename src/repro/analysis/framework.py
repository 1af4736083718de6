"""Pluggable AST-based static analysis for the repro engine.

PR 1 introduced conventions that nothing enforced statically:
:class:`~repro.index.node.Node` mutators invalidate the cached bounds
array, and all randomness / clock access flows through seeded RNGs and
:class:`~repro.core.budget.Budget`.
This module is the enforcement layer — a small checker framework that
parses every source file once, hands the tree to a registry of project
rules (:mod:`repro.analysis.rules`), and reports :class:`Finding` records
with stable rule ids, precise locations and fix hints.

Architecture
------------
* :class:`Checker` — one rule; subclasses register themselves with
  :func:`register` and receive a parsed :class:`Module` per file.
* :class:`AnalysisContext` — project-level inputs shared by all checkers
  (the project root and the span/metric name registry extracted from
  ``src/repro/obs/names.py``).
* :func:`analyze_paths` / :func:`lint_source` — the batch and single-source
  entry points; the ``repro-lint`` console script wraps the former.
* Suppressions — a trailing ``# repro-lint: disable=RL001`` comment mutes
  matching findings on that physical line; ``# repro-lint: disable-file=RL001``
  anywhere mutes a rule for the whole file.  ``disable=all`` mutes every rule.

The framework itself knows nothing about the individual invariants, so new
rules are one subclass away and third-party extensions can call
:func:`register` directly.
"""

from __future__ import annotations

import ast
import json
import re
import tokenize
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "AnalysisContext",
    "Checker",
    "Finding",
    "LintStats",
    "Module",
    "ProjectChecker",
    "all_checkers",
    "analyze_paths",
    "findings_from_json",
    "iter_python_files",
    "lint_source",
    "register",
    "render_json",
    "render_text",
]

#: JSON schema version emitted by :func:`render_json`.
JSON_FORMAT_VERSION = 1

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_*,\s]+?)\s*(?:#|$)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: where it is, what it violates, how to fix it.

    Cross-module (project) findings additionally carry ``chain`` — the
    call/flow witness from the entry point down to the flagged site,
    entry point first (for RL010 that is the ``async def`` whose handler
    transitively blocks, including its path).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    chain: tuple[str, ...] = ()

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.chain:
            text += f"  [via: {' -> '.join(self.chain)}]"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text

    def to_dict(self) -> dict[str, object]:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["chain"] = list(self.chain)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Finding":
        names = {f.name for f in fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ValueError(f"unknown Finding fields: {sorted(unknown)}")
        payload = dict(payload)
        payload["chain"] = tuple(payload.get("chain", ()))  # type: ignore[arg-type]
        return cls(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class AnalysisContext:
    """Project-level inputs shared by every checker.

    ``obs_names`` is the set of dotted span/metric names declared in
    ``src/repro/obs/names.py``: RL006 requires every
    ``span(...)``/``counter(...)`` call site to use one of them.  ``None``
    means the source file could not be located, and the registration
    requirement is skipped (the structural half of the rule still runs).
    """

    root: Path
    obs_names: frozenset[str] | None = None

    #: project-relative files whose string literals feed ``obs_names``
    OBS_NAMES_FILES = ("src/repro/obs/names.py",)

    @classmethod
    def from_root(cls, root: Path | str) -> "AnalysisContext":
        root = Path(root).resolve()
        obs_names: set[str] = set()
        obs_found = False
        for relative in cls.OBS_NAMES_FILES:
            candidate = root / relative
            if candidate.is_file():
                obs_found = True
                obs_names.update(
                    _dotted_literals(candidate.read_text(encoding="utf-8"))
                )
        return cls(
            root=root,
            obs_names=frozenset(obs_names) if obs_found else None,
        )


_DOTTED_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def _dotted_literals(source: str) -> set[str]:
    """Every dotted-lowercase string literal in ``source`` (RL006 registry)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return set()
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _DOTTED_NAME.match(node.value)
    }


@dataclass(frozen=True)
class Module:
    """One parsed source file as the checkers see it."""

    path: str  #: project-relative posix path (display + rule scoping)
    source: str
    tree: ast.Module
    context: AnalysisContext

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(self.path.split("/"))

    def in_directory(self, name: str) -> bool:
        """True when any path component equals ``name`` (e.g. ``tests``)."""
        return name in self.parts[:-1]

    def path_endswith(self, suffix: str) -> bool:
        """True when the relative path ends with the given ``/``-suffix."""
        tail = tuple(suffix.split("/"))
        return self.parts[-len(tail):] == tail


class Checker:
    """Base class for one lint rule.

    Subclasses set :attr:`rule` (the stable ``RLxxx`` id) and
    :attr:`description`, and implement :meth:`check`.  :meth:`applies`
    scopes the rule to a subset of the tree (many invariants only bind in
    ``src/``); the framework consults it before :meth:`check`.
    """

    rule: str = "RL000"
    description: str = ""

    def applies(self, module: Module) -> bool:
        return True

    def check(self, module: Module) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def finding(
        self, module: Module, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule,
            message=message,
            hint=hint,
        )


class ProjectChecker(Checker):
    """Base class for cross-module rules (the project analysis phase).

    Project checkers do not run per file; after every module is parsed
    the framework builds a :class:`repro.analysis.project.ProjectModel`
    (symbol tables, import graph, call graph) and hands it to
    :meth:`check_project` once.  Findings anchor at whatever file/line
    the rule chooses, so per-line suppressions keep working: a
    ``# repro-lint: disable=RL0xx`` on the anchored line mutes the
    finding exactly like a per-module one.
    """

    def check(self, module: Module) -> Iterator[Finding]:
        return iter(())

    def check_project(self, model: "object") -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(
        self,
        path: str,
        node: object,
        message: str,
        hint: str = "",
        chain: Sequence[str] = (),
    ) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule,
            message=message,
            hint=hint,
            chain=tuple(chain),
        )


@dataclass
class LintStats:
    """Per-rule finding/suppression tallies for one analysis run."""

    files: int = 0
    findings: dict[str, int] = field(default_factory=dict)
    suppressed: dict[str, int] = field(default_factory=dict)

    def count(self, finding: Finding, suppressed: bool) -> None:
        bucket = self.suppressed if suppressed else self.findings
        bucket[finding.rule] = bucket.get(finding.rule, 0) + 1

    def rules(self) -> list[str]:
        return sorted(set(self.findings) | set(self.suppressed))


_REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.rule or cls.rule == "RL000":
        raise ValueError(f"{cls.__name__} must define a unique rule id")
    existing = _REGISTRY.get(cls.rule)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate checker for rule {cls.rule}")
    _REGISTRY[cls.rule] = cls
    return cls


def all_checkers() -> dict[str, type[Checker]]:
    """The registry as ``{rule id: checker class}`` (import-order stable)."""
    # the built-in rules live in a sibling module; importing it registers them
    from . import rules  # noqa: F401  (side effect: registration)

    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
@dataclass
class _Suppressions:
    by_line: dict[int, set[str]] = field(default_factory=dict)
    whole_file: set[str] = field(default_factory=set)

    def active(self, finding: Finding) -> bool:
        for rules in (self.whole_file, self.by_line.get(finding.line, set())):
            if "all" in rules or finding.rule in rules:
                return True
        return False


def _parse_suppressions(source: str) -> _Suppressions:
    """Extract ``repro-lint`` directives from real comment tokens.

    Tokenizing (rather than regexing raw lines) means directives inside
    string literals — lint fixtures, docs — are never misread as live
    suppressions.
    """
    suppressions = _Suppressions()
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    for line, comment in comments:
        match = _DIRECTIVE.search(comment)
        if not match:
            continue
        rules = {
            name.strip().replace("*", "all")
            for name in match.group("rules").split(",")
            if name.strip()
        }
        if match.group("scope") == "disable-file":
            suppressions.whole_file |= rules
        else:
            suppressions.by_line.setdefault(line, set()).update(rules)
    return suppressions


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """All ``.py`` files under ``paths`` (files pass through, dirs recurse)."""
    seen: set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates: Iterable[Path] = sorted(entry.rglob("*.py"))
        else:
            candidates = [entry]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _selected_checkers(
    select: Sequence[str] | None, disable: Sequence[str] | None
) -> list[Checker]:
    registry = all_checkers()
    unknown = [r for r in list(select or []) + list(disable or []) if r not in registry]
    if unknown:
        raise ValueError(
            f"unknown rule ids {unknown}; known: {sorted(registry)}"
        )
    chosen = list(select) if select else sorted(registry)
    excluded = set(disable or ())
    return [registry[rule]() for rule in chosen if rule not in excluded]


def _partition_checkers(
    checkers: Sequence[Checker],
) -> tuple[list[Checker], list[ProjectChecker]]:
    per_module = [c for c in checkers if not isinstance(c, ProjectChecker)]
    project = [c for c in checkers if isinstance(c, ProjectChecker)]
    return per_module, project


def _check_module(
    module: Module,
    checkers: Sequence[Checker],
    suppressions: _Suppressions,
    stats: LintStats | None = None,
) -> list[Finding]:
    findings = [
        finding
        for checker in checkers
        if checker.applies(module)
        for finding in checker.check(module)
    ]
    return _apply_suppressions(findings, {module.path: suppressions}, stats)


def _apply_suppressions(
    findings: Iterable[Finding],
    suppressions_by_path: dict[str, _Suppressions],
    stats: LintStats | None,
) -> list[Finding]:
    kept: list[Finding] = []
    for finding in findings:
        suppressions = suppressions_by_path.get(finding.path)
        suppressed = suppressions is not None and suppressions.active(finding)
        if stats is not None:
            stats.count(finding, suppressed)
        if not suppressed:
            kept.append(finding)
    return sorted(kept)


def _check_project(
    modules: Sequence[Module],
    checkers: Sequence[ProjectChecker],
    suppressions_by_path: dict[str, _Suppressions],
    stats: LintStats | None = None,
) -> list[Finding]:
    """The second phase: build the whole-program model, run project rules."""
    if not checkers or not modules:
        return []
    from .project import ProjectModel  # local import breaks the module cycle

    model = ProjectModel(modules)
    findings = [
        finding for checker in checkers for finding in checker.check_project(model)
    ]
    return _apply_suppressions(findings, suppressions_by_path, stats)


def lint_source(
    source: str,
    path: str = "<memory>",
    context: AnalysisContext | None = None,
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint one in-memory source blob (the unit-test entry point).

    Project checkers run over a single-module project model, so
    cross-module rules can be exercised from one fixture as long as the
    fixture is self-contained (or supplies its own local helpers).
    """
    context = context or AnalysisContext(root=Path("."))
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                col=error.offset or 0,
                rule="RL000",
                message=f"syntax error: {error.msg}",
            )
        ]
    module = Module(path=path, source=source, tree=tree, context=context)
    suppressions = _parse_suppressions(source)
    per_module, project = _partition_checkers(_selected_checkers(select, None))
    findings = _check_module(module, per_module, suppressions)
    findings += _check_project([module], project, {path: suppressions})
    return sorted(findings)


def analyze_paths(
    paths: Sequence[Path | str],
    root: Path | str | None = None,
    select: Sequence[str] | None = None,
    disable: Sequence[str] | None = None,
    context: AnalysisContext | None = None,
    stats: LintStats | None = None,
) -> list[Finding]:
    """Lint every Python file under ``paths``; returns sorted findings.

    Runs both phases: per-module checkers on each file, then project
    checkers over the whole-program model built from every file that
    parsed.  Pass ``stats`` to collect per-rule finding/suppression
    tallies (the CLI's ``--stats`` flag).
    """
    root = Path(root) if root is not None else Path.cwd()
    context = context or AnalysisContext.from_root(root)
    per_module, project = _partition_checkers(_selected_checkers(select, disable))
    findings: list[Finding] = []
    modules: list[Module] = []
    suppressions_by_path: dict[str, _Suppressions] = {}
    for file_path in iter_python_files(paths):
        relative = _relative(file_path, root)
        if stats is not None:
            stats.files += 1
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source)
        except (OSError, SyntaxError, UnicodeDecodeError) as error:
            message = getattr(error, "msg", None) or str(error)
            findings.append(
                Finding(
                    path=relative,
                    line=getattr(error, "lineno", None) or 1,
                    col=getattr(error, "offset", None) or 0,
                    rule="RL000",
                    message=f"unable to analyze file: {message}",
                )
            )
            continue
        module = Module(path=relative, source=source, tree=tree, context=context)
        suppressions = _parse_suppressions(source)
        modules.append(module)
        suppressions_by_path[relative] = suppressions
        findings.extend(_check_module(module, per_module, suppressions, stats))
    findings.extend(_check_project(modules, project, suppressions_by_path, stats))
    return sorted(findings)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE message`` row per finding, plus a tally."""
    if not findings:
        return "repro-lint: no findings"
    lines = [finding.format() for finding in findings]
    lines.append(f"repro-lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report; inverse of :func:`findings_from_json`."""
    payload = {
        "version": JSON_FORMAT_VERSION,
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def findings_from_json(text: str) -> list[Finding]:
    """Parse a :func:`render_json` report back into :class:`Finding` records."""
    payload = json.loads(text)
    version = payload.get("version")
    if version != JSON_FORMAT_VERSION:
        raise ValueError(f"unsupported report version: {version!r}")
    return [Finding.from_dict(entry) for entry in payload["findings"]]
