"""detlint's engine: file walker, rule registry, findings, pragmas.

The rules themselves live in :mod:`repro.analysis.rules`; this module is
the machinery they plug into:

* :class:`Finding` — one violation, pinned to ``path:line:col`` with the
  rule id, a message and a fix hint.  Findings order deterministically
  (path, line, col, rule) so output and JSON reports are bit-stable.
* :class:`Rule` — the visitor base class.  A subclass declares
  ``rule_id``/``title``/``hint``, registers itself with
  :func:`register_rule`, and reports via :meth:`Rule.report`.  Scope
  (which files the rule patrols) is *not* the rule's business — it comes
  from :data:`repro.analysis.config.RULE_SCOPES`.
* Pragmas — ``# detlint: disable=RULE[,RULE]`` on a finding's line
  suppresses it there; ``# detlint: disable-file=RULE`` anywhere in the
  file suppresses the rule file-wide; ``all`` works in both forms.
  Suppressions are counted, never silent, and are the one way to
  suppress a finding.

Everything here is stdlib-only and deterministic by construction: the
walker sorts directory entries, findings sort before emission, and no
hash-ordered collection feeds an output.  detlint lints itself in CI.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis import config

#: Bumped when the JSON report schema changes shape.
SCHEMA_VERSION = 2

_PRAGMA_RE = re.compile(r"#\s*detlint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_\-,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    #: The stripped source text of ``line``: context for humans reading a
    #: JSON report away from the checkout.
    code: str = ""

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format_text(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
        if self.hint:
            text += f"  [fix: {self.hint}]"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
            "code": self.code,
        }


@dataclass
class LintContext:
    """Everything a rule may consult about the file under analysis."""

    path: str
    source: str
    tree: ast.AST
    lines: List[str]


class Rule(ast.NodeVisitor):
    """Base class for detlint rules (one instance per rule per file)."""

    #: Stable identifier, e.g. ``DET-repr`` (also the pragma/scope key).
    rule_id: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: Default fix hint attached to findings that don't override it.
    hint: str = ""

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        self.visit(self.ctx.tree)
        return self.findings

    def report(self, node: ast.AST, message: str, hint: Optional[str] = None) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        lines = self.ctx.lines
        code = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=line,
                col=col,
                rule=self.rule_id,
                message=message,
                hint=self.hint if hint is None else hint,
                code=code,
            )
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add ``cls`` to the global rule registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule, in rule-id order (imports the rule package
    on first use so registration is a side effect of importing it)."""
    from repro.analysis import rules as _rules  # noqa: F401  (registration)

    return [_REGISTRY[rid] for rid in sorted(_REGISTRY)]


def rule_by_id(rule_id: str) -> Type[Rule]:
    all_rules()
    return _REGISTRY[rule_id]


# ----------------------------------------------------------------------
# Scope
# ----------------------------------------------------------------------
def _glob_match(path: str, pattern: str) -> bool:
    return fnmatch.fnmatch(path, pattern) or fnmatch.fnmatch(path, "*/" + pattern)


def rule_applies(rule_id: str, path: str) -> bool:
    """Does ``rule_id`` patrol ``path`` per the config scope table?"""
    scope = config.RULE_SCOPES.get(rule_id)
    if scope is None:
        return False
    if not any(_glob_match(path, pat) for pat in scope.include):
        return False
    return not any(_glob_match(path, pat) for pat in scope.exclude)


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def collect_pragmas(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Parse ``# detlint:`` comments.

    Returns ``(line_disables, file_disables)``: rule-id sets keyed by line
    for ``disable=``, and one file-wide set for ``disable-file=``.  Uses
    :mod:`tokenize` so pragma text inside string literals is ignored.
    """
    line_disables: Dict[int, Set[str]] = {}
    file_disables: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if not match:
                continue
            kind, names = match.groups()
            rules = {name.strip() for name in names.split(",") if name.strip()}
            if kind == "disable-file":
                file_disables |= rules
            else:
                line_disables.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - tokenize is lenient
        pass
    return line_disables, file_disables


def _suppressed(
    finding: Finding,
    line_disables: Dict[int, Set[str]],
    file_disables: Set[str],
) -> bool:
    if "all" in file_disables or finding.rule in file_disables:
        return True
    on_line = line_disables.get(finding.line, ())
    return "all" in on_line or finding.rule in on_line


# ----------------------------------------------------------------------
# Linting
# ----------------------------------------------------------------------
@dataclass
class FileResult:
    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    error: str = ""


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> FileResult:
    """Lint one source text as if it lived at ``path`` (scoping and
    reporting both use the path, so tests can probe scope behaviour with
    virtual paths)."""
    norm = path.replace(os.sep, "/")
    result = FileResult(path=norm)
    try:
        tree = ast.parse(source, filename=norm)
    except SyntaxError as exc:
        result.error = f"{norm}:{exc.lineno or 0}: syntax error: {exc.msg}"
        return result
    ctx = LintContext(path=norm, source=source, tree=tree, lines=source.splitlines())
    line_disables, file_disables = collect_pragmas(source)
    for rule_cls in rules if rules is not None else all_rules():
        if not rule_applies(rule_cls.rule_id, norm):
            continue
        for finding in rule_cls(ctx).run():
            if _suppressed(finding, line_disables, file_disables):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    result.findings.sort(key=lambda f: f.sort_key)
    result.suppressed.sort(key=lambda f: f.sort_key)
    return result


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order."""
    for path in paths:
        norm = path.replace(os.sep, "/").rstrip("/")
        if os.path.isfile(norm):
            if norm.endswith(".py"):
                yield norm
            continue
        for dirpath, dirnames, filenames in os.walk(norm):
            dirnames[:] = sorted(
                d for d in dirnames if not d.startswith(".") and d not in config.SKIP_DIRS
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name).replace(os.sep, "/")


@dataclass
class Report:
    """One lint run over a set of paths."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "counts": {
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "errors": len(self.errors),
            },
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "errors": list(self.errors),
        }


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> Report:
    """Lint every ``.py`` file under ``paths``."""
    report = Report()
    active = list(rules) if rules is not None else all_rules()
    for file_path in iter_python_files(paths):
        try:
            with open(file_path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            report.errors.append(f"{file_path}: unreadable: {exc}")
            continue
        result = lint_source(source, file_path, rules=active)
        report.files_checked += 1
        if result.error:
            report.errors.append(result.error)
        report.findings.extend(result.findings)
        report.suppressed.extend(result.suppressed)
    report.findings.sort(key=lambda f: f.sort_key)
    return report


# ----------------------------------------------------------------------
# Shared AST helpers (used by several rules)
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_aliases(tree: ast.AST, module: str) -> Set[str]:
    """Local names bound to ``module`` via ``import module [as alias]``."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


def from_imports(tree: ast.AST, module_suffix: str) -> Dict[str, str]:
    """Local name → original name for ``from X import ...`` where ``X``
    is ``module_suffix`` or ends with ``"." + module_suffix`` (also
    matches relative ``from .messages import ...``)."""
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == module_suffix or node.module.endswith("." + module_suffix):
                for alias in node.names:
                    names[alias.asname or alias.name] = alias.name
    return names


def contains_call_to(node: ast.AST, names: Iterable[str]) -> Optional[ast.Call]:
    """First Call to any bare name in ``names`` inside ``node``'s subtree."""
    wanted = set(names)
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in wanted
        ):
            return sub
    return None
