"""Rule records and the registration decorator.

A rule is a generator: ``check(module)`` yields :class:`Finding`
objects for one parsed module.  Rules register themselves at import
time via :func:`register_rule`; :mod:`repro.analysis.rules` imports
every shipped rule module so ``all_rules()`` is complete after
``import repro.analysis``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.analysis.findings import Finding

__all__ = ["Module", "Rule", "RuleCheck", "all_rules", "register_rule"]


@dataclass(frozen=True)
class Module:
    """One parsed source file handed to every rule."""

    path: Path
    #: Normalized (posix, repo-relative when possible) path used in
    #: reports and fingerprints.
    rel: str
    source: str
    lines: tuple[str, ...]
    tree: ast.Module

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0)) + 1
        return Finding(
            path=self.rel, line=line, col=col, rule_id=rule_id, message=message
        )

    def line_text(self, line: int) -> str:
        """Source text of a 1-indexed line ('' when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


RuleCheck = Callable[[Module], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    rule_id: str
    name: str
    summary: str
    #: The historical bug / contract the rule encodes (shown by
    #: ``repro lint --list-rules`` and in docs/static_analysis.md).
    rationale: str
    check: RuleCheck


_REGISTRY: dict[str, Rule] = {}

#: Rule ids the engine reserves for itself (parse errors, suppression
#: hygiene).  They are not suppressible and carry no ``check``.
ENGINE_RULES: dict[str, str] = {
    "REPRO000": "file does not parse (reported so a syntax error can never hide findings)",
    "REPRO100": "suppression hygiene: every disable needs a reason and must match a finding",
}


def register_rule(
    rule_id: str, name: str, summary: str, rationale: str
) -> Callable[[RuleCheck], RuleCheck]:
    """Decorator: register ``check`` under ``rule_id``.

    >>> @register_rule("REPRO999", "demo", "demo rule", "doctest")
    ... def _check(module):
    ...     yield from ()
    >>> all_rules()["REPRO999"].name
    'demo'
    >>> del _REGISTRY["REPRO999"]
    """

    def decorate(check: RuleCheck) -> RuleCheck:
        if rule_id in _REGISTRY or rule_id in ENGINE_RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _REGISTRY[rule_id] = Rule(
            rule_id=rule_id,
            name=name,
            summary=summary,
            rationale=rationale,
            check=check,
        )
        return check

    return decorate


def all_rules() -> dict[str, Rule]:
    """Registered rules, keyed and iterated in rule-id order."""
    return dict(sorted(_REGISTRY.items()))
