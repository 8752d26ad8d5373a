"""Suppression / annotation comments.

Two comment syntaxes, both requiring a parenthesised reason:

    // lint-ok: <rule> (<reason>)     suppress a finding on this or the
                                      next line
    // ckpt-skip: (<reason>)          declare a data member as
                                      intentionally absent from ser()
                                      (ckpt-coverage rule)

A suppression naming an unknown rule, or lacking a reason, is itself a
finding — stale or vague suppressions are how contracts rot.
"""

from __future__ import annotations

import re
from typing import Iterable

from .model import Finding, TranslationUnit

LINT_OK_RE = re.compile(r"//\s*lint-ok:\s*([a-z-]+)(\s*\(.+\))?")
CKPT_SKIP_RE = re.compile(r"//\s*ckpt-skip:(\s*\(.+\))?")


def scan(tu: TranslationUnit, known_rules: Iterable[str]) -> None:
    """Populate tu.suppressions / tu.ckpt_skips / tu.annotation_errors
    from the raw source lines.  An annotation on line N applies to
    findings on N and N+1 (i.e. it may sit on its own line above)."""
    known = set(known_rules)
    for i, raw in enumerate(tu.lines, start=1):
        m = LINT_OK_RE.search(raw)
        if m:
            rule = m.group(1)
            for ln in (i, i + 1):
                tu.suppressions.setdefault(ln, set()).add(rule)
            if rule not in known:
                tu.annotation_errors.append(Finding(
                    tu.path, i, "lint-ok",
                    "unknown rule '%s' in suppression" % rule))
            if not m.group(2):
                tu.annotation_errors.append(Finding(
                    tu.path, i, "lint-ok",
                    "suppression lacks a (reason)"))
        s = CKPT_SKIP_RE.search(raw)
        if s:
            has_reason = bool(s.group(1))
            for ln in (i, i + 1):
                tu.ckpt_skips.setdefault(ln, has_reason)
            if not has_reason:
                tu.annotation_errors.append(Finding(
                    tu.path, i, "lint-ok",
                    "ckpt-skip annotation lacks a (reason)"))


def suppressed(tu: TranslationUnit, finding: Finding) -> bool:
    return finding.rule in tu.suppressions.get(finding.line, ())
