"""trace-hook: observation hooks must be observation-only.

Two obligations (DESIGN.md §6):

  1. Simulator code never calls Tracer::record directly — every hook
     goes through EMC_OBS_POINT, which is a null test when no tracer
     is attached and compiles out under -DEMC_SIM_TRACE=OFF.
  2. EMC_OBS_POINT argument expressions must be side-effect free: a
     hook-stripped build does not evaluate them, so `++x`, an
     assignment, or a *mutating call* in an argument silently changes
     simulation behaviour between build flavours.

The regex ancestor only caught ++/--/assignment; the model-based rule
also flags calls whose names are mutating by the codebase's own naming
conventions (push/pop/insert/erase/set*/advance/alloc/record/...).
"""

from __future__ import annotations

import re
from typing import List

from ..model import Finding, Program, TranslationUnit
from . import Rule, register

_TRACE_EXEMPT = ("src/obs/",)

_SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|(?<![=!<>+\-*/%|&^])=(?![=])")

#: Call names that mutate state by this codebase's naming conventions.
_MUTATING_CALL_RE = re.compile(
    r"\b(?:push\w*|pop\w*|insert\w*|erase\w*|emplace\w*|clear|"
    r"reset\w*|set[A-Z]\w*|add\w*|advance\w*|alloc\w*|take\w*|"
    r"release\w*|remove\w*|commit\w*|invalidate\w*|sample|record|"
    r"schedule|put|complete\w*|retire\w*|drain\w*)\s*\(")


def _strip_strings(text: str) -> str:
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', text)


@register
class TraceHookRule(Rule):
    name = "trace-hook"
    description = ("Trace hooks go through EMC_OBS_POINT only, and "
                   "hook arguments must be side-effect free (incl. no "
                   "mutating calls): a hook-stripped build does not "
                   "evaluate them.")

    def check_tu(self, tu: TranslationUnit,
                 program: Program) -> List[Finding]:
        rel = tu.path.replace("\\", "/")
        exempt = any(e in rel for e in _TRACE_EXEMPT)
        out: List[Finding] = []
        for fn in tu.functions:
            if not exempt:
                for call in fn.calls:
                    if call.callee == "record" and call.recv:
                        out.append(Finding(
                            tu.path, call.line, self.name,
                            "direct Tracer::record(); hooks go through "
                            "EMC_OBS_POINT (src/obs/obs.hh)"))
            for mu in fn.macro_uses:
                args = _strip_strings(mu.arg_text)
                if _SIDE_EFFECT_RE.search(args):
                    out.append(Finding(
                        tu.path, mu.line, self.name,
                        "side effect in EMC_OBS_POINT arguments; a "
                        "hook-stripped build does not evaluate them"))
                else:
                    m = _MUTATING_CALL_RE.search(args)
                    if m:
                        out.append(Finding(
                            tu.path, mu.line, self.name,
                            "mutating call '%s(...)' in EMC_OBS_POINT "
                            "arguments; a hook-stripped build does not "
                            "evaluate them"
                            % m.group(0).rstrip(" (")))
        return out


#: The only code allowed to touch trace-container bytes directly.
_RAW_IO_EXEMPT = ("src/trace/",)


@register
class TraceRawIoRule(Rule):
    name = "trace-raw-io"
    description = ("Trace-container bytes are parsed only by "
                   "src/trace/: everything else goes through "
                   "trace::Reader / probeFile, so version checks, "
                   "checksums and typed errors cannot be bypassed.")

    def check_tu(self, tu: TranslationUnit,
                 program: Program) -> List[Finding]:
        rel = tu.path.replace("\\", "/")
        if any(e in rel for e in _RAW_IO_EXEMPT):
            return []
        out: List[Finding] = []
        for fn in tu.functions:
            for call in fn.calls:
                if call.callee == "fopen" \
                        and ".emct" in call.arg_text:
                    out.append(Finding(
                        tu.path, call.line, self.name,
                        "fopen() of a trace container; open traces "
                        "via trace::Reader / probeFile "
                        "(src/trace/reader.hh)"))
                elif call.callee in ("fread", "fwrite") \
                        and "DynUop" in call.arg_text:
                    out.append(Finding(
                        tu.path, call.line, self.name,
                        "raw %s() of trace records; DynUop streams "
                        "are (de)serialized only by src/trace/"
                        % call.callee))
        # Hand-rolled container parsing announces itself by testing
        # the magic string.
        for lineno, text in enumerate(tu.lines, start=1):
            if '"EMCT"' in text:
                out.append(Finding(
                    tu.path, lineno, self.name,
                    'trace magic "EMCT" referenced outside '
                    "src/trace/; use trace::probeFile for version "
                    "dispatch"))
        return out
