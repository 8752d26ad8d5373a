"""Determinism rules: rng, unordered-iter, raw-new, event-push,
process-spawn.

The rules work on the semantic model, not on regexes, which removes
the classic regex blind spots: a
`system()` *method* on some object no longer trips process-spawn, a
range-for over a *sorted copy* of an unordered container's keys is
clean, and `auto`/typedef'd unordered containers are resolved to their
real type before being flagged.
"""

from __future__ import annotations

import re
from typing import List, Optional

from ..model import (Finding, Function, Program, TranslationUnit,
                     UNORDERED_TYPES)
from . import Rule, register

_RNG_ENGINES = {
    "random_device", "mt19937", "mt19937_64", "default_random_engine",
    "minstd_rand", "minstd_rand0", "knuth_b", "ranlux24", "ranlux48",
}
_RNG_CALLS = {"rand", "srand", "time", "clock"}
_RNG_EXEMPT = ("src/common/rng.hh", "src/common/rng.cc")


@register
class RngRule(Rule):
    name = "rng"
    description = ("All randomness and wall-clock access must flow "
                   "through the seeded Rng (src/common/rng.hh) so runs "
                   "are reproducible.")

    def check_tu(self, tu: TranslationUnit,
                 program: Program) -> List[Finding]:
        rel = tu.path.replace("\\", "/")
        if any(rel.endswith(e) for e in _RNG_EXEMPT):
            return []
        out: List[Finding] = []
        msg = "nondeterministic source; use common/rng.hh (Rng)"
        for fn in tu.functions:
            for call in fn.calls:
                if call.callee in _RNG_CALLS and \
                        call.recv in (None, "std"):
                    out.append(Finding(tu.path, call.line,
                                       self.name, msg))
            for ident in _RNG_ENGINES & fn.mentions:
                out.append(Finding(
                    tu.path, fn.mention_lines.get(ident, fn.line),
                    self.name,
                    "std::%s is nondeterministically seeded; use "
                    "common/rng.hh (Rng)" % ident))
        for ci in tu.classes:
            for m in ci.members:
                if any(e in m.type_text for e in _RNG_ENGINES):
                    out.append(Finding(tu.path, m.line, self.name, msg))
        return out


@register
class UnorderedIterRule(Rule):
    name = "unordered-iter"
    description = ("No range-for iteration over unordered containers: "
                   "hash-order iteration feeding stats or output makes "
                   "runs depend on pointer values / libstdc++ version. "
                   "The range expression's type is resolved through "
                   "auto, typedefs and member lookup.")

    def check_tu(self, tu: TranslationUnit,
                 program: Program) -> List[Finding]:
        out: List[Finding] = []
        for fn in tu.functions:
            for rf in fn.range_fors:
                rtype = rf.resolved_type or \
                    self._resolve(rf.range_text, fn, program)
                if rtype is None:
                    continue
                rtype = program.resolve_alias(rtype)
                if UNORDERED_TYPES.search(rtype):
                    out.append(Finding(
                        tu.path, rf.line, self.name,
                        "range-for over '%s' (type %s); hash order is "
                        "not deterministic — iterate a sorted copy or "
                        "an ordered container"
                        % (rf.range_text.strip(),
                           _shorten(rtype))))
        return out

    def _resolve(self, range_text: str, fn: Function,
                 program: Program, depth: int = 3
                 ) -> Optional[str]:
        """Best-effort type of a range expression by final-identifier
        lookup (token frontend only; clang resolves exactly)."""
        if depth <= 0:
            return None
        expr = range_text.strip()
        if expr.endswith(")"):
            return None  # call result: unknown without overload info
        ids = re.findall(r"[A-Za-z_]\w*", expr)
        if not ids:
            return None
        name = ids[-1]
        local = fn.local_types.get(name)
        if local is not None:
            if local.startswith("auto="):
                return self._resolve(local[5:], fn, program, depth - 1)
            return local
        if fn.cls is not None:
            ci = program.classes.get(fn.cls)
            if ci is not None:
                m = ci.member(name)
                if m is not None:
                    return m.type_text
        # Repo-wide member fallback: catches iteration over another
        # object's exposed member.
        return program.member_types.get(name)


def _shorten(t: str, limit: int = 48) -> str:
    return t if len(t) <= limit else t[:limit - 1] + "…"


@register
class RawNewRule(Rule):
    name = "raw-new"
    description = ("No raw new/delete of Transaction objects outside "
                   "the slab pool; raw allocation bypasses the pool's "
                   "leak accounting.")

    def check_tu(self, tu: TranslationUnit,
                 program: Program) -> List[Finding]:
        out: List[Finding] = []
        for fn in tu.functions:
            for nd in fn.news:
                if nd.kind == "new" and nd.type_or_expr == "Transaction":
                    out.append(Finding(
                        tu.path, nd.line, self.name,
                        "raw transaction allocation; use the slab pool"))
                elif nd.kind == "delete" and "txn" in \
                        nd.type_or_expr.lower():
                    out.append(Finding(
                        tu.path, nd.line, self.name,
                        "raw transaction delete; use the slab pool"))
        return out


@register
class EventPushRule(Rule):
    name = "event-push"
    description = ("No direct events_.push() outside System::schedule; "
                   "the schedule API clamps cycles and feeds the "
                   "EventQueueChecker mirror.")

    def check_tu(self, tu: TranslationUnit,
                 program: Program) -> List[Finding]:
        out: List[Finding] = []
        for fn in tu.functions:
            for call in fn.calls:
                if call.callee == "push" and call.recv == "events_":
                    out.append(Finding(
                        tu.path, call.line, self.name,
                        "direct event-queue push; go through "
                        "System::schedule"))
        return out


_SPAWN_CALLS = {
    "fork", "vfork", "system", "popen", "execl", "execlp", "execle",
    "execv", "execvp", "execvpe", "posix_spawn", "posix_spawnp",
}


@register
class ProcessSpawnRule(Rule):
    name = "process-spawn"
    description = ("No raw fork()/system()/exec*() anywhere: sweeps "
                   "run on the in-process thread pool; a fork "
                   "inherits open stat/trace/ckpt streams and "
                   "corrupts them at exit.")

    def check_tu(self, tu: TranslationUnit,
                 program: Program) -> List[Finding]:
        out: List[Finding] = []
        for fn in tu.functions:
            for call in fn.calls:
                if call.callee in _SPAWN_CALLS and call.recv is None:
                    out.append(Finding(
                        tu.path, call.line, self.name,
                        "raw process spawn ('%s'); sweeps run on the "
                        "in-process thread pool" % call.callee))
        return out
