#!/usr/bin/env python3
"""Simulator-specific determinism and hygiene lint (DESIGN.md 5d).

Rules (stdlib-only, regex-based -- fast enough to run on every CI push):

  rng            No rand()/srand()/time()/clock()/std::random_device or
                 <random> engines outside src/common/rng.hh.  All
                 randomness must flow through the seeded Rng so runs are
                 reproducible.
  unordered-iter No range-for iteration over unordered_map/unordered_set
                 members.  Hash-order iteration feeding stats or output
                 makes runs depend on pointer values / libstdc++ version.
                 (Scans declarations repo-wide first, then flags
                 range-fors whose range expression names such a member.)
  raw-new        No raw new/delete of Transaction objects outside the
                 slab pool.  Transactions live in System's IdSlabPool;
                 raw allocation bypasses leak accounting.
  event-push     No direct events_.push(...) outside System::schedule().
                 The schedule API clamps cycles and feeds the
                 EventQueueChecker mirror; bypassing it breaks both.
  stat-dup       The same stat key must not be put() twice in one file.
                 A stat registered twice silently overwrites the first
                 value in the output map.
  trace-hook     Trace hooks must go through the EMC_OBS_POINT macro
                 (src/obs/obs.hh) -- no direct Tracer::record() calls
                 outside src/obs -- and hook argument expressions must
                 be side-effect free (no ++/--/assignment): a stripped
                 EMC_SIM_TRACE=OFF build does not evaluate them, so a
                 side effect there silently changes simulation
                 behaviour between build flavours.
  fastwarm-timing
                 Functional-warming code (fastwarm.* files plus any
                 warmXxx()/fastForwardXxx() function region) must stay
                 tag-only: no event scheduling, stat mutation, traffic
                 accounting, or observability hooks.  The warming
                 contract (DESIGN.md #8) promises that fast-forwarded
                 and detailed-warmed runs produce identical measured
                 stats; a timing or stat side effect on the warm path
                 silently breaks that equivalence.
  process-spawn  No raw fork()/vfork()/system()/popen()/exec*()/
                 posix_spawn() anywhere.  Sweeps run on the in-process
                 thread pool (DESIGN.md #9): a fork inherits the
                 simulator's open stat streams, trace files, and
                 checkpoint fds, and a child that exits through atexit
                 handlers corrupts them.

  ckpt-field     Serialization code (ser()/ckptSer()/ckptSave()/
                 ckptLoad() bodies, including lambdas passed to the
                 ckptSave/ckptLoad hooks) must not write raw pointers
                 or host addresses: no reinterpret_cast, uintptr_t or
                 intptr_t inside a serialization region.  A pointer
                 value baked into a checkpoint is meaningless in the
                 restoring process and breaks the byte-identical-image
                 guarantee (DESIGN.md #7); serialize stable ids and
                 rebuild pointers on load instead.

A finding on line N is suppressed by an annotation on line N or N-1:

    // lint-ok: <rule> (<reason>)

The reason is mandatory: suppressions without a parenthesised
justification are themselves findings.

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

import os
import re
import sys

SOURCE_EXTS = {".cc", ".cpp", ".cxx", ".hh", ".hpp", ".h"}

RULES = ("rng", "unordered-iter", "raw-new", "event-push", "stat-dup",
         "trace-hook", "ckpt-field", "fastwarm-timing",
         "process-spawn")

# rng: tokens that introduce nondeterminism or wall-clock dependence.
RNG_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand|random_device|mt19937(?:_64)?|"
    r"default_random_engine|minstd_rand0?)\s*[({]"
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\bclock\s*\(\s*\)"
)
RNG_EXEMPT = ("src/common/rng.hh", "src/common/rng.cc")

# unordered-iter pass 1: member declarations of unordered containers.
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s+"
    r"(\w+)\s*(?:=[^;]*)?;"
)

# raw-new: allocation of transactions outside the slab pool.
RAW_NEW_RE = re.compile(r"\bnew\s+Transaction\b|\bdelete\s+\w*txn\w*\b")

# event-push: direct pushes into the event queue.
EVENT_PUSH_RE = re.compile(r"\bevents_\.push\s*\(")

# process-spawn: raw process management, allowed nowhere.
PROCESS_SPAWN_RE = re.compile(
    r"\b(?:::\s*)?(?:fork|vfork|system|popen|execl|execlp|execle|"
    r"execv|execvp|execvpe|posix_spawnp?)\s*\(")

# stat-dup: literal stat keys registered via StatMap::put("name", ...).
STAT_PUT_RE = re.compile(r"\.put\(\s*\"([^\"]+)\"")

# trace-hook: direct Tracer::record() calls (must use EMC_OBS_POINT).
TRACE_RECORD_RE = re.compile(r"\b\w+\s*(?:->|\.)\s*record\s*\(")
TRACE_RECORD_EXEMPT = ("src/obs/",)

# trace-hook: side effects inside EMC_OBS_POINT argument expressions.
TRACE_HOOK_OPEN_RE = re.compile(r"\bEMC_OBS_POINT\s*\(")
TRACE_SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|[^=!<>+\-*/|&^](?:[+\-*/|&^]|<<|>>)?=[^=]"
)

# fastwarm-timing: functional-warming code must not touch the timing
# model or the stat machinery.  warm-prefixed (capitalized next letter,
# so warmupCheckpointBytes -- which legitimately drives the detailed
# simulator -- is excluded) and fastForward-prefixed function regions
# are scanned, plus fastwarm.* files wholesale.
FASTWARM_FN_RE = re.compile(r"\b(?:warm[A-Z]\w*|fastForward\w*)\s*\(")
FASTWARM_BANNED_RE = re.compile(
    r"\bschedule\s*\(|\bevents_\b|\.sample\s*\(|\btraffic_\b"
    r"|\btracer_\b|\bstreamer_\b|\bEMC_OBS_POINT\b|\bstats_\b")

# ckpt-field: serialization regions (ser/ckptSer bodies and
# ckptSave/ckptLoad calls including their lambda arguments) must not
# mention pointer-to-integer machinery -- a host address written into
# an image does not survive restore.
CKPT_FN_RE = re.compile(r"\b(?:ser|ckptSer|ckptSave|ckptLoad)\s*\(")
CKPT_BANNED_RE = re.compile(
    r"\breinterpret_cast\b|\b(?:std::)?u?intptr_t\b")
# Walker safety valve: a serialization region longer than this many
# lines means unbalanced braces (macro trickery) -- give up silently.
CKPT_MAX_REGION_LINES = 400

LINT_OK_RE = re.compile(r"//\s*lint-ok:\s*([a-z-]+)(\s*\(.+\))?")

COMMENT_BLOCK_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def iter_sources(roots):
    for root in roots:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not d.startswith("build")]
            for f in sorted(filenames):
                if os.path.splitext(f)[1] in SOURCE_EXTS:
                    yield os.path.join(dirpath, f)


def strip_block_comments(text):
    """Blank out /* */ comments, preserving line structure."""
    return COMMENT_BLOCK_RE.sub(
        lambda m: "\n" * m.group(0).count("\n"), text)


def code_part(line, keep_strings=False):
    """The line with any // comment removed and, unless keep_strings,
    string literals blanked (so tokens inside messages don't match)."""
    blanked = STRING_RE.sub('""', line)
    idx = blanked.find("//")
    kept = line if keep_strings else blanked
    return kept if idx < 0 else kept[:idx]


class Linter:
    def __init__(self):
        self.findings = []

    def report(self, path, lineno, rule, msg):
        self.findings.append((path, lineno, rule, msg))

    # -- suppression handling ------------------------------------------

    @staticmethod
    def suppressions(lines):
        """Map line number -> set of suppressed rules (line or line-1)."""
        ok = {}
        for i, line in enumerate(lines, start=1):
            m = LINT_OK_RE.search(line)
            if m:
                ok.setdefault(i, set()).add(m.group(1))
                ok.setdefault(i + 1, set()).add(m.group(1))
        return ok

    def check_suppression_reasons(self, path, lines):
        for i, line in enumerate(lines, start=1):
            m = LINT_OK_RE.search(line)
            if not m:
                continue
            if m.group(1) not in RULES:
                self.report(path, i, "lint-ok",
                            f"unknown rule '{m.group(1)}' in suppression")
            if not m.group(2):
                self.report(path, i, "lint-ok",
                            "suppression lacks a (reason)")

    # -- helpers -------------------------------------------------------

    @staticmethod
    def macro_args(lines, lineno, open_idx, max_lines=12):
        """The argument text of a macro whose '(' sits at (1-based)
        line `lineno`, column `open_idx` of its comment-stripped code.
        Returns None if the parentheses don't balance within
        max_lines (a macro in a comment or a pathological layout)."""
        depth = 0
        out = []
        for off in range(max_lines):
            if lineno - 1 + off >= len(lines):
                break
            code = code_part(lines[lineno - 1 + off])
            start = open_idx if off == 0 else 0
            for ch in code[start:]:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        return "".join(out)
                elif depth > 0:
                    out.append(ch)
            out.append(" ")
        return None

    # -- ckpt-field: raw-pointer machinery in serialization code -------

    @staticmethod
    def ckpt_region(lines, lineno, col):
        """Yield (line number, code substring) pairs covering one
        serialization region that starts at (1-based) line `lineno`,
        column `col` of its comment-stripped code.  The region spans
        from the ser/ckptSave/... token until its signature parens and
        any body or lambda braces balance back out (so both member
        definitions and call sites with lambda arguments are covered).
        Gives up after CKPT_MAX_REGION_LINES unbalanced lines."""
        paren = brace = 0
        seen_brace = False
        for off in range(CKPT_MAX_REGION_LINES):
            idx = lineno - 1 + off
            if idx >= len(lines):
                return
            code = code_part(lines[idx])
            start = col if off == 0 else 0
            done_at = None
            for j in range(start, len(code)):
                ch = code[j]
                if ch == "(":
                    paren += 1
                elif ch == ")":
                    paren -= 1
                    if paren <= 0 and seen_brace and brace == 0:
                        done_at = j + 1
                        break
                elif ch == "{":
                    brace += 1
                    seen_brace = True
                elif ch == "}":
                    brace -= 1
                    if seen_brace and brace == 0 and paren <= 0:
                        done_at = j + 1
                        break
                elif ch == ";" and paren <= 0 and brace == 0:
                    done_at = j + 1
                    break
            if done_at is not None:
                yield idx + 1, code[start:done_at]
                return
            yield idx + 1, code[start:]

    def check_ckpt_fields(self, path, lines, ok):
        flagged = set()
        for i, line in enumerate(lines, start=1):
            for m in CKPT_FN_RE.finditer(code_part(line)):
                for lineno, chunk in self.ckpt_region(lines, i, m.start()):
                    bm = CKPT_BANNED_RE.search(chunk)
                    if not bm or lineno in flagged:
                        continue
                    flagged.add(lineno)
                    if "ckpt-field" not in ok.get(lineno, ()):
                        self.report(
                            path, lineno, "ckpt-field",
                            f"'{bm.group(0)}' in serialization code; a "
                            "host address written into a checkpoint "
                            "does not survive restore -- serialize a "
                            "stable id and rebuild the pointer on load")

    # -- fastwarm-timing: timing/stat side effects on warm paths -------

    def fastwarm_hit(self, path, lineno, chunk, ok, flagged):
        bm = FASTWARM_BANNED_RE.search(chunk)
        if not bm or lineno in flagged:
            return
        flagged.add(lineno)
        if "fastwarm-timing" not in ok.get(lineno, ()):
            self.report(
                path, lineno, "fastwarm-timing",
                f"'{bm.group(0).strip()}' on a functional-warming "
                "path; warming must be tag-only (no events, stats, "
                "traffic, or trace hooks -- DESIGN.md #8)")

    def check_fastwarm(self, path, lines, ok):
        flagged = set()
        if os.path.basename(path).startswith("fastwarm"):
            for i, line in enumerate(lines, start=1):
                self.fastwarm_hit(path, i, code_part(line), ok, flagged)
            return
        # Elsewhere, scan warmXxx()/fastForwardXxx() regions only.
        # Declarations and call sites balance out at the ';' after a
        # few lines; definitions span their whole body (the same
        # walker the ckpt-field rule uses).
        for i, line in enumerate(lines, start=1):
            for m in FASTWARM_FN_RE.finditer(code_part(line)):
                for lineno, chunk in self.ckpt_region(lines, i,
                                                      m.start()):
                    self.fastwarm_hit(path, lineno, chunk, ok, flagged)

    # -- pass 1: collect unordered-container member names --------------

    def collect_unordered_members(self, files):
        members = set()
        for path in files:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = strip_block_comments(f.read())
            for m in UNORDERED_DECL_RE.finditer(text):
                members.add(m.group(1))
        return members

    # -- pass 2: per-file rules ----------------------------------------

    def lint_file(self, path, unordered_members):
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        lines = strip_block_comments(raw).splitlines()
        ok = self.suppressions(lines)
        self.check_suppression_reasons(path, lines)

        rel = path.replace("\\", "/")
        rng_exempt = any(rel.endswith(e) for e in RNG_EXEMPT)
        trace_exempt = any(e in rel for e in TRACE_RECORD_EXEMPT)

        self.check_ckpt_fields(path, lines, ok)
        self.check_fastwarm(path, lines, ok)

        range_for_re = None
        if unordered_members:
            names = "|".join(re.escape(n) for n in sorted(unordered_members))
            range_for_re = re.compile(
                r"\bfor\s*\([^;)]*:\s*[\w.\->]*\b(?:%s)\b\s*\)" % names)

        stat_keys = {}

        for i, line in enumerate(lines, start=1):
            code = code_part(line)

            def hit(rule, msg):
                if rule not in ok.get(i, ()):
                    self.report(path, i, rule, msg)

            if not rng_exempt and RNG_RE.search(code):
                hit("rng",
                    "nondeterministic source; use common/rng.hh (Rng)")

            if range_for_re and range_for_re.search(code):
                hit("unordered-iter",
                    "range-for over an unordered container; "
                    "hash order is not deterministic")

            if RAW_NEW_RE.search(code):
                hit("raw-new",
                    "raw transaction allocation; use the slab pool")

            if EVENT_PUSH_RE.search(code):
                hit("event-push",
                    "direct event-queue push; go through System::schedule")

            if PROCESS_SPAWN_RE.search(code):
                hit("process-spawn",
                    "raw process spawn; sweeps run on the in-process "
                    "thread pool")

            if not trace_exempt and TRACE_RECORD_RE.search(code):
                hit("trace-hook",
                    "direct Tracer::record(); hooks go through "
                    "EMC_OBS_POINT (src/obs/obs.hh)")

            for m in TRACE_HOOK_OPEN_RE.finditer(code):
                args = self.macro_args(lines, i, m.end() - 1)
                if args is not None and TRACE_SIDE_EFFECT_RE.search(args):
                    hit("trace-hook",
                        "side effect in EMC_OBS_POINT arguments; a "
                        "hook-stripped build does not evaluate them")

            for m in STAT_PUT_RE.finditer(code_part(line, True)):
                key = m.group(1)
                if key in stat_keys and "stat-dup" not in ok.get(i, ()):
                    self.report(
                        path, i, "stat-dup",
                        f'stat "{key}" already registered at line '
                        f"{stat_keys[key]}")
                stat_keys.setdefault(key, i)


def main(argv):
    roots = argv[1:] or ["src"]
    for r in roots:
        if not os.path.exists(r):
            print(f"lint_sim: no such path: {r}", file=sys.stderr)
            return 2

    files = list(iter_sources(roots))
    linter = Linter()
    members = linter.collect_unordered_members(files)
    for path in files:
        linter.lint_file(path, members)

    for path, lineno, rule, msg in sorted(linter.findings):
        print(f"{path}:{lineno}: [{rule}] {msg}")
    if linter.findings:
        print(f"lint_sim: {len(linter.findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"lint_sim: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
