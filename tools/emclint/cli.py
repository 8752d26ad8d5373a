"""Command-line interface.

    python3 tools/emclint [paths...]            # default: src
    python3 tools/emclint --list-rules
    python3 tools/emclint -p build --frontend clang --format sarif \
            --output emclint.sarif src

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import baseline as baseline_mod
from . import engine, output
from .rules import all_rules


def _default_baseline() -> Optional[str]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baseline.json")
    return path if os.path.exists(path) else None


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="emclint",
        description="AST-grounded static analysis for the simulator's "
                    "determinism, checkpoint and warming contracts "
                    "(DESIGN.md §10).")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to analyze "
                        "(default: src)")
    p.add_argument("-p", "--compdb", metavar="DIR_OR_FILE",
                   help="compile_commands.json (or its build dir) for "
                        "the libclang frontend")
    p.add_argument("--frontend", choices=("auto", "clang", "tokens"),
                   default="auto",
                   help="auto = libclang when importable, else the "
                        "dependency-free token frontend")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the report here instead of stdout")
    p.add_argument("--baseline", metavar="FILE",
                   default=_default_baseline(),
                   help="accepted-findings baseline (default: "
                        "tools/emclint/baseline.json when present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file")
    p.add_argument("--write-baseline", action="store_true",
                   help="record current findings into --baseline and "
                        "exit 0")
    p.add_argument("--rules", metavar="R1,R2,...",
                   help="run only these rules")
    p.add_argument("--list-rules", action="store_true")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="suppress the summary line on stderr")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)

    if args.list_rules:
        for name, cls in sorted(all_rules().items()):
            print("%-16s %s" % (name, cls.description))
        return 0

    for root in args.paths:
        if not os.path.exists(root):
            print("emclint: no such path: %s" % root, file=sys.stderr)
            return 2

    rules = args.rules.split(",") if args.rules else None
    try:
        res = engine.analyze(args.paths, frontend=args.frontend,
                             compdb_path=args.compdb, rules=rules)
    except RuntimeError as e:
        print("emclint: %s" % e, file=sys.stderr)
        return 2

    if res.frontend_note and not args.quiet:
        print("emclint: %s" % res.frontend_note, file=sys.stderr)

    findings = res.findings
    if args.write_baseline:
        path = args.baseline or os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "baseline.json")
        baseline_mod.write(path, findings)
        if not args.quiet:
            print("emclint: wrote %d fingerprint(s) to %s"
                  % (len(findings), path), file=sys.stderr)
        return 0
    if args.baseline and not args.no_baseline:
        try:
            findings = baseline_mod.filter_known(
                findings, baseline_mod.load(args.baseline))
        except (OSError, RuntimeError) as e:
            print("emclint: %s" % e, file=sys.stderr)
            return 2

    if args.format == "text":
        report = output.to_text(findings)
    elif args.format == "json":
        report = output.to_json(findings, res.frontend)
    else:
        report = output.to_sarif(findings, res.frontend)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(report)
    else:
        sys.stdout.write(report)

    if not args.quiet:
        if findings:
            print("emclint: %d finding(s) [%s frontend, %d file(s)]"
                  % (len(findings), res.frontend, len(res.files)),
                  file=sys.stderr)
        else:
            print("emclint: %d file(s) clean [%s frontend]"
                  % (len(res.files), res.frontend), file=sys.stderr)
    return 1 if findings else 0
