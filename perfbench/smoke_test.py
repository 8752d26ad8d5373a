#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json at tiny length, untraced
and traced, and checks that the last stdout line is the summary
{"correct", "attempted", "failed", "metrics"}, that the run is correct
with no failure, and that exactly the end-to-end metrics (untraced) or
the per-layer metrics (traced) of BENCHMARK.json are printed, each a
finite number with the unit BENCHMARK.json gives, both in the summary
and on its own output line. Exits non-zero on any mismatch.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, want):
    """Run one tiny case; return a list of problems (empty when fine)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}"]
    try:
        summary = json.loads(lines[-1])
    except ValueError as e:
        return [f"last line is not JSON: {e}"]
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        return [f"summary keys {sorted(summary)}"]
    problems = []
    if summary["correct"] is not True or summary["failed"] != 0:
        problems.append(f"correct={summary['correct']} "
                        f"failed={summary['failed']}")
    if not isinstance(summary["attempted"], int) or summary["attempted"] < 1:
        problems.append(f"attempted={summary['attempted']}")
    got = summary["metrics"]
    units = {m["name"]: m["unit"] for m in want}
    for name in sorted(set(units) ^ set(got)):
        problems.append(f"metric {name} "
                        + ("missing" if name in units else "not declared"))
    printed = {tuple(line.split()[::2]) for line in lines[:-1]
               if len(line.split()) == 3}
    for name in sorted(set(units) & set(got)):
        m = got[name]
        if m.get("unit") != units[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, "
                            f"want {units[name]!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if (name, units[name]) not in printed:
            problems.append(f"{name}: no output line with its unit")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            problems = check_run(w["name"], trace, spec[kind])
            print(f"{'FAIL' if problems else 'ok'}: {w['name']} "
                  f"--trace {trace}")
            for p in problems:
                print(f"    {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
