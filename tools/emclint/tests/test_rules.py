"""Fixture tests for the emclint rule catalog.

Every fixture line that must produce a finding carries a
``[expect: rule]`` marker (space-separated for multiple rules); the
bracketed form coexists with ``// lint-ok:`` / ``// ckpt-skip:``
comments on the same line.  The runner compares the *exact* set of
(file, line, rule) triples both ways: a missed finding and a spurious
finding are equally failures.  A coverage assertion keeps the corpus
honest — every registered rule (plus the "lint-ok" annotation
pseudo-rule) must be exercised by at least one marker.

Run standalone:  python3 -m unittest discover -s tools/emclint/tests
Under ctest:     test_emclint
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
import unittest

_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
_TOOLS_DIR = os.path.dirname(os.path.dirname(_TESTS_DIR))
_REPO_DIR = os.path.dirname(_TOOLS_DIR)
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)

from emclint import cli, engine, token_frontend  # noqa: E402
from emclint.rules import all_rules  # noqa: E402

FIXTURES = os.path.join(_TESTS_DIR, "fixtures")
MARKER_RE = re.compile(r"\[expect:\s*([a-z -]+?)\s*\]")


def expected_markers():
    """All (relpath, line, rule) triples declared in the fixtures."""
    out = set()
    for path in engine.collect_sources([FIXTURES]):
        rel = os.path.relpath(path, FIXTURES).replace(os.sep, "/")
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                m = MARKER_RE.search(raw)
                if m:
                    for rule in m.group(1).split():
                        out.add((rel, lineno, rule))
    return out


def actual_findings():
    res = engine.analyze([FIXTURES], frontend="tokens")
    out = set()
    for f in res.findings:
        rel = os.path.relpath(f.path, FIXTURES).replace(os.sep, "/")
        out.add((rel, f.line, f.rule))
    return out, res


class FixtureCorpusTest(unittest.TestCase):
    """The corpus findings must match the markers exactly."""

    @classmethod
    def setUpClass(cls):
        cls.expected = expected_markers()
        cls.actual, cls.result = actual_findings()

    def test_frontend_is_tokens(self):
        self.assertEqual(self.result.frontend, "tokens")

    def test_no_missing_findings(self):
        missing = sorted(self.expected - self.actual)
        self.assertEqual(
            missing, [],
            "fixture lines marked [expect: ...] produced no finding: "
            "%r" % missing)

    def test_no_unexpected_findings(self):
        unexpected = sorted(self.actual - self.expected)
        self.assertEqual(
            unexpected, [],
            "findings on unmarked fixture lines (false positives): "
            "%r" % unexpected)

    def test_every_rule_is_exercised(self):
        needed = set(all_rules().keys()) | {"lint-ok"}
        covered = {rule for (_, _, rule) in self.expected}
        self.assertEqual(
            sorted(needed - covered), [],
            "rules with no triggering fixture")

    def test_known_good_files_are_clean(self):
        clean_files = {"determinism_good.cc", "warm_good.cc",
                       "ckpt_good.hh", "src/obs/trace_ok.cc"}
        dirty = sorted(rel for (rel, _, _) in self.actual
                       if rel in clean_files)
        self.assertEqual(dirty, [])


class CkptCoverageAcceptanceTest(unittest.TestCase):
    """The issue's acceptance criterion: a deliberately unserialized
    member added to a real ser()-bearing class is flagged."""

    ANCHOR = "std::size_t head_ = 0;"
    SNEAKY = "std::uint64_t sneaky_extra_ = 0;"

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="emclint_ckpt_")
        self.addCleanup(shutil.rmtree, self.tmp)
        self.src = os.path.join(_REPO_DIR, "src", "vm", "tlb.hh")

    def _analyze_copy(self, mutate):
        with open(self.src, encoding="utf-8") as f:
            text = f.read()
        if mutate:
            self.assertIn(self.ANCHOR, text)
            text = text.replace(
                self.ANCHOR,
                self.ANCHOR + "\n    " + self.SNEAKY)
        path = os.path.join(self.tmp, "tlb.hh")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return engine.analyze([path], frontend="tokens").findings

    def test_pristine_copy_is_clean(self):
        self.assertEqual(self._analyze_copy(mutate=False), [])

    def test_unserialized_member_is_flagged(self):
        findings = self._analyze_copy(mutate=True)
        self.assertEqual(len(findings), 1, findings)
        f = findings[0]
        self.assertEqual(f.rule, "ckpt-coverage")
        self.assertIn("sneaky_extra_", f.message)


class TokenFrontendRegressionTest(unittest.TestCase):
    """Parses that used to go wrong on real src/ files."""

    def _parse(self, text):
        tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".hh", delete=False, encoding="utf-8")
        self.addCleanup(os.unlink, tmp.name)
        tmp.write(text)
        tmp.close()
        return token_frontend.parse_file(tmp.name)

    def test_array_member_name_is_before_the_bracket(self):
        # `bool valid_[kArchRegs]` once extracted `kArchRegs` as the
        # member name, hiding `valid_` from ckpt-coverage.
        tu = self._parse(
            "struct R {\n"
            "    bool valid_[kArchRegs] = {};\n"
            "    Histogram hist_[3][kNumPhases];\n"
            "    int plain_ = 0;\n"
            "};\n")
        names = {m.name for ci in tu.classes for m in ci.members}
        self.assertEqual(names, {"valid_", "hist_", "plain_"})


class CliContractTest(unittest.TestCase):
    """Exit codes and report formats."""

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="emclint_cli_")
        self.addCleanup(shutil.rmtree, self.tmp)

    def _clean_file(self):
        path = os.path.join(self.tmp, "clean.cc")
        with open(path, "w", encoding="utf-8") as f:
            f.write("namespace fx { inline int two() "
                    "{ return 2; } }\n")
        return path

    def test_exit_1_on_findings(self):
        code, _, _ = self._run(["--frontend", "tokens",
                                "--no-baseline", "-q", FIXTURES])
        self.assertEqual(code, 1)

    def test_exit_0_on_clean(self):
        code, _, _ = self._run(["--frontend", "tokens",
                                "--no-baseline", "-q",
                                self._clean_file()])
        self.assertEqual(code, 0)

    def test_exit_2_on_missing_path(self):
        code, _, err = self._run(["--frontend", "tokens", "-q",
                                  os.path.join(self.tmp, "nope")])
        self.assertEqual(code, 2)
        self.assertIn("no such path", err)

    def test_json_report_is_valid(self):
        out_path = os.path.join(self.tmp, "report.json")
        code, _, _ = self._run(["--frontend", "tokens",
                                "--no-baseline", "-q",
                                "--format", "json",
                                "-o", out_path, FIXTURES])
        self.assertEqual(code, 1)
        with open(out_path, encoding="utf-8") as f:
            data = json.load(f)
        self.assertGreater(len(data["findings"]), 0)
        for item in data["findings"]:
            self.assertIn("rule", item)
            self.assertIn("file", item)
            self.assertIn("line", item)

    def test_sarif_report_is_valid(self):
        out_path = os.path.join(self.tmp, "report.sarif")
        code, _, _ = self._run(["--frontend", "tokens",
                                "--no-baseline", "-q",
                                "--format", "sarif",
                                "-o", out_path, FIXTURES])
        self.assertEqual(code, 1)
        with open(out_path, encoding="utf-8") as f:
            sarif = json.load(f)
        self.assertEqual(sarif["version"], "2.1.0")
        run = sarif["runs"][0]
        self.assertGreater(len(run["results"]), 0)
        rule_ids = {r["id"] for r in
                    run["tool"]["driver"]["rules"]}
        for result in run["results"]:
            self.assertIn(result["ruleId"], rule_ids)

    def test_baseline_round_trip(self):
        # --write-baseline accepts today's findings; the next run with
        # that baseline is green.
        bl = os.path.join(self.tmp, "baseline.json")
        code, _, _ = self._run(["--frontend", "tokens", "-q",
                                "--baseline", bl,
                                "--write-baseline", FIXTURES])
        self.assertEqual(code, 0)
        code, _, _ = self._run(["--frontend", "tokens", "-q",
                                "--baseline", bl, FIXTURES])
        self.assertEqual(code, 0)

    def test_shipped_baseline_is_empty(self):
        # The acceptance bar for src/ is annotated suppressions, not a
        # bulk waiver file (DESIGN.md §10).
        shipped = os.path.join(_TOOLS_DIR, "emclint", "baseline.json")
        with open(shipped, encoding="utf-8") as f:
            data = json.load(f)
        self.assertEqual(data["version"], 1)
        self.assertEqual(data["fingerprints"], [])


class SrcIsCleanTest(unittest.TestCase):
    """The real tree must be finding-free without any baseline — this
    is the same gate CI applies."""

    def test_src_has_no_findings(self):
        res = engine.analyze([os.path.join(_REPO_DIR, "src")],
                             frontend="tokens")
        self.assertEqual(
            [(f.path, f.line, f.rule) for f in res.findings], [])


if __name__ == "__main__":
    unittest.main()
