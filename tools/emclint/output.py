"""Finding writers: text (`path:line: [rule] message`), JSON, SARIF 2.1.0.

SARIF is what CI uploads for inline PR annotations
(github/codeql-action/upload-sarif); the rule catalog rides along in
tool.driver.rules so the annotations carry full descriptions.
"""

from __future__ import annotations

import json
from typing import List

from .model import Finding
from .rules import all_rules


def to_text(findings: List[Finding]) -> str:
    return "".join("%s:%d: [%s] %s\n"
                   % (f.path, f.line, f.rule, f.message)
                   for f in findings)


def to_json(findings: List[Finding], frontend: str) -> str:
    return json.dumps({
        "tool": "emclint",
        "version": 1,
        "frontend": frontend,
        "findings": [
            {"file": f.path, "line": f.line, "rule": f.rule,
             "message": f.message, "fingerprint": f.fingerprint()}
            for f in findings
        ],
    }, indent=2) + "\n"


def to_sarif(findings: List[Finding], frontend: str) -> str:
    catalog = all_rules()
    rule_ids = sorted(catalog.keys())
    rules = [{
        "id": rid,
        "shortDescription": {"text": rid},
        "fullDescription": {"text": catalog[rid].description},
        "defaultConfiguration": {"level": "error"},
    } for rid in rule_ids]
    # `lint-ok` findings (bad suppressions) have no catalog entry.
    extra = sorted({f.rule for f in findings} - set(rule_ids))
    for rid in extra:
        rules.append({"id": rid,
                      "shortDescription": {"text": rid},
                      "defaultConfiguration": {"level": "error"}})
    index = {r["id"]: i for i, r in enumerate(rules)}
    results = [{
        "ruleId": f.rule,
        "ruleIndex": index[f.rule],
        "level": "error",
        "message": {"text": f.message},
        "partialFingerprints": {"emclint/v1": f.fingerprint()},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": f.path,
                                     "uriBaseId": "SRCROOT"},
                "region": {"startLine": max(1, f.line)},
            },
        }],
    } for f in findings]
    sarif = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "emclint",
                    "informationUri":
                        "https://example.invalid/emclint",
                    "version": "1.0",
                    "properties": {"frontend": frontend},
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }
    return json.dumps(sarif, indent=2) + "\n"
