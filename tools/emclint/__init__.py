"""emclint — AST-grounded static analysis for the simulator's
determinism, checkpoint, and warming contracts (DESIGN.md §10).

The repo's hard guarantees — bit-identical checkpoint restore (§7),
byte-identical sweeps at any worker count (§9), and fast-warm
equivalence (§8) — are behavioural contracts that ordinary compilers
do not check.
emclint checks them statically:

  * a shared semantic model (`emclint.model`) describing classes,
    members, functions, call sites, range-for statements, trace-hook
    macro uses and stat registrations;
  * two frontends that populate it: `clang_frontend` (precise, via
    libclang / `clang.cindex` over CMake's compile_commands.json) and
    `token_frontend` (a dependency-free structural parser used when
    libclang is not installed — same rules, slightly coarser types);
  * a rule engine (`emclint.rules`) with one module per rule family,
    per-rule fixtures under tests/emclint/fixtures, and findings that
    survive `// lint-ok: <rule> (reason)` suppression and the checked-in
    baseline only when they are real.

Run it as `python3 tools/emclint [paths...]`; see `--help` for output
formats (text / json / sarif), baseline handling and frontend
selection.  It is the repo's only custom linter: the token frontend
keeps it dependency-free wherever a stock python3 runs.
"""

__version__ = "1.0"
