#!/bin/bash
# Record/replay cross-check for the v2 trace frontend (DESIGN.md §11).
#
# For one profile per irregular-kernel family (graph, hash, gather):
#   1. record a trace with emctracegen,
#   2. structurally verify it (every checksum, every block),
#   3. replay it with `emcsim --trace-in` (workload name must come
#      from the container's provenance header, no --workload flag),
#   4. run the live generator at the same seed and uop budget,
#   5. diff the two full stat dumps — any divergence fails.
#
# Also proves the typed-error path: a truncated copy must make
# `emctracegen verify` exit non-zero with a byte offset, not crash.
#
# Usage: scripts/trace_crosscheck.sh [BUILD_DIR]   (default: build)
# ctest runs it as `trace_crosscheck` against the configured build.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
EMCSIM="$BUILD/tools/emcsim"
TRACEGEN="$BUILD/tools/emctracegen"
UOPS=4000
SEED=24333
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for profile in bfs hashjoin embed; do
    trace="$WORK/$profile.emct"

    # The core front-end fetches ahead of commit, so record a
    # comfortable multiple of the retire target.
    "$TRACEGEN" record --profile "$profile" --out "$trace" \
        --uops $((UOPS * 6)) --seed "$SEED" \
        --meta "trace_crosscheck.sh"
    "$TRACEGEN" verify "$trace"

    "$EMCSIM" --trace-in "$trace" --cores 1 --emc --uops "$UOPS" \
        --seed "$SEED" > "$WORK/$profile.replay.txt"
    "$EMCSIM" --workload "$profile" --cores 1 --emc --uops "$UOPS" \
        --seed "$SEED" > "$WORK/$profile.live.txt"

    if ! diff -u "$WORK/$profile.live.txt" \
            "$WORK/$profile.replay.txt" > "$WORK/$profile.diff"; then
        echo "FAIL: $profile: replayed stats diverge from live run"
        head -40 "$WORK/$profile.diff"
        exit 1
    fi
    echo "OK: $profile: replay stat-identical to live run"
done

# Typed-error path: truncation must be a clean, offset-bearing error.
full="$WORK/bfs.emct"
trunc="$WORK/bfs.truncated.emct"
head -c $(( $(stat -c%s "$full") - 17 )) "$full" > "$trunc"
if "$TRACEGEN" verify "$trunc" 2> "$WORK/trunc.err"; then
    echo "FAIL: verify accepted a truncated trace"
    exit 1
fi
grep -q "byte offset" "$WORK/trunc.err" || {
    echo "FAIL: truncation error carries no byte offset:"
    cat "$WORK/trunc.err"
    exit 1
}
echo "OK: truncated trace rejected with byte offset"

# The committed reference traces must stay structurally sound and
# carry their provenance.
for ref in traces/*.ref.emct; do
    "$TRACEGEN" verify "$ref"
    "$TRACEGEN" info "$ref" | grep -q "workload" || {
        echo "FAIL: $ref: no workload provenance"
        exit 1
    }
done
echo "trace_crosscheck.sh: all green"
