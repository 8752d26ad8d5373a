#!/bin/bash
# One-command verification: configure, build, run the full test suite
# and a smoke pass over the quickest figures. Exits non-zero on any
# failure. run_benches.sh regenerates the full figure campaign
# (build/bench/figures --out results).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build --output-on-failure

# Fast smoke of the harness itself.
smoke=$(mktemp -d)
./build/examples/quickstart > /dev/null
EMC_SIM_UOPS=4000 ./build/bench/figures --out "$smoke" \
    table1_config fig06_dependence_distance 2> /dev/null
rm -rf "$smoke"

echo "check.sh: all green"
