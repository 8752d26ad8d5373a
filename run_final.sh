#!/bin/bash
# Final deliverable runs: full test suite and every bench, tee'd to the
# files the top-level instructions name, plus per-figure snapshots.
cd "$(dirname "$0")"
ctest --test-dir build 2>&1 | tee /root/repo/test_output.txt
: > /root/repo/bench_output.txt
mkdir -p results
for b in build/bench/*; do
    { [ -f "$b" ] && [ -x "$b" ]; } || continue
    name=$(basename "$b")
    echo "[final] $name" >> results/campaign.log
    if [ "$name" = micro_primitives ]; then
        "$b" --benchmark_min_time=0.2 > "results/$name.txt" 2>&1
    else
        "$b" > "results/$name.txt" 2>&1
    fi
    cat "results/$name.txt" >> /root/repo/bench_output.txt
done
echo "[final] FINAL DONE" >> results/campaign.log
