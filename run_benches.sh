#!/bin/bash
# Regenerate every paper table/figure into results/ (one file per
# figure, each distinct simulation run once; DESIGN.md §9), the JSON
# artifacts BENCH_diversity.json and BENCH_offchip.json at the repo
# root, and the micro_primitives host-time table. The campaign's job
# counts and wall-clock go to results/campaign.log.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p results
build/bench/figures --out results 2> results/campaign.log
mv results/BENCH_diversity.json results/BENCH_offchip.json .
build/bench/micro_primitives --benchmark_min_time=0.2 \
    > results/micro_primitives.txt 2>&1
