#!/bin/bash
# Regenerate every paper table/figure into results/ (one file per bench).
cd "$(dirname "$0")"
mkdir -p results
: > results/campaign.log
for b in build/bench/*; do
    [ -x "$b" ] || continue
    name=$(basename "$b")
    case "$name" in
        micro_primitives)
            echo "[$(date +%H:%M:%S)] $name" >> results/campaign.log
            "$b" --benchmark_min_time=0.2 > "results/$name.txt" 2>&1
            ;;
        *)
            echo "[$(date +%H:%M:%S)] $name" >> results/campaign.log
            "$b" > "results/$name.txt" 2>&1
            ;;
    esac
done
echo "[$(date +%H:%M:%S)] CAMPAIGN DONE" >> results/campaign.log
