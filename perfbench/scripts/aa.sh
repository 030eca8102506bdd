#!/usr/bin/env bash
# A/A check: runs the suite twice on one build and compares the two sets
# with the bounds of BENCHMARK.json.  A later CI step can call this.
#
#   bash perfbench/scripts/aa.sh [RUNS] [SECONDS] [OUT_DIR]
#
# RUNS runs per workload and set (default 3), each with another seed
# (42, 43, …; both sets use the same seeds); SECONDS per run (default: the
# run_seconds of BENCHMARK.json).  Writes OUT_DIR/{a,b}.jsonl.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
runs="${1:-3}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
out="${3:-${CARGO_TARGET_DIR:-target}/perfbench-aa}"
mkdir -p "$out"
rm -f "$out/a.jsonl" "$out/b.jsonl"

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for set in a b; do
    for workload in $workloads; do
        for ((i = 0; i < runs; i++)); do
            bash perfbench/run.sh --workload "$workload" --seed $((42 + i)) \
                --seconds "$seconds" --trace 0 --out "$out/$set.jsonl" | tail -n 1
        done
    done
done
python3 perfbench/scripts/compare.py "$out/a.jsonl" "$out/b.jsonl"
