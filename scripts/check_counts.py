#!/usr/bin/env python3
"""Check the exact counts of traced perfbench runs against the trajectory.

    bash perfbench/run.sh --workload batch-closure --seed 42 --trace 1 > closure.txt
    python3 scripts/check_counts.py closure.txt [more.txt ...]

Each argument is the stdout of one `--trace 1` run.  Its first line names the
workload and seed; its last line is the JSON result.  The counts listed in
COUNTS are exact for a workload and seed on any machine, so each is compared
with the newest committed `BENCH_<n>.json` at the repository root (largest
`<n>`): its `per_layer[workload]` holds the counts of the change it records.

The check fails when
  * a run is not at seed 42, fails an operation or reports `correct: false`;
  * a count differs from the newest file's `per_layer` value;
  * the newest file itself changes a count against its `parent_per_layer`
    without listing it in `count_changes[workload]` as `[parent, change]`
    with a reason in `count_change_reasons`.

So a change that moves a count must commit a new trajectory file that
records the new value and says why.  Timings are not checked here; compare
them with `perfbench/scripts/compare.py`.
"""

import glob
import json
import os
import re
import sys

COUNTS = [
    "engine.eval.derivations",
    "engine.eval.iterations",
    "engine.eval.facts_total",
    "engine.eval.index_probes",
    "engine.eval.subsumption_checks",
    "constraints.fm_sat_calls",
    "engine.plan.plans",
    "transform.rules_out",
    "engine.eval.retract_removed",
    "lang.facts_parsed",
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def newest_bench():
    """The path and contents of the highest-numbered BENCH_<n>.json."""
    numbered = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            numbered.append((int(match.group(1)), path))
    if not numbered:
        sys.exit("check_counts: no BENCH_<n>.json at the repository root")
    path = max(numbered)[1]
    with open(path) as handle:
        return os.path.basename(path), json.load(handle)


def read_run(path):
    """(workload, seed, result JSON) of one traced perfbench run."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    header = re.match(r"workload (\S+) seed (\d+) ", lines[0]) if lines else None
    if not header:
        sys.exit(f"check_counts: {path} does not start with a perfbench header")
    return header.group(1), int(header.group(2)), json.loads(lines[-1])


def listed_changes(bench, workload):
    """Complaints about counts the trajectory file changes without a reason."""
    problems = []
    current = bench.get("per_layer", {}).get(workload, {})
    parent = bench.get("parent_per_layer", {}).get(workload, {})
    changes = bench.get("count_changes", {}).get(workload, {})
    reasons = bench.get("count_change_reasons", {})
    for name in COUNTS:
        if name not in current or name not in parent or current[name] == parent[name]:
            continue
        if changes.get(name) != [parent[name], current[name]]:
            problems.append(
                f"{workload} {name}: {parent[name]} -> {current[name]} is not listed "
                f"in count_changes as [{parent[name]}, {current[name]}]"
            )
        elif not reasons.get(name):
            problems.append(f"{workload} {name}: changed with no count_change_reasons entry")
    return problems


def main(paths):
    if not paths:
        sys.exit(__doc__)
    name, bench = newest_bench()
    problems = []
    for path in paths:
        workload, seed, result = read_run(path)
        if seed != 42:
            problems.append(f"{path}: seed {seed}, the trajectory records seed 42")
        if not result.get("correct") or result.get("failed", 0) != 0:
            problems.append(f"{path}: correct={result.get('correct')}, failed={result.get('failed')}")
        expected = bench.get("per_layer", {}).get(workload)
        if expected is None:
            problems.append(f"{path}: {name} records no workload {workload}")
            continue
        metrics = result.get("metrics", {})
        checked = 0
        for count in COUNTS:
            if count not in expected:
                continue
            if count not in metrics:
                problems.append(f"{workload} {count}: missing from {path}")
                continue
            observed = metrics[count]["value"]
            checked += 1
            if observed != expected[count]:
                problems.append(
                    f"{workload} {count}: {observed:g} here, {expected[count]:g} in {name}"
                )
        problems.extend(listed_changes(bench, workload))
        print(f"{workload}: {checked} exact counts checked against {name}")
    for problem in problems:
        print(f"check_counts: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
