#!/usr/bin/env python3
"""Measure a change against its parent and write the trajectory file.

    python3 scripts/trajectory.py PARENT_DIR CHANGE_DIR --pr N
        [--pairs 10] [--traced 1] [--work DIR] [--out FILE]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (say, a
`git clone` checked out at the parent commit, and the working tree).  Every
run lasts `RUN_SECONDS`, the benchmark's fixed run length, and every
workload of CHANGE_DIR's BENCHMARK.json is run.  The script runs
the protocol every `BENCH_<n>.json` since BENCH_35 records:

  1. Builds each tree with that tree's own `perfbench/run.sh`, each into a
     target directory of its own under the work directory, and copies its
     `pcs-perfbench` and `pcs-serve` binaries aside, so that the runs below
     rebuild nothing.
  2. For every workload of CHANGE_DIR's BENCHMARK.json: `--pairs` alternating
     parent/change pairs of untraced runs (`--trace 0`).  Pair k runs both
     sides at seed k; odd pairs run the parent first, even pairs the change.
  3. Per workload, `--traced` traced runs per side at seed 42 (`--trace 1`),
     alternating which side runs first.  The first run of each side gives
     `per_layer` / `parent_per_layer`; all of them stay in the work
     directory for attribution.
  4. Runs CHANGE_DIR's `perfbench/scripts/compare.py` on the untraced
     records of both sides.

It writes `BENCH_<N>.json` (into CHANGE_DIR unless `--out` says otherwise)
in the schema `scripts/check_counts.py` reads.  Every exact count of
`check_counts.COUNTS` that differs between the sides is listed in
`count_changes` as `[parent, change]`, with an empty `count_change_reasons`
entry: the author fills in only `count_change_reasons` and `attribution`,
and `check_counts.py` fails until every changed count has a reason.

`--pairs 0` skips the timed pairs (steps 2 and 4) and records the traced
counts alone, which takes a few minutes instead of about an hour on two
cores.  Nothing else may compile or run heavy work meanwhile: the timings
are the machine's.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_counts import COUNTS  # noqa: E402

TRACED_SEED = 42
RUN_SECONDS = 10
SIDES = ("parent", "change")


def build(tree, work, side):
    """Builds `tree` with its own run.sh; returns the directory holding the
    copied `pcs-perfbench` and `pcs-serve`."""
    target = work / f"build-{side}"
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    print(f"building {side} from {tree}", file=sys.stderr)
    subprocess.run(
        ["bash", str(tree / "perfbench" / "run.sh"), "list"],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    bin_dir = work / side / "release"
    bin_dir.mkdir(parents=True, exist_ok=True)
    for name in ("pcs-perfbench", "pcs-serve"):
        shutil.copy2(target / "release" / name, bin_dir / name)
    return bin_dir


def run(bin_dir, work, side, workload, seed, trace):
    """One perfbench run; its record is appended to `<side>.jsonl` (untraced)
    or `<side>-traced.jsonl`; returns its result object."""
    out = work / (f"{side}-traced.jsonl" if trace else f"{side}.jsonl")
    log = work / "logs" / f"{side}-{workload}-seed{seed}-trace{int(trace)}.txt"
    log.parent.mkdir(exist_ok=True)
    command = [
        str(bin_dir / "pcs-perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(RUN_SECONDS),
        "--trace", "1" if trace else "0",
        "--out", str(out),
    ]
    print(f"  {side:<6} {workload} seed {seed} trace {int(trace)}", file=sys.stderr)
    with open(log, "w") as handle:
        subprocess.run(command, stdout=handle, stderr=subprocess.STDOUT, cwd=work)
    lines = [line for line in log.read_text().splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"trajectory: {log} holds no result line")


def summary(values):
    """median [q1, q3] the way every trajectory file reports them."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def better(metric, change, parent):
    return change < parent if metric["better"] == "lower" else change > parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--work", type=Path, help="work directory; default: a new temporary one")
    parser.add_argument("--out", type=Path, help="default: CHANGE_DIR/BENCH_<pr>.json")
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    contract = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    end_to_end = contract["end_to_end"]
    per_layer_names = [metric["name"] for metric in contract["per_layer"]]
    workloads = [w["name"] for w in contract["workloads"]]
    work = (args.work or Path(tempfile.mkdtemp(prefix="trajectory-"))).resolve()
    work.mkdir(parents=True, exist_ok=True)
    print(f"work directory {work}", file=sys.stderr)
    bins = {side: build(trees[side], work, side) for side in SIDES}

    untraced = {side: {w: [] for w in workloads} for side in SIDES}
    for workload in workloads:
        for k in range(1, args.pairs + 1):
            order = SIDES if k % 2 == 1 else SIDES[::-1]
            for side in order:
                result = run(bins[side], work, side, workload, k, False)
                untraced[side][workload].append(result)

    traced = {side: {} for side in SIDES}
    for workload in workloads:
        for i in range(args.traced):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run(bins[side], work, side, workload, TRACED_SEED, True)
                traced[side].setdefault(workload, result)

    def layer(side, workload):
        result = traced[side][workload]
        if not result.get("correct") or result.get("failed", 0):
            sys.exit(f"trajectory: the traced {side} run of {workload} failed")
        metrics = result["metrics"]
        return {name: metrics[name]["value"] for name in per_layer_names if name in metrics}

    per_layer = {w: layer("change", w) for w in workloads}
    parent_per_layer = {w: layer("parent", w) for w in workloads}
    count_changes = {}
    for workload in workloads:
        changed = {
            name: [parent_per_layer[workload][name], per_layer[workload][name]]
            for name in COUNTS
            if name in per_layer[workload]
            and name in parent_per_layer[workload]
            and per_layer[workload][name] != parent_per_layer[workload][name]
        }
        if changed:
            count_changes[workload] = changed
    changed_names = sorted({name for changes in count_changes.values() for name in changes})

    bench = {
        "pr": args.pr,
        "commit_measured": f"parent {revision(trees['parent'])} vs this change",
        "machine": f"{os.cpu_count()} cores, {platform.system()} {platform.machine()}; "
        "latencies are this machine's",
        "method": (
            f"end_to_end: {args.pairs} alternating parent/change pairs per workload (pair k "
            "uses seed k for both sides; odd pairs run the parent first, even pairs the change "
            f"first), --seconds {RUN_SECONDS} --trace 0, binaries built with each side's "
            "unmodified perfbench/run.sh and run from copies; median [q1, q3] by "
            "statistics.quantiles(n=4); pairs_won counts pairs where the change is strictly "
            "better; verdicts from perfbench/scripts/compare.py parent.jsonl change.jsonl. "
            f"per_layer: the first of {args.traced} --trace 1 run(s) per side per workload at "
            f"seed {TRACED_SEED} (--seconds {RUN_SECONDS}), alternating which side runs "
            "first. Written by scripts/trajectory.py."
        ),
        "units": {m["name"]: m["unit"] for m in end_to_end + contract["per_layer"]},
        "end_to_end": {},
        "parent_end_to_end": {},
        "pairs_won": {},
        "failed_ops": {},
        "per_layer": per_layer,
        "parent_per_layer": parent_per_layer,
        "count_changes": count_changes,
        "count_change_reasons": {name: "" for name in changed_names},
        "attribution": {},
        "compare_py": [],
    }
    if args.pairs:
        for workload in workloads:
            for side, key in (("change", "end_to_end"), ("parent", "parent_end_to_end")):
                runs = untraced[side][workload]
                bench[key][workload] = {
                    m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                    for m in end_to_end
                }
            bench["pairs_won"][workload] = {
                m["name"]: "{}/{}".format(
                    sum(
                        better(m, c["metrics"][m["name"]]["value"], p["metrics"][m["name"]]["value"])
                        for p, c in zip(untraced["parent"][workload], untraced["change"][workload])
                    ),
                    args.pairs,
                )
                for m in end_to_end
            }
            bench["failed_ops"][workload] = {
                side: "{}/{}".format(
                    sum(r["failed"] for r in untraced[side][workload]),
                    sum(r["attempted"] for r in untraced[side][workload]),
                )
                for side in SIDES
            }
        compare = subprocess.run(
            [
                sys.executable,
                str(trees["change"] / "perfbench" / "scripts" / "compare.py"),
                str(work / "parent.jsonl"),
                str(work / "change.jsonl"),
            ],
            capture_output=True,
            text=True,
        )
        bench["compare_py"] = [line for line in compare.stdout.splitlines() if line.strip()]

    out = args.out or trees["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if changed_names:
        print(
            "count changes to give a reason in count_change_reasons: " + ", ".join(changed_names),
            file=sys.stderr,
        )


def revision(tree):
    """The short commit of `tree`, or its directory name outside git."""
    probe = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
        capture_output=True,
        text=True,
    )
    if probe.returncode == 0 and Path(tree, ".git").exists():
        return probe.stdout.strip()
    return tree.name


if __name__ == "__main__":
    main()
