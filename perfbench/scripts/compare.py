#!/usr/bin/env python3
"""Applies the bounds of BENCHMARK.json to result files.

    compare.py A.jsonl            spread of each end-to-end metric per workload
    compare.py A.jsonl B.jsonl    B (the change) against A (the parent)

A result file holds one JSON object per line, as `pcs-perfbench --out FILE`
appends them.  Only `--trace 0` records are compared: per-layer metrics have
no bound.

For every workload and end-to-end metric, with the medians of A and B:
  regression  B's median is worse than A's by more than the metric's bound
  unresolved  the spread (interquartile range / median) of A or of B is wider
              than the bound, unless every run of B is better than every run
              of A
  ok          otherwise
Exit status: 1 if any pairing regressed (or, with one file, if any spread
exceeds its bound), else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    """{workload: {metric: [values]}} of the untraced records in `path`."""
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"]:
            continue
        if not record["result"]["correct"]:
            sys.exit(f"{path}: an incorrect run of {record['workload']} (seed {record['seed']})")
        for name, metric in record["result"]["metrics"].items():
            runs[record["workload"]][name].append(metric["value"])
    return runs


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    root = Path(__file__).resolve().parents[2]
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    a = load(argv[1])
    b = load(argv[2]) if len(argv) == 3 else None
    bad = False
    for workload in sorted(a):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            va = a[workload][name]
            ma, sa = statistics.median(va), spread(va)
            if b is None:
                verdict = "ok" if sa <= bound else "TOO WIDE"
                bad |= sa > bound
                print(f"{workload:14} {name:15} median {ma:12.4f} {metric['unit']:6}"
                      f" spread {sa:7.2%} bound {bound:4.0%} n={len(va)} {verdict}")
                continue
            vb = b[workload][name]
            mb, sb = statistics.median(vb), spread(vb)
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            separated = max(vb) < min(va) if lower else min(vb) > max(va)
            if worse > bound:
                verdict = "REGRESSION"
                bad = True
            elif max(sa, sb) > bound and not separated:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:14} {name:15} A {ma:12.4f} (spread {sa:6.2%})"
                  f" B {mb:12.4f} (spread {sb:6.2%}) worse by {worse:+7.2%}"
                  f" bound {bound:4.0%} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
