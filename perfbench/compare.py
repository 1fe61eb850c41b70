#!/usr/bin/env python3
"""Summarise or compare benchmark records written by perfbench/run.py.

    python3 perfbench/compare.py BASE.jsonl            # medians, IQR
    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl # base vs head

Records are grouped by workload, trace mode, run length and
fingerprint (nproc, CPU model, compiler, build type, checks, sanitizer
and obs flags); only groups with the same key are compared. A
workload present in both files with no common fingerprint is refused,
and the script exits 1.
"""

import json
import statistics
import sys


def load(path):
    groups = {}
    with open(path, encoding="utf-8") as records:
        for line in records:
            if line.strip():
                r = json.loads(line)
                key = (r["workload"], r["trace"], r["seconds"],
                       json.dumps(r["fingerprint"], sort_keys=True))
                groups.setdefault(key, []).append(r)
    return groups


def summary(records, name):
    values = [r["metrics"][name]["value"] for r in records
              if name in r["metrics"]]
    if not values:
        return None
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median, len(values)


def main(paths):
    sets = [load(path) for path in paths]
    for key in sorted(set(sets[0]) & set(sets[-1])):
        sides = [s[key] for s in sets]
        print("%s trace %d %gs  %s" % key)
        for name in sides[0][-1]["metrics"]:
            rows = [summary(side, name) for side in sides]
            if None in rows:
                continue
            line = "  %-30s" % name
            for median, spread, count in rows:
                line += " %14.6g (IQR %5.1f%%, n=%d)" % (
                    median, 100 * spread, count)
            if len(rows) == 2 and rows[0][0]:
                line += "  %+6.1f%%" % (100 * (rows[1][0] / rows[0][0] - 1))
            print(line)
    runs = [{key[:3] for key in s} for s in sets]
    compared = {key[:3] for key in set(sets[0]) & set(sets[-1])}
    refused = sorted((runs[0] & runs[-1]) - compared)
    for workload, trace, seconds in refused:
        print("%s trace %d %gs: fingerprints differ, not compared"
              % (workload, trace, seconds))
    return 1 if refused else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
