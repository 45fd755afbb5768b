#!/usr/bin/env python3
"""Summarise a spans file written by a traced benchmark run.

    python3 perfbench/spans.py perfbench/work/spans-<workload>-seed<n>-trace1.json.gz \
        [--within montecarlo._simulate_burst]

Prints, per span name: calls, inclusive and self seconds, and the self
share of the total.  With ``--within NAME`` only spans
inside a NAME span count, and the share is of NAME's inclusive time; a
NAME span's own self time is listed as NAME.
"""

import argparse
import gzip
import json
from collections import defaultdict


def summarise(spans, within=None):
    child_time = defaultdict(float)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def inside(i):
        while i >= 0:
            if spans[i][0] == within:
                return True
            i = spans[i][1]
        return False

    rows = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive, self
    for i, (name, parent, start, end) in enumerate(spans):
        if within is not None and not inside(i):
            continue
        row = rows[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
    if within is not None:
        total = rows[within][1] if within in rows else 0.0
    else:
        total = sum(r[2] for r in rows.values())
    return rows, total


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("spans_file")
    p.add_argument("--within", help="only spans nested in a span of this name")
    args = p.parse_args()
    with gzip.open(args.spans_file, "rt") as fh:
        spans = json.load(fh)["spans"]
    rows, total = summarise(spans, args.within)
    print(f"{'span':40s} {'calls':>8s} {'incl_s':>9s} {'self_s':>9s} {'share':>6s}")
    for name, (calls, incl, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        share = self_s / total if total else 0.0
        print(f"{name:40s} {calls:8d} {incl:9.3f} {self_s:9.3f} {share:6.1%}")


if __name__ == "__main__":
    main()
