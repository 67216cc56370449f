"""Compare two result files written by ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians with their
quartiles, the ratio B/A (A is the base), the bound from
``BENCHMARK.json``, and a verdict:

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in that direction;
* ``same`` — it does not;
* ``unresolved`` — the spread (distance between the quartiles, as a
  share of the median, on either side) is wider than the bound, so the
  two cannot be told apart — unless every B value beats every A value.

A file with several runs of a pairing is summarised across those runs;
with one run, the quartiles over its passes stand in.  Simulated-cost
and count metrics of the traced runs (units ``count`` and ``sim_ms``)
must be identical.  Exits 1 on any ``worse`` row, any differing exact
metric, or any failed operation.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_UNITS = ("count", "sim_ms")


def load(path):
    """(workload, trace) -> list of runs; a file holds one run or many."""
    with open(path) as handle:
        doc = json.load(handle)
    by_pairing = defaultdict(list)
    for run in doc.get("runs", [doc]):
        by_pairing[run["workload"], run["trace"]].append(run)
    return by_pairing


def summary(runs, metric):
    """Median, quartiles and every value of ``metric`` over ``runs``; with
    one run, over the samples behind its figure."""
    values = [run["metrics"][metric]["value"] for run in runs]
    if len(values) == 1:
        spread = runs[0].get("spread", {}).get(metric)
        if spread:
            return spread["median"], spread["q1"], spread["q3"], spread["samples"]
        return values[0], values[0], values[0], values
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, values


def verdict(a, b, better, bound):
    (a_med, a_q1, a_q3, a_all), (b_med, b_q1, b_q3, b_all) = a, b
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound:
        if max(sign * v for v in b_all) < min(sign * v for v in a_all):
            return "better"
        return "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    a_runs, b_runs = load(argv[0]), load(argv[1])
    bad = 0
    print(f"{'workload':14s} {'metric':16s} {'unit':5s} "
          f"{'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = a_runs.get((workload, 0)), b_runs.get((workload, 0))
        if not a or not b:
            print(f"{workload:14s} missing from {'A' if not a else 'B'}")
            bad += 1
            continue
        bad += sum(run["failed"] for run in a + b)
        for metric in spec["end_to_end"]:
            sa, sb = summary(a, metric["name"]), summary(b, metric["name"])
            word = verdict(sa, sb, metric["better"], metric["bound"])
            bad += word == "worse"
            cell = lambda s: f"{s[0]:12.4f} [{s[1]:10.4f}, {s[2]:10.4f}]"
            print(f"{workload:14s} {metric['name']:16s} {metric['unit']:5s} "
                  f"{cell(sa)} {cell(sb)} {sb[0] / sa[0]:7.3f} "
                  f"{metric['bound']:6.2f}  {word}")
    print()
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = a_runs.get((workload, 1)), b_runs.get((workload, 1))
        if not a or not b:
            continue
        bad += sum(run["failed"] for run in a + b)
        for metric in spec["per_layer"]:
            if metric["unit"] not in EXACT_UNITS:
                continue
            va = {run["metrics"][metric["name"]]["value"] for run in a}
            vb = {run["metrics"][metric["name"]]["value"] for run in b}
            if va != vb:
                bad += 1
                print(f"{workload:14s} {metric['name']:32s} exact metric differs: "
                      f"A {sorted(va)} B {sorted(vb)}")
    print("exact metrics identical, no row worse, nothing failed" if not bad
          else f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
