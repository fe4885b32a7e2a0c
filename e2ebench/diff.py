#!/usr/bin/env python3
"""Compare two e2ebench reports: ``python3 e2ebench/diff.py A.json B.json``.

A is the parent (or the first of two runs of one commit), B the change.  For
every end-to-end metric on every workload the table shows both medians with
their quartiles, B's change in the metric's *worse* direction, the bound
BENCHMARK.json fixes for it, and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — better by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (IQR / median) is
  wider than the bound, so the bound cannot be told from noise; also a row
  that A lacks, so there is nothing to hold B against.  A side with fewer
  than three runs has no spread to show and cannot come out unresolved; the
  table says so above its first row: use ``run.py --runs N``;
* ``ok``         — anything else.

A workload that neither report ran is listed as skipped (a deliberate
``--workload`` subset).  A workload or metric that A reports and B does not
counts as ``regressed``: a report cannot pass by leaving a row out.  Exit
status is non-zero when any row regressed, any workload's ``failed_ratio``
went up, or no row was compared at all.  ``--layers`` also lists the per-layer medians of
traced records side by side (no verdicts: per-layer metrics have no bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from harness import ROOT, quartiles


def load(path: str) -> dict:
    """{(workload, traced): {metric: [values...]}} plus failed ratios, from one report."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    values: dict = defaultdict(lambda: defaultdict(list))
    failed: dict = defaultdict(list)
    for record in report["records"]:
        key = (record["workload"], bool(record["trace"]))
        for name, got in record["metrics"].items():
            values[key][name].append(got["value"])
        if not record["trace"]:
            failed[record["workload"]].append(record["failed_ratio"])
    return {"values": values, "failed": failed}


def judge(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, B's relative change toward worse, widest spread of the two sides)."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if not a_med:
        return ("ok" if not b_med else "regressed"), 0.0, 0.0
    worse = (b_med - a_med) / a_med if better == "lower" else (a_med - b_med) / a_med
    spread = 0.0
    if min(len(a), len(b)) >= 3:
        spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med if b_med else 0.0)
    if spread > bound:
        return "unresolved", worse, spread
    if worse > bound:
        return "regressed", worse, spread
    if worse < -bound:
        return "improved", worse, spread
    return "ok", worse, spread


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="report of the parent commit (or the first A/A run)")
    parser.add_argument("b", help="report of the change (or the second A/A run)")
    parser.add_argument("--layers", action="store_true", help="also list per-layer medians")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    a, b = load(args.a), load(args.b)
    bad = 0
    counts: dict[str, int] = defaultdict(int)
    fewest = min((len(record) for side in (a, b) for record in side["failed"].values()), default=0)
    if fewest < 3:
        print(f"WARNING: a side has only {fewest} run(s) of some workload: spreads are unknown, "
              "no row can come out unresolved; use run.py --runs 3 or more")
    print(f"{'workload':<18}{'metric':<18}{'A median [q1..q3]':>34}{'B median [q1..q3]':>34}"
          f"{'worse by':>10}{'bound':>8}{'spread':>8}  verdict")

    def cell(values: list[float] | None) -> str:
        if not values:
            return f"{'missing':>12}"
        q1, median, q3 = quartiles(values)
        return f"{median:>12.5g} [{q1:.5g}..{q3:.5g}]"

    for workload in (entry["name"] for entry in spec["workloads"]):
        key = (workload, False)
        if key not in a["values"] and key not in b["values"]:
            print(f"{workload:<18}skipped: in neither report")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["values"].get(key, {}).get(name), b["values"].get(key, {}).get(name)
            if not vb:
                verdict, worse, spread = "regressed", 0.0, 0.0
            elif not va:
                verdict, worse, spread = "unresolved", 0.0, 0.0
            else:
                verdict, worse, spread = judge(va, vb, metric["better"], metric["bound"])
            counts[verdict] += 1
            bad += verdict == "regressed"
            print(
                f"{workload:<18}{name:<18}" + cell(va).ljust(34) + cell(vb).ljust(34)
                + f"{worse:>+10.1%}{metric['bound']:>8.0%}{spread:>8.1%}  {verdict}"
            )
        # A side that did not run the workload: A failed nothing, B everything.
        fa, fb = max(a["failed"].get(workload, [0.0])), max(b["failed"].get(workload, [1.0]))
        verdict = "regressed" if fb > fa else "ok"
        bad += fb > fa
        print(f"{workload:<18}{'failed_ratio':<18}{fa:>12.5g}".ljust(70) + f"{fb:>12.5g}".ljust(34)
              + f"{'':>10}{'+0 abs':>8}{'':>8}  {verdict}")
    if args.layers:
        print("\nper-layer medians (traced records; no bound, no verdict)")
        for (workload, traced), metrics in a["values"].items():
            if not traced or (workload, True) not in b["values"]:
                continue
            for name, va in metrics.items():
                vb = b["values"][(workload, True)].get(name)
                if vb:
                    print(f"{workload:<18}{name:<42}{statistics.median(va):>14.6g}{statistics.median(vb):>14.6g}")
    summary = ", ".join(f"{count} {verdict}" for verdict, count in sorted(counts.items()))
    status = 1 if bad or not counts else 0
    print(f"\n{summary or 'nothing to compare'}; exit {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
