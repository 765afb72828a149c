"""``--agree N``: do two sets of runs of the same code agree?

Two sets of N full passes are run with the workloads interleaved and
the starting set alternated pass by pass, so that slow host drift lands
on both sets alike.  Every run is a subprocess with a seed of its own.
For each (workload, metric) the two set medians may differ by at most
the metric's bound, and each set's own inter-quartile spread must stay
within the bound too - the same two rules the benchmark is accepted by.
When a cell fails the remedy is a longer run (``run_seconds``), never a
shorter segment and not a wider bound.
"""

from __future__ import annotations

import argparse
import statistics
from typing import Any, Dict, List

from bench.cli import child_command, run_child
from bench.run import write_out
from bench.stats import spread
from bench.workloads import WORKLOADS

#: Metrics that are counts made by the program: bit-identical or wrong.
EXACT = ("sync_msgs_per_view_change",)


def run_agree(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    passes = max(5, args.agree)
    names = [args.workload] if args.workload else list(WORKLOADS)
    args.trace = 0  # end-to-end numbers only ever come from untraced runs
    sets: Dict[str, Dict[str, List[Dict[str, float]]]] = {
        label: {name: [] for name in names} for label in "AB"
    }
    broken = 0
    for pass_no in range(passes):
        for label in ("AB" if pass_no % 2 == 0 else "BA"):
            seed = args.seed + pass_no + (passes if label == "B" else 0)
            for name in names:
                result = run_child(child_command(name, args, seed), echo=False)
                if result is None or not result["correct"] or result["failed"]:
                    broken += 1
                    print(f"pass {pass_no} set {label} {name} seed {seed}: FAILED", flush=True)
                    continue
                values = {k: v["value"] for k, v in result["metrics"].items()}
                sets[label][name].append(values)
                print(
                    f"pass {pass_no} set {label} {name} seed {seed}: "
                    f"{values['deliveries_per_s']:.0f} deliveries/s",
                    flush=True,
                )

    disagreements = 0
    table: List[Dict[str, Any]] = []
    print(f"\n{'workload':12s} {'metric':28s} {'median A':>12s} {'median B':>12s} "
          f"{'diff':>7s} {'sprd A':>7s} {'sprd B':>7s} {'bound':>6s}")
    for name in names:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            column_a = [run[key] for run in sets["A"][name]]
            column_b = [run[key] for run in sets["B"][name]]
            if not column_a or not column_b:
                disagreements += 1
                continue
            median_a, median_b = statistics.median(column_a), statistics.median(column_b)
            difference = abs(median_b - median_a) / abs(median_a)
            spread_a, spread_b = spread(column_a), spread(column_b)
            if key in EXACT:
                agreed = len(set(column_a + column_b)) == 1
            else:
                agreed = difference <= bound and max(spread_a, spread_b) <= bound
            disagreements += not agreed
            table.append(
                {"workload": name, "metric": key, "median_a": median_a, "median_b": median_b,
                 "difference": difference, "spread_a": spread_a, "spread_b": spread_b,
                 "bound": bound, "agreed": agreed}
            )
            print(
                f"{name:12s} {key:28s} {median_a:12.5g} {median_b:12.5g} "
                f"{difference:7.2%} {spread_a:7.2%} {spread_b:7.2%} {bound:6.0%}"
                f"{'' if agreed else '  <-- DISAGREE'}"
            )
    path = write_out("agree.json", {"passes": passes, "seconds": args.seconds, "cells": table})
    print(f"\n{disagreements} disagreeing cell(s), {broken} failed run(s); wrote {path}")
    return 1 if disagreements or broken else 0
