"""Argument parsing and the modes of ``python3 -m bench``.

* ``--workload NAME`` runs that workload in this process and prints, as
  the last line, the result object the benchmark contract prescribes.
* Without ``--workload`` every workload runs, each in a subprocess of
  its own so that ``peak_rss_mb`` is that workload's alone.
* ``--trace 1`` reports the per-layer metrics (isolated layer drivers
  plus a traced run) instead of the end-to-end ones.
* ``--agree N`` is the self-check: two interleaved sets of N passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any, Dict, List, Optional

from bench.run import ROOT, load_spec, print_report, run_workload, write_out
from bench.workloads import WORKLOADS


def parse(argv: Optional[List[str]], spec: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measurement time per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="two segments per workload whatever --seconds says (CI smoke)",
    )
    parser.add_argument(
        "--agree", type=int, default=0, metavar="N",
        help="run two interleaved sets of N>=5 full passes and compare their medians",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile one segment per workload into bench/out/ (no metrics)",
    )
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """One workload, in this process; the last line printed is the result."""
    workload = WORKLOADS[args.workload]
    if args.trace:
        from bench.traced import run_traced

        report = run_traced(workload, args.seed, args.seconds, quick=args.quick)
        metrics = spec["per_layer"]
    else:
        report = run_workload(workload, args.seed, args.seconds, quick=args.quick, spec=spec)
        metrics = spec["end_to_end"]
    print_report(report, workload, metrics)
    missing = [m["name"] for m in metrics if m["name"] not in report.metrics]
    if missing:
        print(f"  no value for: {', '.join(missing)}")
        return 1
    mode = "trace" if args.trace else "e2e"
    write_out(
        f"result-{workload.name}-{mode}-seed{args.seed}.json",
        {"workload": workload.name, "seed": args.seed, "segments": report.segments,
         "unresolved": report.unresolved, "host.calib_ms": report.calib_ms,
         "host.calib_spread": report.calib_spread, "host_factor": report.host_factor,
         "uncorrected": report.raw, "notes": report.notes,
         "result": json.loads(report.result_line(metrics))},
    )
    print(report.result_line(metrics), flush=True)
    return 0 if report.correct else 1


def child_command(name: str, args: argparse.Namespace, seed: Optional[int] = None) -> List[str]:
    command = [
        sys.executable, "-m", "bench", "--workload", name,
        "--seed", str(args.seed if seed is None else seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    return command


def run_child(command: List[str], *, echo: bool) -> Optional[Dict[str, Any]]:
    """Run one workload subprocess; its parsed result line, or None."""
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if echo:
        sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own subprocess; a combined last line."""
    combined: Dict[str, Any] = {}
    status = 0
    for name in WORKLOADS:
        result = run_child(child_command(name, args), echo=True)
        if result is None or not result["correct"]:
            status = 1
        combined[name] = result
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse(argv, spec)
    if args.agree:
        from bench.agree import run_agree

        return run_agree(args, spec)
    if args.profile:
        from bench.profiling import run_profile

        names = [args.workload] if args.workload else list(WORKLOADS)
        return run_profile(names, args.seed)
    if args.workload:
        return run_one(args, spec)
    return run_all(args)
