"""Run one workload for a time budget and report its end-to-end metrics.

A run is a sequence of *segments* (:mod:`bench.segment`), each on a
fresh deployment: a long-lived deployment is not steady, because the
unconditional ``GcsTrace`` keeps growing and generation-2 garbage
collections walk an ever larger heap.  ``gc.collect()`` runs between
segments; the collector stays enabled inside timed regions.  Every
timing metric is computed per segment and the run reports the
fast-quartile segment value (:func:`bench.stats.fast_quartile`).
"""

from __future__ import annotations

import asyncio
import gc
import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from bench.segment import SegmentResult, run_segment
from bench.stats import CALIB_SPREAD_LIMIT, Canary, fast_quartile, percentile
from bench.workloads import QUICK_SEGMENTS, Workload, make_script

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Report:
    """One run's outcome, in the shape the result line is printed from."""

    workload: str
    seed: int
    segments: int = 0
    wall_s: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)  # timings before host correction
    host_factor: float = 1.0
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    calib_ms: float = 0.0
    calib_spread: float = 0.0
    notes: List[str] = field(default_factory=list)

    def absorb(self, results: List[SegmentResult]) -> None:
        """Count the segments' operations; correct only if every segment is."""
        for result in results:
            self.attempted += result.ops_attempted
            self.failed += result.ops_failed
            self.notes.extend(result.notes)
        self.correct = bool(results) and all(result.ok for result in results)

    @property
    def unresolved(self) -> bool:
        """The host did not hold still: timings are neither pass nor fail."""
        return self.calib_spread > CALIB_SPREAD_LIMIT

    def result_line(self, spec_metrics: List[Dict[str, Any]]) -> str:
        """The last line of standard output: exactly the contract's keys."""
        metrics = {
            m["name"]: {"value": self.metrics[m["name"]], "unit": m["unit"]}
            for m in spec_metrics
        }
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": max(1, self.attempted),
                "failed": self.failed,
                "metrics": metrics,
            }
        )


class SegmentLoop:
    """Runs segments back to back inside a time budget, canary in between."""

    def __init__(self, seconds: float, quick: bool) -> None:
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        self.quick = quick
        self.durations: List[float] = []
        self.count = 0
        self.canary = Canary()

    def more(self) -> bool:
        if self.quick:
            return self.count < QUICK_SEGMENTS
        if self.count == 0:
            return True
        # Start a segment that is expected to end within half a segment of
        # the deadline: over many runs the budget is met on average.
        typical = percentile(self.durations, 50.0)
        return time.perf_counter() + typical / 2 < self.deadline

    def run(self, segment: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        result = asyncio.run(segment())
        gc.collect()
        self.durations.append(time.perf_counter() - started)
        self.count += 1
        self.canary.sample()
        return result


#: Units of metrics that scale with host speed (and so get host-corrected).
TIME_UNITS = {"s": -1, "ms": -1, "1/s": +1}


def summarise(
    report: Report,
    results: List[SegmentResult],
    end_to_end: List[Dict[str, Any]],
) -> None:
    """Fold per-segment values into the run's metrics and correctness.

    Timings are the fast-quartile segment value, corrected by the run's
    ``host_factor`` to what the reference host would have read: this
    host slows everything down about twofold for minutes at a time, and
    uncorrected runs from inside such a window are no measurement of the
    program at all.  The uncorrected values are kept in ``report.raw``.
    """
    report.absorb(results)
    clean = [result.values() for result in results if result.ok]
    if not clean:
        return
    for metric in end_to_end:
        name = metric["name"]
        if name == "peak_rss_mb":
            report.metrics[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            continue
        column = [values[name] for values in clean]
        if name == "sync_msgs_per_view_change":
            # A count: it must repeat exactly, so there is nothing to estimate.
            if len(set(column)) != 1:
                report.correct = False
                report.notes.append(f"sync volume differs between segments: {sorted(set(column))}")
            report.metrics[name] = column[0]
            continue
        report.raw[name] = fast_quartile(column, metric["better"])
        report.metrics[name] = report.raw[name] * report.host_factor ** TIME_UNITS[metric["unit"]]


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    quick: bool = False,
    spec: Optional[Dict[str, Any]] = None,
) -> Report:
    """The untraced run: every end-to-end metric of ``workload``."""
    spec = spec or load_spec()
    script = make_script(workload, seed)
    report = Report(workload.name, seed)
    loop = SegmentLoop(seconds, quick)
    results: List[SegmentResult] = []
    while loop.more():
        results.append(loop.run(lambda: run_segment(workload, script)))
    report.segments = loop.count
    report.wall_s = time.perf_counter() - loop.started
    report.calib_ms = loop.canary.median_ms
    report.calib_spread = loop.canary.spread
    report.host_factor = loop.canary.host_factor
    summarise(report, results, spec["end_to_end"])
    return report


def print_report(report: Report, workload: Workload, metrics: List[Dict[str, Any]]) -> None:
    print(
        f"workload {report.workload} seed={report.seed}: {report.segments} segments "
        f"in {report.wall_s:.1f} s on {workload.substrate}, n={workload.n}; closed loop, "
        f"one load-generating task; injected message delay 0 "
        f"(latency is processor + kernel time only)"
    )
    print(
        f"  estimator: fast-quartile of per-segment values; latency quantiles over "
        f"{workload.pings} pings per segment; outage over {workload.reconf} "
        f"reconfigurations per segment"
    )
    for metric in metrics:
        value = report.metrics.get(metric["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        bound = f", bound {metric['bound']:.0%}" if "bound" in metric else ""
        raw = report.raw.get(metric["name"])
        uncorrected = "" if raw is None else f"; as timed on this host {raw:.6g}"
        print(
            f"  {metric['name']:34s} {shown:>12s} {metric['unit']:6s} "
            f"({metric['better']} is better{bound}{uncorrected})"
        )
    print(f"  ops_attempted {report.attempted}  ops_failed {report.failed}")
    state = "UNRESOLVED (host drifted)" if report.unresolved else "steady"
    print(
        f"  host.calib_ms {report.calib_ms:.3f}  host.calib_spread "
        f"{report.calib_spread:.1%}  host factor {report.host_factor:.3f}  -> timings {state}"
    )
    for note in report.notes[:8]:
        print(f"  note: {note}")


def write_out(name: str, payload: Any) -> Path:
    """Write a JSON artifact under ``bench/out/`` (git-ignored)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
